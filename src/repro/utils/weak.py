"""Weak callbacks: hooks that do not keep their owner alive.

Objects hand hooks back to their owners: the VM wires its translation
cache and syscall layer to itself, and the cache wires guest memory to
itself.  A bound method as the hook closes a reference cycle, so a
finished VM — and its whole trace — would wait for a cyclic garbage
collection.  :func:`weak_method` breaks the cycle, so reference counting
frees the VM as soon as the last outside reference drops.
"""

import weakref


def weak_method(owner, name):
    """A hook calling ``owner.<name>(*args)`` while ``owner`` is alive.

    Holds ``owner`` through a :class:`weakref.ref` and returns ``None``
    once it has been collected.  (``weakref.WeakMethod`` would do the
    same, but it cannot be deep-copied.)
    """
    ref = weakref.ref(owner)

    def hook(*args):
        target = ref()
        if target is None:
            return None
        return getattr(target, name)(*args)
    return hook
