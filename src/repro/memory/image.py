"""Sparse paged memory and the loaded-program container.

The memory model is deliberately strict: reads and writes to pages that were
never mapped raise an :class:`~repro.isa.semantics.Trap` with kind
``ACCESS_VIOLATION``, which is exactly what the precise-trap machinery of the
co-designed VM needs to exercise (Section 2.2 of the paper).

Pages additionally carry R/W/X protection bits (``PROT_*``): a mapped page
accessed against its protection raises a precise ``PROTECTION_VIOLATION``
trap carrying the faulting address and the access kind.  Guest stores also
drive two pieces of VM bookkeeping:

* **dirty tracking** — the first guest store to a page records it in the
  dirty set (host-side ``write_bytes`` loads are exempt, so a loaded image
  starts clean);
* **code-write watching** — the translation cache watches pages holding
  installed fragments; a guest store into a watched page calls the
  registered hook *after* the store completes, which is how precise
  self-modifying-code invalidation works (``docs/robustness.md``).

The fast paths are three lazily/eagerly maintained page dicts whose
``get`` methods the jit binds at compile time, so they are stable
attributes that are mutated in place and never reassigned:

``_read_ok``
    mapped pages with ``PROT_READ`` — the load fast path;
``_exec_ok``
    mapped pages with ``PROT_EXEC`` — the fetch fast path;
``_write_ok``
    mapped, writable, *unwatched* pages that are already dirty — the
    store fast path.  A store missing here takes the slow path, which
    delivers the right trap or performs the store with dirty/watch
    bookkeeping (and installs the fast entry when the page is eligible),
    so dirty tracking and SMC detection are exact at zero steady-state
    cost.
"""

from repro.isa.semantics import Trap, TrapKind
from repro.utils.bitops import MASK64

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1

#: Page-protection bits (guest-visible through the ``protect`` PAL call).
PROT_READ = 1
PROT_WRITE = 2
PROT_EXEC = 4
PROT_ALL = PROT_READ | PROT_WRITE | PROT_EXEC

_ACCESS_NAMES = {PROT_READ: "read", PROT_WRITE: "write", PROT_EXEC: "exec"}


class Segment:
    """A named, contiguous region of the address space."""

    __slots__ = ("name", "base", "size")

    def __init__(self, name, base, size):
        self.name = name
        self.base = base
        self.size = size

    @property
    def end(self):
        return self.base + self.size

    def __repr__(self):
        return f"Segment({self.name!r}, base={self.base:#x}, size={self.size:#x})"


class Memory:
    """Sparse paged byte memory with strict access checking."""

    def __init__(self):
        self._pages = {}
        self.segments = []
        #: page index -> protection bits (pages absent here are unmapped)
        self._prot = {}
        #: fast-path dicts — stable attributes, mutated in place (the jit
        #: binds their bound ``get`` methods at compile time)
        self._read_ok = {}
        self._exec_ok = {}
        self._write_ok = {}
        #: pages at least one guest store has touched
        self._dirty = set()
        #: pages the translation cache watches for code writes
        self._watched = set()
        #: hook(address, size, vpc) fired after a store into a watched page
        self._code_write_hook = None

    def map_segment(self, name, base, size, prot=PROT_ALL):
        """Map a zero-filled segment; returns the :class:`Segment` record.

        Rejects empty or negative sizes and byte ranges overlapping an
        existing segment — both were previously accepted silently and
        corrupted the page table (a later segment re-zeroed shared pages).
        """
        if size <= 0:
            raise ValueError(
                f"cannot map segment {name!r}: size must be positive, "
                f"got {size:#x}")
        end = base + size
        for existing in self.segments:
            if base < existing.end and existing.base < end:
                raise ValueError(
                    f"cannot map segment {name!r} at "
                    f"[{base:#x}, {end:#x}): overlaps segment "
                    f"{existing.name!r} at [{existing.base:#x}, "
                    f"{existing.end:#x})")
        segment = Segment(name, base, size)
        first = base >> PAGE_SHIFT
        last = (base + size - 1) >> PAGE_SHIFT
        for page in range(first, last + 1):
            if page not in self._pages:
                self._pages[page] = bytearray(PAGE_SIZE)
            self._set_prot(page, prot)
        self.segments.append(segment)
        return segment

    def is_mapped(self, address):
        """True when the byte at ``address`` belongs to a mapped page."""
        return (address >> PAGE_SHIFT) in self._pages

    def _page_for(self, address, vpc=None):
        page = self._pages.get(address >> PAGE_SHIFT)
        if page is None:
            raise Trap(TrapKind.ACCESS_VIOLATION, vpc=vpc, address=address)
        return page

    # -- protection --------------------------------------------------------

    def _set_prot(self, page, prot):
        """Set one page's protection and rebuild its fast-path entries."""
        self._prot[page] = prot
        data = self._pages[page]
        if prot & PROT_READ:
            self._read_ok[page] = data
        else:
            self._read_ok.pop(page, None)
        if prot & PROT_EXEC:
            self._exec_ok[page] = data
        else:
            self._exec_ok.pop(page, None)
        # the store fast path additionally requires dirty + unwatched
        if (prot & PROT_WRITE) and page in self._dirty and \
                page not in self._watched:
            self._write_ok[page] = data
        else:
            self._write_ok.pop(page, None)

    def protect(self, base, size, prot):
        """Set protection bits over ``[base, base + size)``.

        Every page in the range must be mapped; raises ``ValueError``
        naming the first unmapped page otherwise (the ``protect`` PAL
        call turns that into an error return, not a trap).
        """
        if size <= 0:
            raise ValueError(f"protect size must be positive, got {size}")
        if prot & ~PROT_ALL:
            raise ValueError(f"invalid protection bits {prot:#x}")
        first = base >> PAGE_SHIFT
        last = (base + size - 1) >> PAGE_SHIFT
        for page in range(first, last + 1):
            if page not in self._pages:
                raise ValueError(
                    f"protect range [{base:#x}, {base + size:#x}) covers "
                    f"unmapped page {page << PAGE_SHIFT:#x}")
        for page in range(first, last + 1):
            self._set_prot(page, prot)

    def page_prot(self, address):
        """Protection bits of the page holding ``address`` (None when
        unmapped)."""
        return self._prot.get(address >> PAGE_SHIFT)

    def dirty_pages(self):
        """Base addresses of pages at least one guest store touched."""
        return sorted(page << PAGE_SHIFT for page in self._dirty)

    # -- code-write watching (SMC detection) -------------------------------

    def set_code_write_hook(self, hook):
        """Register the hook fired after a guest store to a watched page."""
        self._code_write_hook = hook

    def watch_page(self, page):
        """Start watching a page for guest stores (by page index)."""
        self._watched.add(page)
        self._write_ok.pop(page, None)

    def unwatch_page(self, page):
        """Stop watching a page; the store fast path repopulates lazily."""
        self._watched.discard(page)

    # -- raw byte access ---------------------------------------------------

    def write_bytes(self, address, data):
        """Write a byte string, page by page (host-side: no protection
        checks, no dirty marking — the loader and snapshot tooling use
        this)."""
        offset = 0
        while offset < len(data):
            page = self._page_for(address + offset)
            start = (address + offset) & PAGE_MASK
            chunk = min(PAGE_SIZE - start, len(data) - offset)
            page[start:start + chunk] = data[offset:offset + chunk]
            offset += chunk

    def read_bytes(self, address, count):
        """Read ``count`` bytes as a bytes object (host-side: unchecked)."""
        out = bytearray()
        offset = 0
        while offset < count:
            page = self._page_for(address + offset)
            start = (address + offset) & PAGE_MASK
            chunk = min(PAGE_SIZE - start, count - offset)
            out += page[start:start + chunk]
            offset += chunk
        return bytes(out)

    # -- sized accesses (little-endian, as on Alpha) -------------------------

    def _fault(self, address, vpc, access):
        """The slow-path miss verdict: unmapped or protection-denied."""
        if (address >> PAGE_SHIFT) not in self._pages:
            raise Trap(TrapKind.ACCESS_VIOLATION, vpc=vpc, address=address)
        raise Trap(TrapKind.PROTECTION_VIOLATION, vpc=vpc, address=address,
                   access=_ACCESS_NAMES[access])

    def load(self, address, size, vpc=None):
        """Load an unsigned little-endian value of 1/2/4/8 bytes.

        Naturally-aligned accesses only; misalignment raises an UNALIGNED
        trap exactly as Alpha hardware would.
        """
        if address & (size - 1):
            raise Trap(TrapKind.UNALIGNED, vpc=vpc, address=address)
        page = self._read_ok.get(address >> PAGE_SHIFT)
        if page is None:
            self._fault(address, vpc, PROT_READ)
        start = address & PAGE_MASK
        # a naturally-aligned access never straddles a page (size divides
        # PAGE_SIZE), so the single-page slice is the only path
        return int.from_bytes(page[start:start + size], "little")

    def fetch(self, address, vpc=None):
        """Fetch one 32-bit instruction word (the exec-checked read)."""
        if address & 3:
            raise Trap(TrapKind.UNALIGNED, vpc=vpc, address=address)
        page = self._exec_ok.get(address >> PAGE_SHIFT)
        if page is None:
            self._fault(address, vpc, PROT_EXEC)
        start = address & PAGE_MASK
        return int.from_bytes(page[start:start + 4], "little")

    def store(self, address, value, size, vpc=None):
        """Store the low ``size`` bytes of ``value`` little-endian."""
        if address & (size - 1):
            raise Trap(TrapKind.UNALIGNED, vpc=vpc, address=address)
        index = address >> PAGE_SHIFT
        page = self._write_ok.get(index)
        value &= (1 << (8 * size)) - 1
        start = address & PAGE_MASK
        if page is not None:
            page[start:start + size] = value.to_bytes(size, "little")
            return
        # slow path: trap, or first-store / watched-page bookkeeping
        prot = self._prot.get(index)
        if prot is None or not prot & PROT_WRITE:
            self._fault(address, vpc, PROT_WRITE)
        page = self._pages[index]
        page[start:start + size] = value.to_bytes(size, "little")
        self._dirty.add(index)
        if index in self._watched:
            hook = self._code_write_hook
            if hook is not None:
                # fired after the store: the write is architecturally
                # complete before any SMC invalidation/deopt it triggers
                hook(address, size, vpc)
        else:
            self._write_ok[index] = page

    def snapshot(self):
        """Deep copy of the memory contents, for co-simulation checks."""
        clone = Memory()
        clone._pages = {num: bytearray(page)
                        for num, page in self._pages.items()}
        clone.segments = list(self.segments)
        clone._dirty = set(self._dirty)
        for num in clone._pages:
            clone._set_prot(num, self._prot.get(num, PROT_ALL))
        return clone


class Program:
    """A loaded V-ISA program: memory image plus metadata from the assembler."""

    def __init__(self, memory, entry, symbols=None, text_base=0,
                 text_size=0, source_name="<anonymous>", input_script=b""):
        self.memory = memory
        self.entry = entry
        self.symbols = dict(symbols or {})
        self.text_base = text_base
        self.text_size = text_size
        self.source_name = source_name
        #: scripted console input consumed by the ``getc`` PAL call
        self.input_script = bytes(input_script)

    def text_range(self):
        """Half-open [base, end) byte range of the text segment."""
        return (self.text_base, self.text_base + self.text_size)

    def __repr__(self):
        return (f"Program({self.source_name!r}, entry={self.entry:#x}, "
                f"text={self.text_base:#x}+{self.text_size:#x})")
