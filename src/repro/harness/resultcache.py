"""Persistent on-disk cache of completed run-point summaries.

The whole simulator is deterministic, so a run point's summary is a pure
function of its identity: workload name + budget + the full
:class:`~repro.vm.config.VMConfig` key fields + the requested evaluations
+ the schema version.  The cache keys entries by the SHA-256 of that
identity's canonical JSON; any change to any ingredient — a different
budget, one flipped config knob, a new evaluator parameter, a schema bump
— therefore produces a different key and an automatic miss.  There is no
time-based invalidation and no partial matching.

Entries are single JSON files written atomically (temp file +
``os.replace``), so concurrent workers and concurrent harness invocations
can share one cache directory without locking: the worst case is two
processes computing the same (identical) entry and one overwriting the
other with the same bytes.

The default location is ``~/.cache/repro/runpoints``, overridable with the
``REPRO_CACHE_DIR`` environment variable or the CLI's ``--cache-dir``.
"""

import hashlib
import json
import os
import tempfile

ENV_CACHE_DIR = "REPRO_CACHE_DIR"
_DEFAULT_SUBDIR = os.path.join(".cache", "repro", "runpoints")


def default_cache_dir():
    """The cache root honouring ``REPRO_CACHE_DIR``."""
    override = os.environ.get(ENV_CACHE_DIR)
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), _DEFAULT_SUBDIR)


def point_key(point):
    """Content hash identifying a run point (hex SHA-256)."""
    canonical = json.dumps(point.key_dict(), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultCache:
    """A directory of ``<key>.json`` run-point summaries."""

    def __init__(self, root=None):
        self.root = root if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        #: entries that existed but were unusable (truncated JSON,
        #: identity mismatch) — distinct from plain misses so operators
        #: can spot a cache being damaged rather than merely cold
        self.corrupt = 0
        self.stores = 0
        self.store_failures = 0

    def _path(self, key):
        # two-level fan-out keeps directories small on big sweeps
        return os.path.join(self.root, key[:2], key + ".json")

    def get(self, point):
        """The stored summary for ``point``, or None on miss/corruption.

        A missing (or unreadable) file is a plain miss; a file that
        exists but fails to parse, or whose stored identity does not
        match the requested point, counts as ``corrupt`` instead — both
        re-execute the point, but the report tells them apart.
        """
        path = self._path(point_key(point))
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except OSError:
            self.misses += 1
            return None
        except ValueError:
            self.corrupt += 1
            return None
        # guard against hash collisions and hand-edited files: the stored
        # identity must match the requested one exactly
        if not isinstance(entry, dict) or "summary" not in entry or \
                entry.get("point") != point.key_dict():
            self.corrupt += 1
            return None
        self.hits += 1
        return entry["summary"]

    def put(self, point, summary):
        """Persist a summary atomically; returns the entry path.

        An unwritable root (bad ``--cache-dir``, full disk) must not kill
        a long sweep after its results were computed, so write failures
        are swallowed and counted — the run simply isn't memoized.
        """
        path = self._path(point_key(point))
        directory = os.path.dirname(path)
        payload = json.dumps({"point": point.key_dict(),
                              "summary": summary}, sort_keys=True)
        try:
            os.makedirs(directory, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        except OSError:
            self.store_failures += 1
            return None
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            os.replace(tmp_path, path)
        except OSError:
            self.store_failures += 1
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            return None
        self.stores += 1
        return path

    def clear(self):
        """Delete every cache entry under the root; returns the count.

        Concurrent harness invocations may clear the same directory;
        losing an unlink race to another process just means the entry is
        already gone, so ``FileNotFoundError`` is not an error.
        """
        removed = 0
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                if name.endswith(".json"):
                    try:
                        os.unlink(os.path.join(dirpath, name))
                    except FileNotFoundError:
                        continue
                    removed += 1
        return removed

    def __repr__(self):
        return (f"ResultCache({self.root!r}, hits={self.hits}, "
                f"misses={self.misses}, corrupt={self.corrupt})")
