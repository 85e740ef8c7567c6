"""On-disk result cache for parameter sweeps.

A sweep task is a pure function of its keyword arguments, so its result
can be cached on disk and reused across processes and sessions.  The
cache key is a SHA-256 over three components:

* the task function's identity (``module.qualname``);
* the *canonicalized* parameters (see :func:`canonicalize`);
* the library version (``repro.__version__``), so any release — which
  may change simulation semantics — invalidates every prior entry.

Entries are pickle files under ``$REPRO_CACHE_DIR`` (default
``~/.cache/repro/sweeps``), written atomically via a temp file and
``os.replace`` so concurrent writers can never leave a torn entry.

Entries are *self-verifying*: the payload is prefixed with a header
carrying its SHA-256, so a truncated, bit-rotted or torn entry is
detected on read, **evicted** from disk (rather than poisoning every
future run with a crash or a silent wrong value), and counted — in
:attr:`ResultCache.evictions` and, when a metrics registry is attached,
in the ``cache.evictions`` counter.  A file without the header is
evicted the same way: the key hashes the library version, so no
release that wrote bare pickles can address an entry of this one.
Fleet campaign journals
(:mod:`repro.fleet.journal`) lean on this: a corrupt shard checkpoint
degrades to recomputing that shard, never to a crashed resume.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Callable, Optional, Tuple, Union

import numpy as np

from repro.traces.record import Trace
from repro.traces.store import StoredTrace

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Header magic for self-verifying entries: magic + hex SHA-256 of the
#: payload + newline, then the pickle payload itself.
_ENTRY_MAGIC = b"RPRC1\n"
_DIGEST_LEN = 64  # hex sha256


def default_cache_dir() -> Path:
    """The sweep cache location: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro/sweeps``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "sweeps"


def derive_seed(base_seed: int, index: int) -> int:
    """Deterministic, well-mixed per-task seed.

    Hash-derived (SHA-256 of ``base_seed:index``) rather than
    ``base_seed + index`` so neighbouring tasks get statistically
    independent streams; identical for a given (base, index) pair on
    every platform and process, which is what makes parallel sweeps
    reproducible.
    """
    digest = hashlib.sha256(f"{int(base_seed)}:{int(index)}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1  # non-negative int64


def canonicalize(obj: Any) -> Any:
    """Reduce ``obj`` to a stable, repr-hashable canonical form.

    The form must be identical for semantically identical parameters
    regardless of construction order or container identity:

    * dicts are sorted by key;
    * floats use ``float.hex`` (exact, round-trip safe);
    * NumPy arrays become ``(dtype, shape, sha256-of-bytes)`` so large
      trace vectors hash in one pass without repr'ing elements;
    * a :class:`~repro.traces.record.Trace` becomes its *content
      digest* (:meth:`Trace.digest`): two regenerated synthetic traces
      that share a name but not data get different keys, while the
      same data parsed, generated, or mapped from a trace store
      gets the same one — and the digest is memoised on the trace, so
      a 64-task sweep hashes its columns once, not 64 times;
    * objects are ``(qualified class name, canonicalized attributes)``,
      covering dataclasses like ``ScrubServiceModel`` and schedules.
    """
    if obj is None or isinstance(obj, (bool, int, str, bytes)):
        return obj
    if isinstance(obj, Trace):
        return ("trace", obj.digest())
    if isinstance(obj, StoredTrace):
        # Same form as an in-memory Trace with the same content: a task
        # keyed on a trace gets cache hits regardless of which
        # representation it was invoked with — and the stored digest
        # comes from the header, so no data is read at all.
        return ("trace", obj.digest())
    if isinstance(obj, float):
        return ("f", obj.hex())
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return ("f", float(obj).hex())
    if isinstance(obj, (list, tuple)):
        return ("seq", tuple(canonicalize(item) for item in obj))
    if isinstance(obj, dict):
        return (
            "map",
            tuple(sorted((str(k), canonicalize(v)) for k, v in obj.items())),
        )
    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj)
        digest = hashlib.sha256(data.tobytes()).hexdigest()
        return ("ndarray", str(data.dtype), data.shape, digest)
    if isinstance(obj, (set, frozenset)):
        return ("set", tuple(sorted(repr(canonicalize(item)) for item in obj)))
    if callable(obj) and hasattr(obj, "__qualname__"):
        return ("fn", getattr(obj, "__module__", ""), obj.__qualname__)
    state = getattr(obj, "__dict__", None)
    if state is not None:
        cls = type(obj)
        return ("obj", f"{cls.__module__}.{cls.__qualname__}", canonicalize(state))
    return ("repr", repr(obj))


class ResultCache:
    """Persistent (task function, params, version) -> result store.

    Parameters
    ----------
    root:
        Cache directory; default :func:`default_cache_dir`.
    version:
        Invalidation tag mixed into every key; defaults to the library
        version, so upgrading the library abandons stale entries
        in place (they are never read again).
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`;
        corrupt-entry evictions are counted in its ``cache.evictions``
        counters.
    """

    def __init__(
        self,
        root: Optional[Union[str, Path]] = None,
        version: Optional[str] = None,
        metrics=None,
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        if version is None:
            from repro import __version__ as version
        self.version = version
        self.hits = 0
        self.misses = 0
        #: Corrupt or truncated entries deleted from disk on read.
        self.evictions = 0
        self.metrics = metrics

    def key(self, fn: Callable, params: dict) -> str:
        """Cache key for calling ``fn(**params)`` under this version."""
        identity = (
            getattr(fn, "__module__", ""),
            getattr(fn, "__qualname__", repr(fn)),
            self.version,
            canonicalize(params),
        )
        return hashlib.sha256(repr(identity).encode()).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def _evict(self, path: Path, reason: str) -> None:
        """Delete a corrupt entry so it can never poison another run."""
        try:
            path.unlink()
        except OSError:
            pass
        self.evictions += 1
        if self.metrics is not None:
            self.metrics.counter("cache.evictions").inc()
            self.metrics.counter(f"cache.evictions.{reason}").inc()

    def get(self, key: str) -> Tuple[bool, Any]:
        """Return ``(hit, value)``; bad entries are evicted and miss.

        A load failure is always a miss, but it is also a *detection*:
        digest-mismatched (truncated, bit-flipped) and unpicklable
        entries are deleted on the spot and counted in
        :attr:`evictions` / the ``cache.evictions`` metrics counter,
        so corruption degrades to one recomputation instead of a crash
        or a stale read on every later run.
        """
        path = self._path(key)
        try:
            data = path.read_bytes()
        except OSError:
            self.misses += 1
            return False, None
        header = len(_ENTRY_MAGIC) + _DIGEST_LEN + 1
        payload = data[header:]
        recorded = data[len(_ENTRY_MAGIC):header - 1]
        if (
            not data.startswith(_ENTRY_MAGIC)
            or len(data) < header
            or hashlib.sha256(payload).hexdigest().encode() != recorded
        ):
            self._evict(path, "digest")
            self.misses += 1
            return False, None
        try:
            # A corrupted payload can make pickle raise nearly anything
            # (e.g. ValueError from a garbage opcode argument).
            value = pickle.loads(payload)
        except Exception:
            self._evict(path, "unpicklable")
            self.misses += 1
            return False, None
        self.hits += 1
        return True, value

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` atomically (temp file + ``os.replace``)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(payload).hexdigest().encode()
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(_ENTRY_MAGIC + digest + b"\n" + payload)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def clear(self) -> int:
        """Delete every entry; returns the number of entries removed."""
        removed = 0
        if not self.root.exists():
            return removed
        for entry in self.root.glob("*/*.pkl"):
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        return removed
