"""Bounded operator cache shared by the simulation engine.

Protocols repeatedly rebuild identical operators: the SWAP projector of a
fixed register dimension, the right-end accept operator of a fingerprint
string, the exact chain acceptance operator of a soundness sweep.  The
:class:`OperatorCache` memoizes them under hashable keys (by convention a
tuple starting with a kind tag and including the owning scheme/protocol
object, which keeps the key unambiguous across instances).

Cached arrays are frozen copies (``writeable = False``) so that a cache hit
can be returned without a defensive copy and the caller's own array stays
both mutable and decoupled from the cache; callers that need a mutable
array from a hit must copy explicitly.

For warm-start execution the cache round-trips through an
:class:`OperatorPack`: :meth:`OperatorCache.export_pack` snapshots the
frozen array entries under a content digest, and
:meth:`OperatorCache.preload` seeds another cache (typically a fresh pool
worker's) from the pack without charging misses — preloaded entries and the
hits they later serve are counted separately (``preloaded``/``pack_hits``),
so merged worker stats can show exactly how much re-warming the pack saved.
"""

from __future__ import annotations

import hashlib
import pickle
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Optional, Tuple

import numpy as np

from repro.engine.array_ops import to_host


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counters of an :class:`OperatorCache`.

    ``preloaded`` counts entries seeded from an :class:`OperatorPack`
    (inserted without a miss); ``pack_hits`` counts the subset of ``hits``
    served by those preloaded entries.
    """

    hits: int
    misses: int
    entries: int
    evictions: int
    preloaded: int = 0
    pack_hits: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        """Plain-dict form for benchmark metadata / JSON exports."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": self.entries,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
            "preloaded": self.preloaded,
            "pack_hits": self.pack_hits,
        }


def _pack_digest(entries: Tuple[Tuple[Hashable, Any], ...]) -> str:
    """Content digest of a pack payload (stable across pickling).

    The digest covers the array payloads (dtype, shape, raw bytes) plus the
    entry count and order — array bytes survive a pickle round trip exactly,
    so a worker can re-verify the digest after transport.  Keys are excluded:
    they may contain protocol objects whose serialization is not canonical.
    """
    digest = hashlib.sha256()
    digest.update(str(len(entries)).encode())
    for index, (_, value) in enumerate(entries):
        digest.update(str(index).encode())
        if isinstance(value, np.ndarray):
            digest.update(str(value.dtype).encode())
            digest.update(str(value.shape).encode())
            digest.update(np.ascontiguousarray(value).tobytes())
        else:
            digest.update(repr(value).encode())
    return digest.hexdigest()


@dataclass(frozen=True)
class OperatorPack:
    """A read-only snapshot of cache entries, shippable to pool workers.

    ``entries`` holds ``(key, frozen ndarray)`` pairs in the source cache's
    recency order (least recent first); ``digest`` is the content digest of
    the payload, re-verified by :meth:`OperatorCache.preload` so a corrupted
    or hand-edited pack is rejected instead of silently poisoning a worker's
    cache.  ``source`` names the exporting process (worker token or
    ``"parent"``) for stats attribution.
    """

    entries: Tuple[Tuple[Hashable, Any], ...]
    digest: str
    source: str = "parent"

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def nbytes(self) -> int:
        """Total payload size of the packed arrays, in bytes."""
        return sum(
            value.nbytes for _, value in self.entries if isinstance(value, np.ndarray)
        )


class OperatorCache:
    """A bounded LRU cache for numpy operators and other immutable values."""

    def __init__(self, max_entries: int = 512):
        if max_entries <= 0:
            raise ValueError("cache must allow at least one entry")
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._preloaded_keys: set = set()
        self._preloaded = 0
        self._pack_hits = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    @staticmethod
    def _freeze(value: Any) -> Any:
        # Freeze a *copy*, never the caller's array: flipping ``writeable``
        # on the argument itself would silently freeze an array the caller
        # still owns, and a frozen view would share the buffer — letting the
        # caller mutate the cached entry through its own reference after
        # insertion.  The copy costs one allocation per miss; the hit path
        # stays copy-free.  Device-resident arrays (torch tensors, mock
        # device arrays) are pulled back to host numpy first: cached
        # operators and exported packs are always plain host-side arrays,
        # whichever backend built them.
        value = to_host(value)
        if isinstance(value, np.ndarray):
            frozen = value.copy()
            frozen.setflags(write=False)
            return frozen
        return value

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached value, or ``None``; updates the hit/miss counters."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self._hits += 1
            if key in self._preloaded_keys:
                self._pack_hits += 1
            return self._entries[key]
        self._misses += 1
        return None

    def put(self, key: Hashable, value: Any) -> Any:
        """Insert (or refresh) a value, evicting the least recently used entry.

        Returns the stored (frozen) value, so a miss hands out the same
        read-only object every later hit will.
        """
        frozen = self._freeze(value)
        # An explicit insert supersedes a pack-provided entry: later hits on
        # this key describe locally built work, not pack savings.
        self._preloaded_keys.discard(key)
        self._entries[key] = frozen
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            evicted, _ = self._entries.popitem(last=False)
            self._preloaded_keys.discard(evicted)
            self._evictions += 1
        return frozen

    def get_or_build(self, key: Hashable, builder: Callable[[], Any]) -> Any:
        """The cached value for ``key``, building and inserting it on a miss."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self._hits += 1
            if key in self._preloaded_keys:
                self._pack_hits += 1
            return self._entries[key]
        self._misses += 1
        return self.put(key, builder())

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        self._entries.clear()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._preloaded_keys.clear()
        self._preloaded = 0
        self._pack_hits = 0

    # -- operator packs ------------------------------------------------------

    def export_pack(self, source: str = "parent") -> OperatorPack:
        """Snapshot the array entries as a shippable :class:`OperatorPack`.

        Only ``ndarray`` values with picklable keys are packed (the pack
        crosses process boundaries); entries ride in recency order so a
        preloading cache inherits the exporter's LRU ordering.  The packed
        arrays are the cache's own frozen entries — no copies; the pack is
        read-only by construction.
        """
        entries = []
        for key, value in self._entries.items():
            if not isinstance(value, np.ndarray):
                continue
            try:
                pickle.dumps(key)
            except Exception:
                continue  # unpicklable key: not shippable, skip
            entries.append((key, value))
        packed = tuple(entries)
        return OperatorPack(entries=packed, digest=_pack_digest(packed), source=source)

    def preload(self, pack: OperatorPack) -> int:
        """Seed this cache from a pack; returns the number of entries adopted.

        The pack's content digest is re-verified first — a corrupted pack
        raises ``ValueError`` instead of poisoning the cache.  Entries whose
        key is already present are skipped (local work wins); adopted
        entries are counted in ``preloaded`` (not as misses) and the hits
        they later serve are tracked as ``pack_hits``.  Adoption stops at
        ``max_entries`` so a pack can never evict local entries.
        """
        if _pack_digest(pack.entries) != pack.digest:
            raise ValueError(
                "operator pack digest mismatch: pack content was corrupted in transit"
            )
        adopted = 0
        for key, value in pack.entries:
            if key in self._entries:
                continue
            if len(self._entries) >= self.max_entries:
                break
            if isinstance(value, np.ndarray):
                if value.flags.writeable:
                    # Pickling does not preserve the writeable flag; re-freeze
                    # (the unpickled array is exclusively ours, so in place).
                    value.setflags(write=False)
            self._entries[key] = value
            self._preloaded_keys.add(key)
            adopted += 1
        self._preloaded += adopted
        return adopted

    def stats(self) -> CacheStats:
        """A snapshot of the cache counters (surfaced in benchmark metadata)."""
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            entries=len(self._entries),
            evictions=self._evictions,
            preloaded=self._preloaded,
            pack_hits=self._pack_hits,
        )
