"""Process-wide pack/profile caches for the serving hot path.

The paper's task model is one query × whole database, so a naive engine
re-packs the database and rebuilds the query profile for every task.
CUDASW++ 2.0 and SWAPHI amortize exactly this conversion cost across
queries; this module gives the numpy engines the same lever:

* :class:`KeyedLRU` — a small thread-safe LRU with hit/miss/eviction
  accounting, optionally bound to the run's
  :class:`~repro.observability.MetricsRegistry` (``cache_*`` families,
  labelled by cache name);
* :class:`PackCache` — memoizes the length-sorted :class:`LanePack`
  batches of a database conversion, keyed by database identity and
  shape (see ``docs/robustness.md`` for the key-semantics discussion);
* :class:`ProfileCache` — memoizes query profiles (striped or padded),
  content-addressed by the query's residue codes so equal sequences
  share an entry regardless of object identity.

Both caches key on :attr:`SubstitutionMatrix.digest` — a content hash
of the score table — never on ``matrix.name``, so two distinct customs
sharing a display name cannot alias one entry and return wrong scores.

Either cache can be backed by a :class:`~repro.store.PackStore` disk
tier (``store=``): an LRU miss consults the store before rebuilding, so
a warm-started process memory-maps previously serialized packs instead
of re-packing.  The store is a read-only tier here — population happens
explicitly via ``repro db build`` — and a corrupt store entry raises
rather than falling back, so disk rot is loud.

Cached arrays are frozen (``setflags(write=False)``) so a buggy kernel
that tries to mutate shared state trips immediately instead of
corrupting later searches — the cache-correctness tests rely on this.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable, TypeVar

from ..align.intersequence import LanePack, pack_database
from ..align.scoring import SubstitutionMatrix
from ..sequences.database import SequenceDatabase

# --- perfbench/ span targets (perfbench/tracing.py is the only caller) ---
# The removed screen's pack builder, kept so instrumenting it resolves.
from ..align.screening import (  # noqa: F401
    perfbench_placeholder as pack_database_binned,
)
# --- end of perfbench/ span targets ---

__all__ = [
    "KeyedLRU",
    "PackCache",
    "ProfileCache",
    "default_pack_cache",
    "default_profile_cache",
]

V = TypeVar("V")


class KeyedLRU:
    """Thread-safe keyed LRU with hit/miss/eviction accounting.

    Counts are always kept locally (so tests can assert without a
    registry); :meth:`bind` additionally mirrors every increment into
    the supplied registry's ``cache_*`` metric families.
    """

    def __init__(self, capacity: int, name: str = "lru") -> None:
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = int(capacity)
        self.name = name
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self._lock = threading.Lock()
        self._instruments = None

    def bind(self, registry) -> None:
        """Mirror future hits/misses/evictions into *registry*."""
        from ..observability.conventions import cache_instruments

        with self._lock:
            self._instruments = cache_instruments(registry)
            self._instruments.entries.labels(cache=self.name).set(
                len(self._entries)
            )

    def unbind(self) -> None:
        with self._lock:
            self._instruments = None

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            if self._instruments is not None:
                self._instruments.entries.labels(cache=self.name).set(0)

    def get_or_build(self, key: Hashable, builder: Callable[[], V]) -> V:
        """Return the cached value for *key*, building it on a miss.

        The builder runs outside the lock (conversions are slow); two
        threads may race to build the same entry, in which case the
        first insert wins and the loser's work is discarded.
        """
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                pass
            else:
                self._entries.move_to_end(key)
                self.hits += 1
                if self._instruments is not None:
                    self._instruments.hits.labels(cache=self.name).inc()
                return value  # type: ignore[return-value]
            self.misses += 1
            if self._instruments is not None:
                self._instruments.misses.labels(cache=self.name).inc()
        value = builder()
        with self._lock:
            if key not in self._entries:
                self._entries[key] = value
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self.evictions += 1
                    if self._instruments is not None:
                        self._instruments.evictions.labels(
                            cache=self.name
                        ).inc()
            else:
                value = self._entries[key]  # a racing build won
                self._entries.move_to_end(key)
            if self._instruments is not None:
                self._instruments.entries.labels(cache=self.name).set(
                    len(self._entries)
                )
        return value  # type: ignore[return-value]


def _freeze_pack(pack: LanePack) -> LanePack:
    """Make a pack's arrays read-only before sharing across searches."""
    for array in (pack.residues, pack.lengths, pack.order):
        array.setflags(write=False)
    return pack


class PackCache:
    """Memoized database → :class:`LanePack` conversions.

    Keyed by database identity *and* shape — ``(id(database),
    len(database), total_residues, matrix.digest, lanes)`` — with a
    strong reference to the database held in the entry so the ``id()``
    can never be recycled while its packs are resident.  A database
    mutated in place would defeat the key; :class:`SequenceDatabase`
    fixes its records at construction, which is what makes this safe.
    The matrix enters the key by content digest, not display name.
    """

    def __init__(
        self, capacity: int = 8, name: str = "pack", store=None
    ) -> None:
        self._lru = KeyedLRU(capacity, name=name)
        self.store = store

    @property
    def lru(self) -> KeyedLRU:
        return self._lru

    def bind(self, registry) -> None:
        self._lru.bind(registry)

    def unbind(self) -> None:
        self._lru.unbind()

    def clear(self) -> None:
        self._lru.clear()

    def packs(
        self,
        database: SequenceDatabase,
        matrix: SubstitutionMatrix,
        lanes: int,
    ) -> tuple[LanePack, ...]:
        key = (
            id(database),
            len(database),
            database.total_residues,
            matrix.digest,
            int(lanes),
        )

        def build() -> tuple[SequenceDatabase, tuple[LanePack, ...]]:
            packs = None
            if self.store is not None:
                # Disk tier: mmap previously serialized packs.  The
                # store returns None only when the entry is absent; a
                # corrupt entry raises instead of rebuilding silently.
                packs = self.store.get_packs(database, matrix, lanes)
            if packs is None:
                packs = tuple(
                    _freeze_pack(p)
                    for p in pack_database(database, matrix, lanes=lanes)
                )
            # Keep the database alive alongside its packs: the id() in
            # the key stays valid exactly as long as the entry does.
            return (database, packs)

        return self._lru.get_or_build(key, build)[1]


class ProfileCache:
    """Memoized query profiles, content-addressed by residue codes.

    The key embeds the query's coded residues (``codes.tobytes()``),
    the matrix's content digest and every shape parameter of the
    profile, so two :class:`~repro.sequences.records.Sequence` objects
    with equal residues share one entry and a near-miss (different
    matrix, lane count or cap) can never alias.
    """

    def __init__(
        self, capacity: int = 256, name: str = "profile", store=None
    ) -> None:
        self._lru = KeyedLRU(capacity, name=name)
        self.store = store

    @property
    def lru(self) -> KeyedLRU:
        return self._lru

    def bind(self, registry) -> None:
        self._lru.bind(registry)

    def unbind(self) -> None:
        self._lru.unbind()

    def clear(self) -> None:
        self._lru.clear()

    def get_or_build(
        self,
        kind: str,
        codes_key: bytes,
        matrix: SubstitutionMatrix,
        params: tuple,
        builder: Callable[[], V],
    ) -> V:
        key = (kind, codes_key, matrix.digest, params)
        if self.store is None or not isinstance(codes_key, bytes):
            # "multi" profiles key on tuples of codes; those composites
            # stay in-memory only.
            return self._lru.get_or_build(key, builder)

        def tiered():
            value = self.store.get_profile(kind, codes_key, matrix, params)
            return value if value is not None else builder()

        return self._lru.get_or_build(key, tiered)


_DEFAULT_PACK_CACHE = PackCache()
_DEFAULT_PROFILE_CACHE = ProfileCache()


def default_pack_cache() -> PackCache:
    """The process-wide pack cache shared by cache-enabled engines."""
    return _DEFAULT_PACK_CACHE


def default_profile_cache() -> ProfileCache:
    """The process-wide profile cache shared by cache-enabled engines."""
    return _DEFAULT_PROFILE_CACHE
