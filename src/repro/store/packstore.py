"""Persistent pre-packed database store (``repro.packstore.v1``).

The paper's contribution #4 is an indexed flat file that lets a PE
start computing without re-parsing FASTA; this module extends the idea
one conversion further.  Packing a database into SIMD lane batches and
building query profiles are the two conversions every engine repeats on
process start, and SWAPHI / CUDASW++-style systems amortize exactly
this cost across runs.  A :class:`PackStore` serializes the converted
artifacts once and lets every later process memory-map them back.

Layout of a store directory::

    DIR/
      store.json                 # {"schema": "repro.packstore.v1", "crc"}
      objects/
        <key>.json               # per-entry manifest, embedded crc
        <key>.residues.npy       # pack entries: consolidated arrays
        <key>.lengths.npy
        <key>.order.npy
        <key>.lane.npy           # per-subject lane and start row
        <key>.start.npy          # (absent from older entries)
        <key>.array.npy          # profile entries: one array

Entries are **content-addressed**: ``<key>`` is a SHA-256 over what
determines the artifact's bytes — the database's residue content, the
substitution matrix digest (score table + alphabet, see
:attr:`~repro.align.scoring.SubstitutionMatrix.digest`), and the shape
parameters (lane count, profile kind).  Names never enter the key, so
two same-named customs can never alias, and rebuilding an entry that
already exists is a no-op.

Integrity follows the ``durability/journal.py`` discipline: manifests
are canonical JSON with an embedded CRC-32 (via
:func:`~repro.durability.journal.encode_record`), each array file's
CRC-32 is recorded in its manifest, and every load re-verifies both by
default — a corrupt shard raises :class:`StoreError` loudly instead of
mis-scoring.  Writes are atomic (tmp file, fsync, ``os.replace``,
directory fsync): a crash mid-write leaves no manifest, so the
half-written entry is invisible.

Memory-mapping: packs are stored as flat consolidated arrays and each
:class:`~repro.align.intersequence.LanePack` is a contiguous reshaped
slice, so ``load_packs(..., mmap=True)`` hands the engines read-only
views straight over the page cache — byte-identical to freshly built
packs, without materializing them.

A pack entry's manifest lists each pack as ``[rows, lanes, subjects]``
and its arrays include the per-subject ``lane`` and ``start`` of the
streamed layout.  Entries written before lanes were streamed list
``[rows, lanes]`` and carry neither array: they load as one subject
per lane, which the sweep scores the same way, and the next
:meth:`PackStore.put_packs` of the same key (``repro db build``)
re-packs them streamed.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import zlib
from pathlib import Path
from typing import Iterator

import numpy as np

from ..align.intersequence import DEFAULT_LANES, LanePack, pack_database
from ..align.scoring import SubstitutionMatrix
from ..align.striped import StripedProfile
from ..durability.journal import JournalError, decode_record, encode_record
from ..sequences.database import SequenceDatabase

__all__ = [
    "PACKSTORE_SCHEMA",
    "StoreError",
    "PackStore",
    "build_store",
    "database_digest",
]

PACKSTORE_SCHEMA = "repro.packstore.v1"

#: Profile kinds the store can serialize: one query's each.  A batch
#: stacks its members' ``padded`` profiles, so it reads them here too.
STORABLE_PROFILE_KINDS = ("padded", "striped")

_CRC_CHUNK = 1 << 20

#: The :class:`LanePack` arrays a pack entry stores, one file each.
_PACK_FIELDS = ("residues", "lengths", "order", "lane", "start")


class StoreError(RuntimeError):
    """A store failed validation (corruption, schema or shape mismatch)."""


def database_digest(database: SequenceDatabase) -> str:
    """Content digest of a database's residues, in record order.

    Only residue content enters the digest — ids and descriptions do
    not affect pack bytes (hit identities come from the caller's
    in-memory database), and the residue→code mapping is covered by the
    matrix digest alongside this one in the entry key.
    """
    h = hashlib.sha256()
    h.update(str(len(database)).encode("ascii"))
    for record in database:
        h.update(b"\x1f")
        h.update(record.residues.encode("ascii"))
    return h.hexdigest()


def _entry_key(*parts: str) -> str:
    return hashlib.sha256("\x1f".join(parts).encode("utf-8")).hexdigest()


def _file_crc(path: Path) -> str:
    crc = 0
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(_CRC_CHUNK)
            if not chunk:
                break
            crc = zlib.crc32(chunk, crc)
    return format(crc, "08x")


def _fsync_directory(directory: Path) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _atomic_write(path: Path, blob: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(blob)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_directory(path.parent)


def _serialize_array(array: np.ndarray) -> tuple[bytes, str]:
    """``.npy`` bytes of *array* plus their CRC-32 (eight hex digits)."""
    buffer = io.BytesIO()
    np.save(buffer, np.ascontiguousarray(array))
    blob = buffer.getvalue()
    return blob, format(zlib.crc32(blob), "08x")


class PackStore:
    """Content-addressed on-disk tier under the pack/profile caches.

    Parameters
    ----------
    directory:
        The store root.  Must contain a valid ``store.json`` unless
        ``create=True``, in which case an empty store is initialised.
    mmap:
        Load arrays memory-mapped read-only (the warm-start path).
        ``False`` materializes copies instead.
    verify:
        Re-verify manifest and array CRCs on every load.  Leave on:
        this is what makes a corrupt shard fail loudly instead of
        mis-scoring, and a sequential CRC pass over the page cache is
        still far cheaper than re-packing.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        mmap: bool = True,
        verify: bool = True,
        create: bool = False,
    ):
        self.directory = Path(directory)
        self.mmap = bool(mmap)
        self.verify_on_load = bool(verify)
        self._objects = self.directory / "objects"
        marker = self.directory / "store.json"
        if create:
            self._objects.mkdir(parents=True, exist_ok=True)
            if not marker.exists():
                line = encode_record({"schema": PACKSTORE_SCHEMA})
                _atomic_write(marker, line.encode("utf-8") + b"\n")
        if not marker.exists():
            raise StoreError(
                f"{self.directory} is not a pack store (no store.json); "
                "create one with `repro db build`"
            )
        self._check_marker(marker)

    def _check_marker(self, marker: Path) -> None:
        try:
            record = decode_record(marker.read_text(encoding="utf-8"))
        except (OSError, JournalError) as exc:
            raise StoreError(f"unreadable store marker {marker}: {exc}")
        schema = record.get("schema")
        if schema != PACKSTORE_SCHEMA:
            raise StoreError(
                f"store schema {schema!r} is not {PACKSTORE_SCHEMA!r}; "
                "rebuild the store with this version"
            )

    # ------------------------------------------------------------------
    # Keys and paths
    # ------------------------------------------------------------------
    @staticmethod
    def packs_key(
        db_digest: str, matrix_digest: str, lanes: int
    ) -> str:
        return _entry_key("packs", db_digest, matrix_digest, str(int(lanes)))

    @staticmethod
    def profile_key(
        kind: str, codes_digest: str, matrix_digest: str, params: tuple
    ) -> str:
        return _entry_key(
            "profile",
            kind,
            codes_digest,
            matrix_digest,
            json.dumps(list(params)),
        )

    def _manifest_path(self, key: str) -> Path:
        return self._objects / f"{key}.json"

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def put_packs(
        self,
        database: SequenceDatabase,
        matrix: SubstitutionMatrix,
        lanes: int = DEFAULT_LANES,
    ) -> str:
        """Pack *database* and persist the batches; returns the key.

        Content addressing makes this idempotent: if the entry already
        exists the pack step is skipped entirely.  An entry written
        before lanes were streamed (no ``lane``/``start`` arrays) is
        re-packed in the streamed layout instead.
        """
        db_digest = database_digest(database)
        key = self.packs_key(db_digest, matrix.digest, lanes)
        manifest_path = self._manifest_path(key)
        if manifest_path.exists():
            if {"lane", "start"} <= self.read_manifest(key)["arrays"].keys():
                return key
            # Drop the old manifest first: a crash mid-rewrite then
            # leaves the entry absent, never old arrays mixed with new.
            manifest_path.unlink()
            _fsync_directory(self._objects)
        packs = tuple(pack_database(database, matrix, lanes=lanes))
        arrays = {}
        for field in _PACK_FIELDS:
            if packs:
                array = np.concatenate(
                    [getattr(p, field).ravel() for p in packs]
                )
            else:
                dtype = np.int16 if field == "residues" else np.int64
                array = np.zeros(0, dtype=dtype)
            filename = f"{key}.{field}.npy"
            blob, crc = _serialize_array(array)
            _atomic_write(self._objects / filename, blob)
            arrays[field] = {
                "file": filename,
                "dtype": str(array.dtype),
                "size": int(array.size),
                "crc": crc,
            }
        manifest = {
            "schema": PACKSTORE_SCHEMA,
            "kind": "packs",
            "key": key,
            "lanes": int(lanes),
            "pad_code": int(packs[0].pad_code)
            if packs
            else int(matrix.alphabet.size),
            "matrix": {"name": matrix.name, "digest": matrix.digest},
            "database": {
                "digest": db_digest,
                "records": len(database),
                "residues": int(database.total_residues),
                "name": database.name,
            },
            "packs": [
                [int(p.residues.shape[0]), int(p.residues.shape[1]),
                 len(p.order)]
                for p in packs
            ],
            "arrays": arrays,
        }
        self._write_manifest(key, manifest)
        return key

    def put_profile(
        self,
        kind: str,
        codes: bytes,
        matrix: SubstitutionMatrix,
        params: tuple,
        value,
    ) -> str:
        """Persist a query profile; returns the entry key.

        ``value`` is whatever the engine's builder produced: a plain
        ``ndarray`` for kind ``"padded"``, a :class:`StripedProfile`
        for kind ``"striped"``.
        """
        if kind not in STORABLE_PROFILE_KINDS:
            raise StoreError(f"profile kind {kind!r} is not storable")
        codes_digest = hashlib.sha256(codes).hexdigest()
        key = self.profile_key(kind, codes_digest, matrix.digest, params)
        if self._manifest_path(key).exists():
            return key
        if kind == "striped":
            array = value.scores
            meta = {
                "query_length": int(value.query_length),
                "lanes": int(value.lanes),
            }
        else:
            array = value
            meta = {}
        array = np.asarray(array)
        filename = f"{key}.array.npy"
        blob, crc = _serialize_array(array)
        _atomic_write(self._objects / filename, blob)
        manifest = {
            "schema": PACKSTORE_SCHEMA,
            "kind": "profile",
            "profile_kind": kind,
            "key": key,
            "codes_digest": codes_digest,
            "params": list(params),
            "meta": meta,
            "matrix": {"name": matrix.name, "digest": matrix.digest},
            "arrays": {
                "array": {
                    "file": filename,
                    "dtype": str(array.dtype),
                    "size": int(array.size),
                    "crc": crc,
                }
            },
            "array_shape": [int(n) for n in array.shape],
        }
        self._write_manifest(key, manifest)
        return key

    def _write_manifest(self, key: str, manifest: dict) -> None:
        line = encode_record(manifest)
        _atomic_write(
            self._manifest_path(key), line.encode("utf-8") + b"\n"
        )

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def get_packs(
        self,
        database: SequenceDatabase,
        matrix: SubstitutionMatrix,
        lanes: int,
    ) -> tuple[LanePack, ...] | None:
        """Load the packs for (*database*, *matrix*, *lanes*), or ``None``.

        ``None`` means the entry simply is not in the store (the caller
        falls back to packing in memory).  A *present but corrupt*
        entry raises :class:`StoreError` instead — the engines must
        refuse a bad shard, never silently rebuild over it.
        """
        key = self.packs_key(
            database_digest(database), matrix.digest, lanes
        )
        if not self._manifest_path(key).exists():
            return None
        return self.load_packs(key, mmap=self.mmap)

    def load_packs(
        self, key: str, mmap: bool | None = None
    ) -> tuple[LanePack, ...]:
        """Materialize the :class:`LanePack` batches of entry *key*."""
        manifest = self.read_manifest(key)
        if manifest.get("kind") != "packs":
            raise StoreError(f"entry {key} is not a pack entry")
        use_mmap = self.mmap if mmap is None else bool(mmap)
        # Entries written before lanes were streamed have no lane/start
        # arrays and one subject per lane.
        arrays = {
            field: self._load_array(manifest["arrays"][field], use_mmap)
            for field in _PACK_FIELDS
            if field in manifest["arrays"]
        }
        pad_code = int(manifest["pad_code"])
        packs = []
        flat_offset = 0
        subject_offset = 0
        for rows, lanes, *count in manifest["packs"]:
            subjects = count[0] if count else lanes
            span = rows * lanes
            per_subject = {
                field: array[subject_offset : subject_offset + subjects]
                for field, array in arrays.items()
                if field != "residues"
            }
            packs.append(
                LanePack(
                    residues=arrays["residues"][
                        flat_offset : flat_offset + span
                    ].reshape(rows, lanes),
                    pad_code=pad_code,
                    **per_subject,
                )
            )
            flat_offset += span
            subject_offset += subjects
        if flat_offset != arrays["residues"].size or any(
            subject_offset != array.size
            for field, array in arrays.items()
            if field != "residues"
        ):
            raise StoreError(
                f"entry {key}: pack shapes do not tile the stored arrays"
            )
        return tuple(packs)

    # --- perfbench/ span targets (perfbench/tracing.py is the only caller) ---
    # The removed screen's loader, kept so instrumenting it resolves.
    # Binned entries written by earlier versions (``"bins"`` in a pack
    # manifest) load through :meth:`load_packs`, which ignores the bins.
    from ..align.screening import (
        perfbench_placeholder as load_binned_packs,
    )
    # --- end of perfbench/ span targets ---

    def get_profile(
        self,
        kind: str,
        codes: bytes,
        matrix: SubstitutionMatrix,
        params: tuple,
    ):
        """Load a stored profile, or ``None`` when absent."""
        if kind not in STORABLE_PROFILE_KINDS:
            return None
        codes_digest = hashlib.sha256(codes).hexdigest()
        key = self.profile_key(kind, codes_digest, matrix.digest, params)
        if not self._manifest_path(key).exists():
            return None
        return self.load_profile(key)

    def load_profile(self, key: str):
        manifest = self.read_manifest(key)
        if manifest.get("kind") != "profile":
            raise StoreError(f"entry {key} is not a profile entry")
        array = self._load_array(manifest["arrays"]["array"], self.mmap)
        array = array.reshape(manifest["array_shape"])
        kind = manifest["profile_kind"]
        if kind == "striped":
            meta = manifest["meta"]
            return StripedProfile(
                scores=array,
                query_length=int(meta["query_length"]),
                lanes=int(meta["lanes"]),
            )
        return array

    def read_manifest(self, key: str) -> dict:
        path = self._manifest_path(key)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise StoreError(f"unreadable manifest {path}: {exc}")
        try:
            manifest = decode_record(text)
        except JournalError as exc:
            raise StoreError(f"corrupt manifest {path}: {exc}")
        if manifest.get("schema") != PACKSTORE_SCHEMA:
            raise StoreError(
                f"manifest {path} schema {manifest.get('schema')!r} "
                f"is not {PACKSTORE_SCHEMA!r}"
            )
        return manifest

    def _load_array(self, spec: dict, mmap: bool) -> np.ndarray:
        path = self._objects / spec["file"]
        if not path.exists():
            raise StoreError(f"missing array file {path}")
        if self.verify_on_load:
            crc = _file_crc(path)
            if crc != spec["crc"]:
                raise StoreError(
                    f"array {path} crc mismatch: recorded {spec['crc']}, "
                    f"computed {crc}"
                )
        if spec["size"] == 0:
            # numpy cannot memory-map a zero-length array; an empty
            # database legitimately stores empty arrays.
            empty = np.zeros(0, dtype=spec["dtype"])
            empty.setflags(write=False)
            return empty
        try:
            array = np.load(path, mmap_mode="r" if mmap else None)
        except Exception as exc:  # numpy raises ValueError/OSError
            raise StoreError(f"unloadable array {path}: {exc}")
        if str(array.dtype) != spec["dtype"] or array.size != spec["size"]:
            raise StoreError(
                f"array {path} shape drifted from its manifest: "
                f"{array.dtype}[{array.size}] != "
                f"{spec['dtype']}[{spec['size']}]"
            )
        array = array.reshape(-1)
        if not mmap:
            array = np.array(array)
        array.setflags(write=False)
        return array

    # ------------------------------------------------------------------
    # Inventory and verification
    # ------------------------------------------------------------------
    def keys(self) -> list[str]:
        if not self._objects.is_dir():
            return []
        return sorted(p.stem for p in self._objects.glob("*.json"))

    def entries(self) -> Iterator[dict]:
        """Validated manifests of every entry, sorted by key."""
        for key in self.keys():
            yield self.read_manifest(key)

    def verify(self) -> dict:
        """Re-check every manifest and array CRC; raises on the first bad.

        Returns a summary ``{"entries": n, "packs": p, "profiles": q}``
        for display by ``repro db verify``.
        """
        counts = {"entries": 0, "packs": 0, "profiles": 0}
        was_verifying = self.verify_on_load
        self.verify_on_load = True  # verify() always checks CRCs
        try:
            for manifest in self.entries():
                counts["entries"] += 1
                kind = manifest.get("kind")
                if kind == "packs":
                    counts["packs"] += 1
                    self.load_packs(manifest["key"], mmap=True)
                elif kind == "profile":
                    counts["profiles"] += 1
                    self.load_profile(manifest["key"])
                else:
                    raise StoreError(
                        f"entry {manifest.get('key')} has unknown kind "
                        f"{kind!r}"
                    )
        finally:
            self.verify_on_load = was_verifying
        return counts


def build_store(
    directory: str | os.PathLike,
    database: SequenceDatabase,
    matrix: SubstitutionMatrix,
    queries=None,
    lanes_list: tuple[int, ...] = (DEFAULT_LANES,),
    striped_lanes: tuple[int, ...] = (16, 8),
) -> PackStore:
    """Populate (or extend) the store at *directory* for one workload.

    Serializes the database's lane packs at every width in
    *lanes_list* (the inter-sequence engine's default is
    :data:`~repro.align.intersequence.DEFAULT_LANES`) and, when
    *queries* are given, each query's padded profile plus striped
    profiles at every width in *striped_lanes* (the SSE engine's
    8-bit/16-bit plan widths).  Content addressing makes every put
    idempotent, so re-building an unchanged workload is cheap.
    """
    from ..align.intersequence import _padded_profile

    store = PackStore(directory, create=True)
    for lanes in lanes_list:
        store.put_packs(database, matrix, lanes=lanes)
    for query in queries or ():
        codes = matrix.alphabet.encode(query.residues)
        key = codes.tobytes()
        store.put_profile(
            "padded", key, matrix, (), _padded_profile(codes, matrix)
        )
        if not len(codes):
            continue  # the striped engine never profiles an empty query
        for lanes in striped_lanes:
            store.put_profile(
                "striped",
                key,
                matrix,
                (int(lanes),),
                StripedProfile.build(codes, matrix, lanes=lanes),
            )
    return store
