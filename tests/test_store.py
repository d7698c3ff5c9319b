"""Tests for the persistent pack store (``repro.packstore.v1``).

Covers the content-addressing contract (names never alias, equal
content deduplicates), byte-identity of round-tripped packs and
profiles, mmap read-only semantics, the two-tier cache integration,
and — mirroring ``test_durability.py`` — hypothesis corruption
properties: any bit flip or truncation of a manifest or array file
must fail loudly (:class:`StoreError`), and a store-backed engine must
refuse a bad shard rather than mis-score.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import BLOSUM50, BLOSUM62, DEFAULT_GAPS
from repro.align.intersequence import pack_database
from repro.align.scoring import SubstitutionMatrix
from repro.align.striped import StripedProfile
from repro.core import InterSequenceEngine, PackCache, ProfileCache, StripedSSEEngine
from repro.sequences import (
    Sequence,
    SequenceDatabase,
    random_database,
    random_sequence,
)
from repro.store import (
    PACKSTORE_SCHEMA,
    PackStore,
    StoreError,
    build_store,
    database_digest,
)


def make_workload(seed: int = 7, records: int = 14):
    rng = np.random.default_rng(seed)
    database = random_database(records, 36.0, rng, name="store-db")
    query = random_sequence(28, rng, seq_id="q0")
    return query, database


def renamed_matrix(matrix, delta: int = 0):
    """A same-name clone of *matrix*, optionally with shifted scores."""
    scores = matrix.scores.copy()
    if delta:
        scores = scores + np.asarray(delta, dtype=scores.dtype)
    return SubstitutionMatrix(
        name=matrix.name, alphabet=matrix.alphabet, scores=scores
    )


# ----------------------------------------------------------------------
# Content addressing
# ----------------------------------------------------------------------
class TestDigests:
    def test_matrix_digest_is_content_not_name(self):
        same = renamed_matrix(BLOSUM62)
        assert same.name == BLOSUM62.name
        assert same.digest == BLOSUM62.digest

    def test_same_name_different_scores_differ(self):
        """Regression: two customs both named BLOSUM62 must not alias."""
        imposter = renamed_matrix(BLOSUM62, delta=1)
        assert imposter.name == BLOSUM62.name
        assert imposter.digest != BLOSUM62.digest

    def test_distinct_matrices_differ(self):
        assert BLOSUM62.digest != BLOSUM50.digest

    def test_digest_is_cached(self):
        matrix = renamed_matrix(BLOSUM62)
        first = matrix.digest
        assert matrix.digest is first  # memoized on the frozen instance

    def test_database_digest_covers_residues_only(self):
        _, database = make_workload()
        relabeled = SequenceDatabase(
            [
                Sequence(
                    id=f"renamed{i}",
                    residues=rec.residues,
                    alphabet=rec.alphabet,
                )
                for i, rec in enumerate(database)
            ],
            name="other-name",
        )
        assert database_digest(relabeled) == database_digest(database)

    def test_database_digest_sees_content_changes(self):
        _, database = make_workload()
        mutated = SequenceDatabase(
            [rec for rec in database][:-1], name=database.name
        )
        assert database_digest(mutated) != database_digest(database)


# ----------------------------------------------------------------------
# Round trip
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_packs_byte_identical(self, tmp_path):
        _, database = make_workload()
        store = PackStore(tmp_path / "s", create=True)
        store.put_packs(database, BLOSUM62, lanes=8)
        fresh = tuple(pack_database(database, BLOSUM62, lanes=8))
        loaded = store.get_packs(database, BLOSUM62, lanes=8)
        assert loaded is not None and len(loaded) == len(fresh)
        for built, back in zip(fresh, loaded):
            assert back.residues.tobytes() == built.residues.tobytes()
            assert back.lengths.tobytes() == built.lengths.tobytes()
            assert back.order.tobytes() == built.order.tobytes()
            assert back.pad_code == built.pad_code
            assert back.residues.shape == built.residues.shape

    @pytest.mark.parametrize("mmap", [True, False])
    def test_loaded_arrays_are_read_only(self, tmp_path, mmap):
        _, database = make_workload()
        store = PackStore(tmp_path / "s", mmap=mmap, create=True)
        store.put_packs(database, BLOSUM62, lanes=8)
        (pack, *_rest) = store.get_packs(database, BLOSUM62, lanes=8)
        for array in (pack.residues, pack.lengths, pack.order):
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 0

    def test_profile_round_trip(self, tmp_path):
        query, _ = make_workload()
        codes = BLOSUM62.alphabet.encode(query.residues)
        key = codes.tobytes()
        store = PackStore(tmp_path / "s", create=True)
        striped = StripedProfile.build(codes, BLOSUM62, lanes=16)
        store.put_profile("striped", key, BLOSUM62, (16,), striped)
        back = store.get_profile("striped", key, BLOSUM62, (16,))
        assert isinstance(back, StripedProfile)
        assert back.query_length == striped.query_length
        assert back.lanes == striped.lanes
        assert back.scores.tobytes() == striped.scores.tobytes()

    def test_padded_profile_round_trip(self, tmp_path):
        from repro.align.intersequence import _padded_profile

        query, _ = make_workload()
        codes = BLOSUM62.alphabet.encode(query.residues)
        store = PackStore(tmp_path / "s", create=True)
        padded = _padded_profile(codes, BLOSUM62)
        store.put_profile("padded", codes.tobytes(), BLOSUM62, (), padded)
        back = store.get_profile("padded", codes.tobytes(), BLOSUM62, ())
        assert back.tobytes() == np.asarray(padded).tobytes()
        assert back.shape == np.asarray(padded).shape

    def test_multi_profiles_never_stored(self, tmp_path):
        store = PackStore(tmp_path / "s", create=True)
        with pytest.raises(StoreError, match="not storable"):
            store.put_profile("multi", b"x", BLOSUM62, (), object())
        assert store.get_profile("multi", b"x", BLOSUM62, ()) is None

    def test_empty_database(self, tmp_path):
        empty = SequenceDatabase([], name="void")
        store = PackStore(tmp_path / "s", create=True)
        store.put_packs(empty, BLOSUM62, lanes=8)
        assert store.get_packs(empty, BLOSUM62, lanes=8) == ()
        assert store.verify()["packs"] == 1

    def test_put_is_idempotent(self, tmp_path):
        _, database = make_workload()
        store = PackStore(tmp_path / "s", create=True)
        key = store.put_packs(database, BLOSUM62, lanes=8)
        manifest = store._manifest_path(key)
        stamp = manifest.stat().st_mtime_ns
        assert store.put_packs(database, BLOSUM62, lanes=8) == key
        assert manifest.stat().st_mtime_ns == stamp  # nothing rewritten

    def test_absent_entry_is_none_not_error(self, tmp_path):
        _, database = make_workload()
        store = PackStore(tmp_path / "s", create=True)
        assert store.get_packs(database, BLOSUM62, lanes=8) is None

    def test_same_name_matrices_get_distinct_entries(self, tmp_path):
        """Regression: the store key must include the score content."""
        _, database = make_workload()
        imposter = renamed_matrix(BLOSUM62, delta=2)
        store = PackStore(tmp_path / "s", create=True)
        a = store.put_packs(database, BLOSUM62, lanes=8)
        b = store.put_packs(database, imposter, lanes=8)
        assert a != b
        assert store.verify()["packs"] == 2

    def test_not_a_store_rejected(self, tmp_path):
        with pytest.raises(StoreError, match="repro db build"):
            PackStore(tmp_path / "nothing-here")

    def test_foreign_schema_rejected(self, tmp_path):
        root = tmp_path / "s"
        PackStore(root, create=True)
        from repro.durability.journal import encode_record

        (root / "store.json").write_text(
            encode_record({"schema": "someone.elses.v9"}) + "\n"
        )
        with pytest.raises(StoreError, match="schema"):
            PackStore(root)


# ----------------------------------------------------------------------
# Two-tier caching and engines
# ----------------------------------------------------------------------
class TestStoreBackedCaches:
    def test_pack_cache_miss_served_from_store(self, tmp_path):
        _, database = make_workload()
        store = PackStore(tmp_path / "s", create=True)
        store.put_packs(database, BLOSUM62, lanes=8)
        cache = PackCache(capacity=4, name="tier", store=store)
        packs = cache.packs(database, BLOSUM62, lanes=8)
        fresh = tuple(pack_database(database, BLOSUM62, lanes=8))
        assert [p.residues.tobytes() for p in packs] == [
            p.residues.tobytes() for p in fresh
        ]
        # Second call is an in-memory hit on the same objects.
        assert cache.packs(database, BLOSUM62, lanes=8) is packs

    def test_profile_cache_miss_served_from_store(self, tmp_path):
        query, _ = make_workload()
        codes = BLOSUM62.alphabet.encode(query.residues)
        key = codes.tobytes()
        store = PackStore(tmp_path / "s", create=True)
        striped = StripedProfile.build(codes, BLOSUM62, lanes=16)
        store.put_profile("striped", key, BLOSUM62, (16,), striped)
        cache = ProfileCache(capacity=4, name="tier-p", store=store)
        got = cache.get_or_build(
            "striped", key, BLOSUM62, (16,),
            lambda: pytest.fail("store hit should skip the builder"),
        )
        assert got.scores.tobytes() == striped.scores.tobytes()

    def test_cache_falls_back_to_builder_when_absent(self, tmp_path):
        _, database = make_workload()
        store = PackStore(tmp_path / "s", create=True)  # empty store
        cache = PackCache(capacity=4, name="fallback", store=store)
        packs = cache.packs(database, BLOSUM62, lanes=8)
        fresh = tuple(pack_database(database, BLOSUM62, lanes=8))
        assert [p.residues.tobytes() for p in packs] == [
            p.residues.tobytes() for p in fresh
        ]

    @pytest.mark.parametrize("engine_cls", [InterSequenceEngine,
                                            StripedSSEEngine])
    def test_warm_engine_matches_cold(self, tmp_path, engine_cls):
        query, database = make_workload()
        build_store(tmp_path / "s", database, BLOSUM62, queries=[query])
        cold = engine_cls(BLOSUM62, DEFAULT_GAPS, top=8)
        warm = engine_cls(BLOSUM62, DEFAULT_GAPS, top=8,
                          store=str(tmp_path / "s"))
        expected = [(h.subject_index, h.score) for h in
                    cold.search(query, database)]
        for _ in range(2):
            got = [(h.subject_index, h.score) for h in
                   warm.search(query, database)]
            assert got == expected

    def test_engine_store_param_builds_private_caches(self, tmp_path):
        from repro.core.caching import default_pack_cache

        _, database = make_workload()
        build_store(tmp_path / "s", database, BLOSUM62)
        engine = InterSequenceEngine(
            BLOSUM62, DEFAULT_GAPS, store=str(tmp_path / "s")
        )
        assert engine.pack_cache is not None
        assert engine.pack_cache is not default_pack_cache()
        assert engine.pack_cache.store is not None


class TestInt64ProfileCompatibility:
    """Stores written before the sweep narrowed its state still search.

    ``repro.packstore.v1`` stores ``padded`` profiles as int64
    ``(A+1, m)`` arrays whose pad row and pad positions hold ``-2**40``.
    The sweep narrows a profile to its int16/int32 state on entry, so a
    warm search through such a store must give a cold search's hits,
    byte for byte: one query runs in int16 and one in int32.
    """

    def test_warm_search_through_int64_profiles(self, tmp_path, monkeypatch):
        import dataclasses
        import json

        from repro.align.intersequence import DEFAULT_LANES
        from repro.core import engines

        rng = np.random.default_rng(11)
        database = random_database(24, 120.0, rng, name="compat-db")
        queries = [
            random_sequence(n, rng, seq_id=f"q{n}") for n in (40, 700)
        ]
        store = PackStore(tmp_path / "s", create=True)
        store.put_packs(database, BLOSUM62, lanes=DEFAULT_LANES)
        for query in queries:
            codes = BLOSUM62.alphabet.encode(query.residues)
            padded = np.full(
                (BLOSUM62.alphabet.size + 1, len(codes)), -(1 << 40),
                dtype=np.int64,
            )
            padded[:-1] = BLOSUM62.profile_for(codes)
            store.put_profile("padded", codes.tobytes(), BLOSUM62, (), padded)
            back = store.get_profile("padded", codes.tobytes(), BLOSUM62, ())
            assert back.dtype == np.int64
            assert back.tobytes() == padded.tobytes()

        def hits_bytes(engine):
            return json.dumps([
                [dataclasses.asdict(hit) for hit in engine.search(q, database)]
                for q in queries
            ]).encode()

        cold = hits_bytes(InterSequenceEngine(BLOSUM62, DEFAULT_GAPS, top=10))

        def no_build(*args):
            raise AssertionError("a warm search reads the stored profile")

        monkeypatch.setattr(engines, "_padded_profile", no_build)
        warm = InterSequenceEngine(
            BLOSUM62, DEFAULT_GAPS, top=10, store=str(tmp_path / "s")
        )
        assert hits_bytes(warm) == cold


def _add_binned_entry(store, database, lanes=4, bin_width=4):
    """Write a pack entry in the binned format of earlier versions.

    Those versions stored the removed screen's length-binned packs as
    kind ``"packs"`` manifests keyed ``"packs-binned"``: the lane packs'
    geometry plus ``bin_width`` and each pack's ``[lo, hi)`` length bin.
    This re-keys a ``put_packs`` entry into that shape and re-encodes
    its manifest, so its arrays and CRCs are real.  Returns the key.
    """
    from repro.durability.journal import encode_record
    from repro.store.packstore import _entry_key

    plain = store.put_packs(database, BLOSUM62, lanes=lanes)
    bins = [
        [int(pack.lengths.min()) // bin_width * bin_width,
         (int(pack.lengths.max()) // bin_width + 1) * bin_width]
        for pack in store.load_packs(plain, mmap=False)
    ]
    manifest = store.read_manifest(plain)
    key = _entry_key("packs-binned", database_digest(database),
                     BLOSUM62.digest, str(lanes), str(bin_width))
    for spec in manifest["arrays"].values():
        new_file = spec["file"].replace(plain, key)
        (store._objects / spec["file"]).rename(store._objects / new_file)
        spec["file"] = new_file
    (store._objects / f"{plain}.json").unlink()
    manifest.update(key=key, bin_width=bin_width, bins=bins)
    (store._objects / f"{key}.json").write_text(
        encode_record(manifest) + "\n", encoding="utf-8"
    )
    return key


class TestBinnedStoreCompatibility:
    """A store holding the removed screen's binned packs still serves.

    ``db build --screen-lanes`` used to add such entries; ``verify``
    loads them as plain pack entries, and a warm search reads only the
    plain lane packs beside them.
    """

    @staticmethod
    def _store(tmp_path):
        from repro.sequences import query_set, write_fasta

        rng = np.random.default_rng(23)
        database = random_database(30, 40.0, rng, name="binned-db")
        queries = query_set(3, rng, 20, 40)
        write_fasta(database, tmp_path / "db.fasta")
        write_fasta(queries, tmp_path / "q.fasta")
        root = tmp_path / "s"
        store = build_store(root, database, BLOSUM62, queries=queries)
        key = _add_binned_entry(store, database)
        return store, key

    def test_verify_and_warm_search(self, tmp_path, capsys):
        from repro.cli import main

        store, key = self._store(tmp_path)
        assert "bins" in store.read_manifest(key)
        assert store.verify() == {"entries": 11, "packs": 2, "profiles": 9}
        assert main(["db", "verify", str(store.directory)]) == 0
        assert main(["db", "inspect", str(store.directory)]) == 0
        capsys.readouterr()

        def hits(*extra):
            assert main(["search", str(tmp_path / "q.fasta"),
                         str(tmp_path / "db.fasta"), "--top", "5",
                         *extra]) == 0
            return [line for line in capsys.readouterr().out.splitlines()
                    if not line.startswith("# makespan")]

        cold = hits()
        assert hits("--store", str(store.directory)) == cold
        assert hits("--batch", "3", "--store", str(store.directory)) == cold

    def test_corrupt_binned_array_fails_verify(self, tmp_path, capsys):
        from repro.cli import main

        store, key = self._store(tmp_path)
        _flip_byte(store._objects / f"{key}.residues.npy", 100)
        with pytest.raises(StoreError, match=key):
            store.verify()
        assert main(["db", "verify", str(store.directory)]) == 1
        assert "FAILED" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Corruption properties (mirrors test_durability.py)
# ----------------------------------------------------------------------
def _built_store(root):
    query, database = make_workload()
    store = build_store(root, database, BLOSUM62, queries=[query])
    return store, query, database


def _flip_byte(path, offset: int) -> None:
    data = bytearray(path.read_bytes())
    offset = offset % len(data)
    flipped = data[offset] ^ 0x01
    if flipped in (0x0A, 0x00) or data[offset] == flipped:
        flipped = data[offset] ^ 0x02
    data[offset] = flipped
    path.write_bytes(bytes(data))


class TestCorruptionProperties:
    @settings(max_examples=25, deadline=None)
    @given(offset=st.integers(min_value=0, max_value=10_000))
    def test_bit_flip_in_array_file_is_loud(self, tmp_path_factory, offset):
        root = tmp_path_factory.mktemp("flip-array") / "s"
        store, _, database = _built_store(root)
        target = sorted(store._objects.glob("*.residues.npy"))[0]
        _flip_byte(target, offset)
        with pytest.raises(StoreError):
            store.get_packs(database, BLOSUM62, lanes=32)
        with pytest.raises(StoreError):
            store.verify()

    @settings(max_examples=25, deadline=None)
    @given(offset=st.integers(min_value=0, max_value=10_000))
    def test_bit_flip_in_manifest_is_loud(self, tmp_path_factory, offset):
        root = tmp_path_factory.mktemp("flip-manifest") / "s"
        store, _, _ = _built_store(root)
        target = sorted(store._objects.glob("*.json"))[0]
        _flip_byte(target, offset)
        with pytest.raises(StoreError):
            store.verify()

    @settings(max_examples=25, deadline=None)
    @given(cut=st.integers(min_value=0, max_value=10_000))
    def test_truncated_array_file_is_loud(self, tmp_path_factory, cut):
        root = tmp_path_factory.mktemp("cut-array") / "s"
        store, _, database = _built_store(root)
        target = sorted(store._objects.glob("*.residues.npy"))[0]
        data = target.read_bytes()
        target.write_bytes(data[: min(cut, len(data) - 1)])
        with pytest.raises(StoreError):
            store.get_packs(database, BLOSUM62, lanes=32)
        with pytest.raises(StoreError):
            store.verify()

    def test_missing_array_file_is_loud(self, tmp_path):
        store, _, database = _built_store(tmp_path / "s")
        sorted(store._objects.glob("*.residues.npy"))[0].unlink()
        with pytest.raises(StoreError, match="missing array file"):
            store.get_packs(database, BLOSUM62, lanes=32)

    def test_engine_refuses_bad_shard(self, tmp_path):
        """A store-backed engine must raise, never silently mis-score."""
        store, query, database = _built_store(tmp_path / "s")
        _flip_byte(sorted(store._objects.glob("*.residues.npy"))[0], 100)
        engine = InterSequenceEngine(
            BLOSUM62, DEFAULT_GAPS, top=8, store=str(tmp_path / "s")
        )
        with pytest.raises(StoreError):
            engine.search(query, database)

    def test_verify_checks_even_when_loads_do_not(self, tmp_path):
        store, _, _ = _built_store(tmp_path / "s")
        relaxed = PackStore(tmp_path / "s", verify=False)
        _flip_byte(sorted(store._objects.glob("*.array.npy"))[0], 60)
        with pytest.raises(StoreError):
            relaxed.verify()
        assert relaxed.verify_on_load is False  # restored after the raise


# ----------------------------------------------------------------------
# build_store coverage
# ----------------------------------------------------------------------
class TestBuildStore:
    def test_builds_every_engine_shape(self, tmp_path):
        query, database = make_workload()
        store = build_store(tmp_path / "s", database, BLOSUM62,
                            queries=[query])
        counts = store.verify()
        # 1 pack entry (32 lanes) + padded + striped@16 + striped@8.
        assert counts == {"entries": 4, "packs": 1, "profiles": 3}

    def test_rebuild_is_a_no_op(self, tmp_path):
        query, database = make_workload()
        build_store(tmp_path / "s", database, BLOSUM62, queries=[query])
        first = {p.name: p.stat().st_mtime_ns
                 for p in (tmp_path / "s" / "objects").iterdir()}
        build_store(tmp_path / "s", database, BLOSUM62, queries=[query])
        second = {p.name: p.stat().st_mtime_ns
                  for p in (tmp_path / "s" / "objects").iterdir()}
        assert first == second

    def test_schema_constant(self, tmp_path):
        store = PackStore(tmp_path / "s", create=True)
        assert PACKSTORE_SCHEMA == "repro.packstore.v1"
        assert store.directory.joinpath("store.json").exists()


# ----------------------------------------------------------------------
# Cluster warm start
# ----------------------------------------------------------------------
class TestClusterWarmStart:
    def _workload(self):
        rng = np.random.default_rng(41)
        from repro.sequences import query_set

        return query_set(3, rng, 20, 30), random_database(
            10, 30.0, rng, name="warm-cluster"
        )

    def test_master_server_refuses_corrupt_store(self, tmp_path):
        from repro.bench import uniform_tasks
        from repro.cluster import MasterServer
        from repro.core import SelfScheduling

        store, _, _ = _built_store(tmp_path / "s")
        _flip_byte(sorted(store._objects.glob("*.residues.npy"))[0], 80)
        with pytest.raises(StoreError):
            MasterServer(
                uniform_tasks(1, cells=2),
                policy=SelfScheduling(),
                store=str(tmp_path / "s"),
            )

    def test_warm_cluster_matches_cold(self, tmp_path):
        """Launcher populates the store on first use, re-uses it on the
        second run, and both produce the cold run's exact hits."""
        from repro.cluster import run_cluster

        queries, database = self._workload()
        store_dir = str(tmp_path / "s")

        def hits_of(report):
            return {
                qid: [(h.subject_index, h.score) for h in hits]
                for qid, hits in report.results.items()
            }

        cold = run_cluster(
            queries, database, {"gpu0": "gpu"},
            use_processes=False, timeout=60,
        )
        warm = run_cluster(
            queries, database, {"gpu0": "gpu"},
            use_processes=False, timeout=60, store_dir=store_dir,
        )
        assert PackStore(store_dir).verify()["entries"] > 0
        rewarm = run_cluster(  # second run re-uses the populated store
            queries, database, {"gpu0": "gpu"},
            use_processes=False, timeout=60, store_dir=store_dir,
        )
        assert hits_of(warm) == hits_of(cold)
        assert hits_of(rewarm) == hits_of(cold)

    def test_worker_config_carries_store(self):
        from repro.cluster import WorkerConfig

        config = WorkerConfig(
            host="h", port=1, pe_id="w", engine="gpu",
            query_path="q", database_path="d", store="/some/dir",
        )
        assert config.store == "/some/dir"
