import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from metlit import MetlitError, cooccur
from metlit.cooccur import (
    RECORD,
    WEIGHTINGS,
    build_cooccurrence,
    load_table,
    save_table,
)

from helpers import (
    as_encoded,
    iterate_windows,
    reference_cooccurrence,
    traced_peak,
    zipf_sentences,
)


def brute_force_mass(sentences, window, weighting):
    """O(n^2) reference: total symmetric weighted mass over all sentences."""
    mass = 0.0
    for ids in sentences:
        for i in range(len(ids)):
            for j in range(i + 1, min(i + window + 1, len(ids))):
                w = 1.0 if weighting == "flat" else 1.0 / (j - i)
                mass += 2 * w  # stored at (i,j) and (j,i)
    return mass


def entries(table):
    """The table as {(i, j): X_ij}."""
    return {(i, j): x for i, j, x in table.tolist()}


def sorted_table(n):
    """n records in strictly increasing (i, j) order, 64 to a word."""
    table = np.empty(n, dtype=RECORD)
    table["i"], table["j"] = np.divmod(np.arange(n), 64)
    table["x"] = 1.0
    return table


def random_sentences(rng, n_sentences=30, vocab=12):
    return [
        [int(x) for x in rng.integers(0, vocab, int(rng.integers(1, 15)))]
        for _ in range(n_sentences)
    ]


class TestWindows:
    def test_three_tokens_window_one(self):
        wins = list(iterate_windows([0, 1, 2], m=1))
        assert wins == [(0, [1]), (1, [0, 2]), (2, [1])]

    def test_single_token_emits_empty_context(self):
        assert list(iterate_windows([5], m=2)) == [(5, [])]

    def test_window_truncated_at_edges(self):
        wins = list(iterate_windows([0, 1, 2, 3], m=2))
        assert wins[2] == (2, [0, 1, 3])


class TestBuildCooccurrence:
    def test_single_pair_counted_symmetrically(self):
        table = entries(build_cooccurrence(as_encoded([[0, 1]]), window=10, weighting="flat"))
        assert table[(0, 1)] == 1.0
        assert table[(1, 0)] == 1.0
        assert len(table) == 2

    def test_unknown_weighting_is_an_error_naming_the_weightings(self):
        with pytest.raises(MetlitError) as exc:
            build_cooccurrence(as_encoded([[0, 1]]), window=10, weighting="inverse")
        assert str(exc.value) == ("weighting must be one of ('flat', 'inverse_distance'), "
                                  "got 'inverse'")

    def test_distance_beyond_window_excluded(self):
        table = entries(build_cooccurrence(as_encoded([[0, 1, 0]]), window=1, weighting="flat"))
        assert table[(0, 1)] == 2.0
        assert table[(1, 0)] == 2.0
        assert (0, 0) not in table

    def test_inverse_distance_weighting(self):
        table = build_cooccurrence(as_encoded([[0, 1, 2]]), window=2, weighting="inverse_distance")
        assert entries(table)[(0, 2)] == 0.5

    def test_same_word_pair_accumulates_on_diagonal(self):
        table = build_cooccurrence(as_encoded([[0, 0]]), window=5, weighting="flat")
        assert entries(table)[(0, 0)] == 2.0  # both orientations land on X_00

    def test_windows_never_cross_sentence_boundaries(self):
        split = build_cooccurrence(as_encoded([[0, 1], [2, 3]]), window=10, weighting="flat")
        joined = build_cooccurrence(as_encoded([[0, 1, 2, 3]]), window=10, weighting="flat")
        assert (1, 2) not in entries(split)
        assert (1, 2) in entries(joined)

    def test_symmetry_on_random_input(self):
        rng = np.random.default_rng(11)
        corpus = as_encoded(random_sentences(rng))
        for weighting in ("flat", "inverse_distance"):
            table = entries(build_cooccurrence(corpus, window=4, weighting=weighting))
            for (i, j), x in table.items():
                assert table[(j, i)] == x

    def test_total_mass_matches_brute_force(self):
        rng = np.random.default_rng(12)
        sentences = random_sentences(rng)
        for weighting in ("flat", "inverse_distance"):
            table = build_cooccurrence(as_encoded(sentences), window=3, weighting=weighting)
            expected = brute_force_mass(sentences, 3, weighting)
            assert table["x"].sum() == pytest.approx(expected, rel=1e-12)

    def test_entries_strictly_positive(self):
        rng = np.random.default_rng(13)
        table = build_cooccurrence(as_encoded(random_sentences(rng)), window=5)
        assert all(x > 0 for x in entries(table).values())

    @settings(deadline=None)
    @given(
        sentences=st.lists(
            st.lists(st.one_of(st.integers(0, 3), st.integers(0, 2**32 - 1)),
                     max_size=12),
            max_size=6,
        ),
        window=st.integers(1, 14),
        weighting=st.sampled_from(WEIGHTINGS),
    )
    def test_equals_reference_loop_exactly(self, sentences, window, weighting):
        # small ids repeat (the diagonal), windows outrun sentences, and
        # empty and one-token sentences occur
        table = build_cooccurrence(as_encoded(sentences), window=window, weighting=weighting)
        expected = reference_cooccurrence(sentences, window, weighting)
        assert table.dtype == RECORD
        assert table.tolist() == sorted((i, j, x) for (i, j), x in expected.items())


class TestChunkedCount:
    """build_cooccurrence merges CHUNK_PAIRS position pairs at a time, or as
    many as its running table has keys, into that table."""

    @settings(deadline=None)
    @given(
        sentences=st.lists(
            st.lists(st.one_of(st.integers(0, 3), st.integers(0, 2**32 - 1)),
                     max_size=30),
            max_size=5,
        ),
        window=st.integers(1, 14),
        chunk=st.integers(1, 64),
    )
    def test_any_chunk_size_gives_the_one_chunk_table(self, sentences, window, chunk):
        # chunks of 1 to 64 pairs end inside windows of up to 14 positions
        corpus = as_encoded(sentences)
        for weighting in WEIGHTINGS:
            with mock.patch.object(cooccur, "CHUNK_PAIRS", chunk):
                table = build_cooccurrence(corpus, window=window, weighting=weighting)
            with mock.patch.object(cooccur, "CHUNK_PAIRS", 2**62):
                whole = build_cooccurrence(corpus, window=window, weighting=weighting)
            expected = reference_cooccurrence(sentences, window, weighting)
            assert table.tolist() == sorted((i, j, x) for (i, j), x in expected.items())
            assert table.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_merges_grow_logarithmically_when_every_pair_is_distinct(self, monkeypatch, chunk):
        # distinct ids make every pair a new key: the running table doubles
        # with each merge once it reaches a chunk
        merges = []
        unique = np.unique
        monkeypatch.setattr(np, "unique", lambda *a, **k: merges.append(len(a[0])) or unique(*a, **k))
        monkeypatch.setattr(cooccur, "CHUNK_PAIRS", chunk)
        table = build_cooccurrence(as_encoded([list(range(300))]), window=10, weighting="flat")
        pairs = len(table) // 2
        assert pairs == 290 * 10 + 45
        assert len(merges) == 1 + math.ceil(math.log2(pairs / chunk))
        assert sum(merges) <= 3 * pairs  # the merges sort no more than 3P keys in all

    @pytest.mark.memory
    def test_working_memory_is_a_few_tables(self):
        # a benchmark-sized corpus: 100k tokens over 2,000 ids, about 0.33M
        # records; counting every position pair at once needs over 7 tables,
        # and re-sorting the running keys with each chunk, then both
        # orientations, over 3
        sentences = zipf_sentences(np.random.default_rng(0), 100_000, 2000)
        table, peak = traced_peak(build_cooccurrence, as_encoded(sentences), window=10)
        assert peak < 3 * table.nbytes, f"{peak / table.nbytes:.2f} tables"


class TestBinaryFormat:
    def test_save_load_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(15)
        table = build_cooccurrence(
            as_encoded(random_sentences(rng)), window=4, weighting="inverse_distance"
        )
        path = tmp_path / "x.bin"
        save_table(table, str(path))
        loaded = load_table(str(path))
        assert loaded.tolist() == table.tolist()

    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.dictionaries(
        st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    ))
    def test_any_sorted_positive_table_round_trips(self, tmp_path, records):
        table = np.array(
            [(i, j, x) for (i, j), x in sorted(records.items())], dtype=RECORD
        )
        path = str(tmp_path / "x.bin")
        save_table(table, path)
        loaded = load_table(path)
        assert loaded.dtype == RECORD
        assert loaded.tolist() == table.tolist()

    def test_record_layout_is_little_endian_u32_u32_f64(self, tmp_path):
        table = np.array([(1, 2, 0.5), (2, 1, 0.5)], dtype=RECORD)
        path = tmp_path / "x.bin"
        save_table(table, str(path))
        raw = path.read_bytes()
        assert len(raw) == 2 * 16  # two symmetric records, 16 bytes each
        i, j, x = struct.unpack_from("<IId", raw, 0)
        assert (i, j, x) == (1, 2, 0.5)

    def test_records_sorted_by_pair(self, tmp_path):
        table = build_cooccurrence(as_encoded([[3, 1], [0, 2]]), window=1, weighting="flat")
        path = tmp_path / "x.bin"
        save_table(table, str(path))
        raw = path.read_bytes()
        pairs = [
            struct.unpack_from("<IId", raw, k * 16)[:2] for k in range(len(raw) // 16)
        ]
        assert pairs == sorted(pairs)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"\x01\x00\x00\x00")
        with pytest.raises(ValueError, match="x.bin: size 4 is not a multiple"):
            load_table(str(path))

    @pytest.mark.parametrize("second", [(0, 1, 2.0), (0, 0, 1.0)])
    def test_repeated_or_unsorted_key_rejected(self, tmp_path, second):
        path = tmp_path / "x.bin"
        np.array([(0, 1, 1.0), second, (5, 5, 1.0)], dtype=RECORD).tofile(path)
        with pytest.raises(ValueError) as exc:
            load_table(str(path))
        assert str(exc.value) == (
            f"{path}: record 2 does not follow record 1 in (i, j) order"
        )

    @pytest.mark.parametrize("k", [cooccur.CHECK_RECORDS - 1, cooccur.CHECK_RECORDS,
                                   cooccur.CHECK_RECORDS + 1])
    def test_unsorted_key_on_a_slice_boundary_rejected(self, tmp_path, k):
        # record k (from 0) repeats record k - 1: the last of the first
        # slice, the first of the second, or the one after it
        path = tmp_path / "x.bin"
        table = sorted_table(2 * cooccur.CHECK_RECORDS)
        table[k] = table[k - 1]
        table.tofile(path)
        with pytest.raises(ValueError) as exc:
            load_table(str(path))
        assert str(exc.value) == (
            f"{path}: record {k + 1} does not follow record {k} in (i, j) order"
        )

    @pytest.mark.memory
    def test_load_working_memory_is_the_table(self, tmp_path):
        # the checks run a slice at a time: whole-table uint64 keys and
        # masks would make the peak two tables
        path = str(tmp_path / "x.bin")
        save_table(sorted_table(4 * cooccur.CHECK_RECORDS), path)
        table, peak = traced_peak(load_table, path)
        assert peak < 1.2 * table.nbytes, f"{peak / table.nbytes:.2f} tables"

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_count_not_finite_and_positive_rejected(self, tmp_path, bad):
        path = tmp_path / "x.bin"
        np.array([(0, 1, 1.0), (1, 0, bad)], dtype=RECORD).tofile(path)
        with pytest.raises(ValueError) as exc:
            load_table(str(path))
        assert str(exc.value) == (
            f"{path}: record 2: count {bad} is not finite and > 0"
        )
