import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from metlit import MetlitError
from metlit.corpus import CorpusError
from metlit.embeddings import (
    EmbeddingMatrix,
    batch_plan,
    format_floats,
    load_embeddings,
    save_embeddings,
)


def make_matrix(rng, words=("a", "b", "c"), dim=4):
    vectors = rng.normal(0, 1, (len(words), dim))
    return EmbeddingMatrix(list(words), vectors)


class TestEmbeddingMatrix:
    def test_row_lookup_and_contains(self):
        emb = EmbeddingMatrix(["x", "y"], np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(emb.vectors[emb.ids(["y"])], [[3.0, 4.0]])
        assert emb.ids(["z", "x"]) == [0]
        assert emb.dim == 2

    def test_unknown_words_skipped_in_order(self):
        emb = EmbeddingMatrix(["x", "y"], np.array([[1.0], [2.0]]))
        assert emb.ids(["nope", "y", "x", "zz", "y"]) == [1, 0, 1]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingMatrix(["x", "y"], np.zeros((3, 2)))

    def test_duplicate_word_rejected(self):
        with pytest.raises(MetlitError, match="duplicate word"):
            EmbeddingMatrix(["x", "y", "x"], np.zeros((3, 2)))


class TestTextFormat:
    def test_format_floats_uses_repr_round_trip(self):
        values = [1 / 3, 1e-17, -2.5, 0.1 + 0.2]
        line = format_floats(values)
        parsed = [float(p) for p in line.split()]
        assert parsed == [float(v) for v in values]

    def test_save_load_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        emb = make_matrix(rng)
        path = tmp_path / "emb.txt"
        save_embeddings(emb, str(path))
        loaded = load_embeddings(str(path))
        assert loaded.words == emb.words
        assert np.array_equal(loaded.vectors, emb.vectors)  # bitwise, via repr

    def test_header_counts_match_body(self, tmp_path):
        rng = np.random.default_rng(4)
        emb = make_matrix(rng, words=("w1", "w2"), dim=3)
        path = tmp_path / "emb.txt"
        save_embeddings(emb, str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "2 3"
        assert len(lines) == 3
        assert lines[1].split()[0] == "w1"

    def test_load_rejects_wrong_column_count(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("1 3\nw 1.0 2.0\n", encoding="utf-8")
        with pytest.raises(CorpusError):
            load_embeddings(str(path))

    def test_load_rejects_truncated_file(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 2\nw 1.0 2.0\n", encoding="utf-8")
        with pytest.raises(CorpusError):
            load_embeddings(str(path))

    @pytest.mark.parametrize("text, message", [
        ("", ": embedding header must be '<V> <D>'"),
        ("2\n", ", line 1: embedding header must be '<V> <D>'"),
        ("x 2\nw 1.0 2.0\n", ", line 1: 'x' is not a count"),
        ("-3 2\nw 1.0 2.0\n", ", line 1: '-3' is not a count"),
        ("1 2\nw 1.0 nan\n", ", line 2: non-finite value"),
        ("1 2\nw 1.0 x\n", ", line 2: could not convert string to float: 'x'"),
        ("1 2\nw 1.0 2.0\nv 1.0 2.0\n", ", line 3: more rows than the 1 of the header"),
        ("2 2\nw 1.0 2.0\nw 3.0 4.0\n", ", line 3: duplicate word 'w'"),
        ("2 2\nw 1.0 2.0\n\n", ", line 3: 0 values, the file has 2 per row"),
        ("2 2\nw 1.0 2.0\n", ": 1 rows, the header says 2"),
    ])
    def test_load_names_path_and_line(self, tmp_path, text, message):
        path = tmp_path / "emb.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(CorpusError) as exc:
            load_embeddings(str(path))
        assert str(exc.value) == f"{path}{message}"

    def test_empty_matrix_round_trips(self, tmp_path):
        path = tmp_path / "emb.txt"
        save_embeddings(EmbeddingMatrix([], np.zeros((0, 3))), str(path))
        loaded = load_embeddings(str(path))
        assert loaded.words == [] and loaded.vectors.shape == (0, 3)


class TestBatchPlan:
    @settings(deadline=None)
    @given(data=st.data(), n=st.integers(1, 90), width=st.integers(1, 6),
           n_rows=st.integers(1, 40), batch=st.integers(1, 40))
    def test_equals_unique_per_batch(self, data, n, width, n_rows, batch):
        # few distinct ids make repeats within a batch common, and most
        # draws leave a shorter last batch
        ids = data.draw(arrays(np.int64, (n, width), elements=st.integers(0, n_rows - 1)))
        touched, starts, slot = batch_plan(ids, n_rows, batch)
        assert slot.shape == ids.shape
        assert len(starts) == -(-len(ids) // batch) + 1 and starts[-1] == len(touched)
        for k, b in enumerate(range(0, len(ids), batch)):
            expected, inverse = np.unique(ids[b:b + batch], return_inverse=True)
            assert np.array_equal(touched[starts[k]:starts[k + 1]], expected)
            assert np.array_equal(slot[b:b + batch], inverse.reshape(-1, ids.shape[1]))
