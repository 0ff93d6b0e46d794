import numpy as np
import pytest

from metlit import LITERAL, METAPHOR, MetlitError, sentvec
from metlit.corpus import LabeledPhrase
from metlit.embeddings import EmbeddingMatrix
from metlit.sentvec import (
    embed_dataset,
    load_sentence_vectors,
    save_sentence_vectors,
)

from helpers import make_blobs, traced_peak


@pytest.fixture
def emb():
    return EmbeddingMatrix(
        ["a", "b", "c"],
        np.array([[2.0, 4.0], [1.0, 0.0], [0.0, 1.0]]),
    )


def phrase(tokens, label=LITERAL):
    return LabeledPhrase(tokens=list(tokens), verb=tokens[0], label=label)


def aggregate(p, emb, mode="mean"):
    """The one row embed_dataset makes of a single phrase."""
    vectors, _ = embed_dataset([p], emb, mode)
    assert len(vectors) == 1
    return vectors[0]


class TestAggregate:
    def test_singleton_mean_is_the_vector(self, emb):
        sv = aggregate(phrase(["a"]), emb)
        assert np.array_equal(sv.values, [2.0, 4.0])
        assert sv.covered == 1 and sv.total == 1

    def test_two_token_mean_and_sum(self, emb):
        p = phrase(["b", "c"])
        assert np.array_equal(aggregate(p, emb, "mean").values, [0.5, 0.5])
        assert np.array_equal(aggregate(p, emb, "sum").values, [1.0, 1.0])

    def test_oov_tokens_skipped_not_zero_filled(self, emb):
        emb2 = EmbeddingMatrix(["a"], np.array([[3.0, 3.0]]))
        vectors, report = embed_dataset([phrase(["a", "zzz"])], emb2)
        assert np.array_equal(vectors.values, [[3.0, 3.0]])
        assert vectors.covered.tolist() == [1] and vectors.total.tolist() == [2]
        assert report.mean_coverage == 0.5

    def test_no_covered_token_gets_no_row(self, emb):
        vectors, report = embed_dataset([phrase(["zzz"]), phrase(["a"])], emb)
        assert report.excluded == [0]
        assert vectors.covered.tolist() == [1]
        assert np.array_equal(vectors.values, [[2.0, 4.0]])

    def test_duplicate_token_weighs_twice_in_mean(self, emb):
        sv = aggregate(phrase(["b", "b", "c"]), emb)
        assert np.allclose(sv.values, [2 / 3, 1 / 3])

    def test_label_carried_through(self, emb):
        assert aggregate(phrase(["a"], label=METAPHOR), emb).metaphor
        assert not aggregate(phrase(["a"], label=LITERAL), emb).metaphor

    @pytest.mark.parametrize("dim", [2, 50])
    def test_rows_match_a_per_phrase_stack(self, dim):
        # each row is the token rows summed in order, then divided for the mean
        rng = np.random.default_rng(dim)
        words = [f"w{i}" for i in range(12)]
        vectors = rng.normal(0, 1, (12, dim))
        vectors[3] = -0.0
        emb = EmbeddingMatrix(words, vectors)
        phrases = [phrase([words[j] for j in rng.integers(0, 12, int(n))] + ["oov"])
                   for n in rng.integers(1, 15, 40)]
        for mode in ("mean", "sum"):
            got, _ = embed_dataset(phrases, emb, mode)
            for row, p in zip(got.values, phrases):
                stacked = np.stack([emb.vectors[i] for i in emb.ids(p.tokens)])
                want = stacked.mean(axis=0) if mode == "mean" else stacked.sum(axis=0)
                assert row.tobytes() == want.tobytes()


def random_phrases(rng, words, n, longest):
    """n phrases of 1 to `longest` words drawn from `words`, each with one
    out-of-vocabulary token."""
    return [phrase([words[j] for j in rng.integers(0, len(words), int(k))] + ["oov"])
            for k in rng.integers(1, longest + 1, n)]


class TestSlices:
    @pytest.mark.parametrize("size", [sentvec.SLICE, 5])
    def test_slices_give_the_bits_of_one_add_at(self, monkeypatch, size):
        # phrases of 1 to 9 tokens put slice edges inside phrases and between them
        rng = np.random.default_rng(size)
        words = [f"w{i}" for i in range(30)]
        scale = 10.0 ** rng.integers(-8, 8, (30, 1))
        emb = EmbeddingMatrix(words, rng.normal(0, 1, (30, 4)) * scale)
        phrases = random_phrases(rng, words, 800, 9)
        ids = [emb.ids(p.tokens) for p in phrases]
        assert sum(map(len, ids)) > 2 * sentvec.SLICE
        values = np.full((len(phrases), 4), -0.0)
        np.add.at(values, np.repeat(np.arange(len(phrases)), [len(row) for row in ids]),
                  emb.vectors[[i for row in ids for i in row]])
        monkeypatch.setattr(sentvec, "SLICE", size)
        got, _ = embed_dataset(phrases, emb, "sum")
        assert got.values.tobytes() == values.tobytes()

    @pytest.mark.memory
    def test_working_memory_is_the_output_and_one_slice(self):
        # 20k phrase tokens at D = 200: the whole gather would be 32 MB, one
        # slice's is 1.6 MB. Beside the output, the sums of every phrase (as
        # large again) are held with one slice's rows and the token ids.
        rng = np.random.default_rng(7)
        d = 200
        words = [f"w{i}" for i in range(500)]
        emb = EmbeddingMatrix(words, rng.normal(0, 1, (500, d)))
        phrases = random_phrases(rng, words, 1000, 39)
        (vectors, _), peak = traced_peak(embed_dataset, phrases, emb)
        output = vectors.values.nbytes
        one_slice = sentvec.SLICE * d * 8
        assert sum(vectors.covered) > 12 * sentvec.SLICE
        assert peak - output <= output + one_slice, \
            f"{(peak - 2 * output) / one_slice:.2f} slices beside the output twice"


class TestEmbedDataset:
    def test_empty_list_is_an_error(self, emb):
        with pytest.raises(ValueError):
            embed_dataset([], emb)

    def test_unknown_mode_is_an_error_naming_the_modes(self, emb):
        with pytest.raises(MetlitError) as exc:
            embed_dataset([phrase(["a"])], emb, "median")
        assert str(exc.value) == "mode must be one of ('mean', 'sum'), got 'median'"

    def test_all_uncoverable_is_an_error(self, emb):
        with pytest.raises(ValueError):
            embed_dataset([phrase(["qq"]), phrase(["zz"])], emb)

    def test_uncoverable_phrase_excluded_and_reported(self, emb):
        phrases = [
            phrase(["a", "b"], label=LITERAL),
            phrase(["qq"], label=METAPHOR),
            phrase(["c"], label=METAPHOR),
        ]
        vectors, report = embed_dataset(phrases, emb)
        assert len(vectors) == 2
        assert report.excluded == [1]
        assert report.class_counts == {LITERAL: 1, METAPHOR: 1}
        assert vectors.metaphor.tolist() == [False, True]

    def test_mean_coverage_over_kept_phrases(self, emb):
        phrases = [phrase(["a", "zz"]), phrase(["b"])]
        _, report = embed_dataset(phrases, emb)
        assert report.mean_coverage == pytest.approx((0.5 + 1.0) / 2)

    def test_aggregation_is_linear_in_scaling(self, emb):
        # scaling every embedding scales every sentence vector identically
        scaled = EmbeddingMatrix(emb.words, emb.vectors * 3.0)
        p = phrase(["a", "b", "c"])
        assert np.allclose(aggregate(p, scaled).values, 3.0 * aggregate(p, emb).values)


class TestTextFormat:
    def test_save_load_round_trip(self, tmp_path, emb):
        phrases = [phrase(["a", "b"], LITERAL), phrase(["c", "qq"], METAPHOR)]
        vectors, _ = embed_dataset(phrases, emb)
        path = tmp_path / "sv.txt"
        save_sentence_vectors(vectors, str(path))
        loaded = load_sentence_vectors(str(path))
        assert len(loaded) == 2
        assert np.array_equal(loaded.metaphor, vectors.metaphor)
        assert np.array_equal(loaded.covered, vectors.covered)
        assert np.array_equal(loaded.total, vectors.total)
        assert np.array_equal(loaded.values, vectors.values)

    @pytest.mark.memory
    def test_load_working_memory_is_about_the_values(self, tmp_path):
        # 914 rows of 200, as the benchmark's vectors: the rows go into one
        # growing buffer, which the loaded values then view, with no copy
        data = make_blobs(np.random.default_rng(3), n_per_class=457, dim=200, separation=1.0)
        path = str(tmp_path / "sv.txt")
        save_sentence_vectors(data, path)
        loaded, peak = traced_peak(load_sentence_vectors, path)
        assert np.array_equal(loaded.values, data.values)
        assert peak < 1.25 * loaded.values.nbytes, \
            f"{peak / loaded.values.nbytes:.2f} times the values"

    def test_line_shape(self, tmp_path, emb):
        vectors, _ = embed_dataset([phrase(["a", "qq"])], emb)
        path = tmp_path / "sv.txt"
        save_sentence_vectors(vectors, str(path))
        line = path.read_text().strip()
        parts = line.split()
        assert parts[0] == LITERAL
        assert parts[1] == "1/2"
        assert len(parts) == 2 + emb.dim

    def test_unknown_label_rejected_on_load(self, tmp_path):
        path = tmp_path / "sv.txt"
        path.write_text("figurative 1/1 0.5 0.5\n")
        with pytest.raises(ValueError):
            load_sentence_vectors(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "sv.txt"
        path.write_text("")
        with pytest.raises(ValueError):
            load_sentence_vectors(str(path))


class TestLoadValidation:
    """Malformed rows fail at load, naming the path and the line."""

    def load_error(self, tmp_path, text):
        path = tmp_path / "sv.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            load_sentence_vectors(str(path))
        return str(exc.value), str(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, tmp_path, value):
        message, path = self.load_error(
            tmp_path, f"literal 1/1 0.5 0.5\nmetaphor 1/1 0.5 {value}\n"
        )
        assert path in message and "line 2" in message and "non-finite" in message

    def test_row_of_another_dimension_rejected(self, tmp_path):
        message, path = self.load_error(
            tmp_path, "literal 1/1 0.5 0.5\nmetaphor 1/1 0.5 0.5\nliteral 1/1 0.5\n"
        )
        assert path in message and "line 3" in message
        assert "1 values" in message and "has 2" in message

    @pytest.mark.parametrize("cover", ["1", "1/2/3", "a/2", "3/2", "-1/2", "1/"])
    def test_malformed_coverage_rejected(self, tmp_path, cover):
        message, path = self.load_error(
            tmp_path, f"literal 1/1 0.5 0.5\nmetaphor {cover} 0.5 0.5\n"
        )
        assert path in message and "line 2" in message and repr(cover) in message

    def test_non_numeric_value_names_the_line(self, tmp_path):
        message, path = self.load_error(tmp_path, "literal 1/1 0.5 abc\n")
        assert path in message and "line 1" in message
