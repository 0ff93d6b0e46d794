"""Property tests for every artifact format: writers and readers round-trip
exactly, and a reader given any bytes either loads them or raises
MetlitError, never another exception."""
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from metlit import LABELS, METAPHOR, MetlitError
from metlit.classifier import SvmModel, load_model, save_model
from metlit.cooccur import build_cooccurrence, load_table, save_table
from metlit.corpus import (
    Vocabulary,
    load_labeled_phrases,
    load_vocabulary,
    read_corpus_lines,
    save_vocabulary,
)
from metlit.embeddings import EmbeddingMatrix, load_embeddings, save_embeddings
from metlit.sentvec import SentenceVectors, load_sentence_vectors, save_sentence_vectors

from helpers import as_encoded

# each test reuses one file, so a function-scoped tmp_path is safe here
FILE_SETTINGS = settings(
    deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)

# vocabulary words are tokens: runs of letters and digits, never whitespace
words = st.text(st.characters(categories=("L", "N")), min_size=1, max_size=6)
finite = st.floats(allow_nan=False, allow_infinity=False)


def matrices(rows, dim):
    return arrays(np.float64, (rows, dim), elements=finite)


def same_floats(a, b):
    """Bitwise equality, so -0.0 and 0.0 differ."""
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestRoundTrip:
    @FILE_SETTINGS
    @given(st.dictionaries(words, st.integers(0, 10**18 - 1), min_size=1))
    def test_vocabulary(self, tmp_path, freq):
        vocab = Vocabulary(list(freq), freq)
        path = str(tmp_path / "vocab.txt")
        save_vocabulary(vocab, path)
        loaded = load_vocabulary(path)
        assert (loaded.words, loaded.freq) == (vocab.words, vocab.freq)

    @FILE_SETTINGS
    @given(st.data())
    def test_embeddings(self, tmp_path, data):
        vocab = data.draw(st.lists(words, unique=True, max_size=6))
        vectors = data.draw(matrices(len(vocab), data.draw(st.integers(1, 5))))
        path = str(tmp_path / "embeddings.txt")
        save_embeddings(EmbeddingMatrix(vocab, vectors), path)
        loaded = load_embeddings(path)
        assert loaded.words == vocab and same_floats(loaded.vectors, vectors)

    @FILE_SETTINGS
    @given(st.data())
    def test_sentence_vectors(self, tmp_path, data):
        dim = data.draw(st.integers(1, 5))
        rows = data.draw(st.lists(
            st.tuples(st.sampled_from(LABELS), st.integers(0, 10**6),
                      st.integers(0, 10**6), matrices(1, dim)),
            min_size=1, max_size=6,
        ))
        vectors = SentenceVectors(
            values=np.concatenate([values for *_, values in rows]),
            metaphor=np.array([label == METAPHOR for label, *_ in rows]),
            covered=np.array([min(a, b) for _, a, b, _ in rows]),
            total=np.array([max(a, b) for _, a, b, _ in rows]),
        )
        path = str(tmp_path / "sentence_vectors.txt")
        save_sentence_vectors(vectors, path)
        loaded = load_sentence_vectors(path)
        assert len(loaded) == len(vectors)
        for name in ("metaphor", "covered", "total"):
            assert np.array_equal(getattr(loaded, name), getattr(vectors, name))
        assert same_floats(loaded.values, vectors.values)

    @FILE_SETTINGS
    @given(st.data())
    def test_svm_model(self, tmp_path, data):
        weights, means, stds = data.draw(matrices(3, data.draw(st.integers(1, 5))))
        lam, bias = data.draw(finite), data.draw(finite)
        model = SvmModel(weights, bias, lam, means, stds)
        path = str(tmp_path / "svm_model.txt")
        save_model(model, path)
        loaded = load_model(path)
        assert same_floats([loaded.lam, loaded.bias], [lam, bias])
        for name in ("weights", "scale_mean", "scale_std"):
            assert same_floats(getattr(loaded, name), getattr(model, name))


def write_vocabulary(path):
    save_vocabulary(Vocabulary(["κλειδί", "πόρτα", "a"], {"κλειδί": 12, "πόρτα": 3, "a": 1}), path)


def write_embeddings(path):
    save_embeddings(EmbeddingMatrix(["κλειδί", "a"], [[0.25, -1e-3], [3.5, 1 / 3]]), path)


def write_sentence_vectors(path):
    save_sentence_vectors(SentenceVectors(
        np.array([[0.5, -2.0], [1e-9, 7.0]]), np.array([False, True]),
        np.array([2, 1]), np.array([3, 1]),
    ), path)


def write_model(path):
    save_model(SvmModel(np.array([0.5, -1.5]), 0.25, 1e-4,
                        np.array([0.0, 1.0]), np.array([1.0, 2.0])), path)


def write_table(path):
    save_table(build_cooccurrence(as_encoded([[0, 1, 2], [2, 1]]), window=2), path)


def write_phrases(path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("literal\tανοίγω\tανοίγω την πόρτα\nmetaphor\tανοίγω\tανοίγω δρόμους\n")


def write_corpus(path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("Ανοίγω την πόρτα.\n\nΗ θάλασσα!\n")


READERS = [
    (load_vocabulary, write_vocabulary),
    (load_embeddings, write_embeddings),
    (load_sentence_vectors, write_sentence_vectors),
    (load_model, write_model),
    (load_table, write_table),
    (load_labeled_phrases, write_phrases),
    (lambda path: list(read_corpus_lines(path)), write_corpus),
]
READER_IDS = ["vocab", "embeddings", "sentvec", "model", "table", "phrases", "corpus"]


def loads_or_rejects(reader, path, data):
    with open(path, "wb") as fh:
        fh.write(data)
    try:
        reader(path)
    except MetlitError:
        pass


def valid_bytes(tmp_path, write):
    path = str(tmp_path / "valid")
    write(path)
    with open(path, "rb") as fh:
        data = fh.read()
    os.remove(path)
    return data


@pytest.mark.parametrize("reader, write", READERS, ids=READER_IDS)
class TestMalformedInput:
    """Whatever the bytes, a reader loads them or raises MetlitError."""

    def test_valid_file_loads(self, tmp_path, reader, write):
        path = str(tmp_path / "artifact")
        write(path)
        reader(path)

    @FILE_SETTINGS
    @given(data=st.binary(max_size=300))
    def test_random_bytes(self, tmp_path, reader, write, data):
        loads_or_rejects(reader, str(tmp_path / "artifact"), data)

    @FILE_SETTINGS
    @given(position=st.integers(0, 10**6), byte=st.integers(0, 255))
    def test_single_byte_mutation(self, tmp_path, reader, write, position, byte):
        data = bytearray(valid_bytes(tmp_path, write))
        data[position % len(data)] = byte
        loads_or_rejects(reader, str(tmp_path / "artifact"), bytes(data))

    @FILE_SETTINGS
    @given(keep=st.integers(0, 10**6))
    def test_truncation(self, tmp_path, reader, write, keep):
        data = valid_bytes(tmp_path, write)
        loads_or_rejects(reader, str(tmp_path / "artifact"), data[:keep % (len(data) + 1)])
