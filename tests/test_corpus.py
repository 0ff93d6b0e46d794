import codecs
import re
import unicodedata
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from metlit import LITERAL, METAPHOR, MetlitError, corpus
from metlit.corpus import (
    LabeledPhrase,
    Vocabulary,
    build_vocabulary,
    load_labeled_phrases,
    load_vocabulary,
    read_corpus_lines,
    read_encoded,
    read_lines,
    save_vocabulary,
    tokenize,
    vocabulary_from_counts,
)

from helpers import as_encoded, traced_peak


class TestTokenize:
    def test_empty_string(self):
        assert tokenize("") == []

    def test_greek_sentence_lowercased_and_split(self):
        assert tokenize("Η θάλασσα, η θάλασσα.") == ["η", "θάλασσα", "η", "θάλασσα"]

    def test_digits_kept_inside_and_alone(self):
        assert tokenize("word2vec 450") == ["word2vec", "450"]

    def test_underscore_splits_tokens(self):
        assert tokenize("foo_bar") == ["foo", "bar"]

    def test_punctuation_only_yields_nothing(self):
        assert tokenize("... !!! ---") == []

    def test_nfc_normalization_merges_decomposed_accents(self):
        composed = "θάλασσα"  # ά as one code point
        decomposed = "θάλασσα"  # α + combining acute
        assert tokenize(decomposed) == tokenize(composed)

    def test_uppercase_greek_lowercased_with_final_sigma(self):
        assert tokenize("ΟΡΊΖΟΝΤΕΣ") == ["ορίζοντες"]
        # a word ends in ς before punctuation too, not only before a space:
        # the full stop, the colon, the question mark and the ano teleia
        assert tokenize("ΕΛΛΑΣ:ΤΟ") == ["ελλας", "το"]
        assert tokenize("ΟΔΟΣ.ΟΔΟΣ") == ["οδος", "οδος"]
        assert tokenize("ΠΟΙΟΣ;ΕΣΥ;") == ["ποιος", "εσυ"]
        assert tokenize("ΟΔΟΣ\u0387ΟΔΟΣ") == ["οδος", "οδος"]

    def test_dotted_capital_i_stays_one_token(self):
        # İ lowercases to i and a combining dot, a mark the split would cut at
        assert tokenize("İstanbul") == ["i\u0307stanbul"]


class TestDecodeUtf8:
    def test_valid_bytes(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes("θάλασσα\n".encode("utf-8"))
        assert list(read_lines(str(path))) == [(f"{path}, line 1", "θάλασσα\n")]

    def test_invalid_byte_reports_absolute_offset(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"x" * 99 + b"\nab\xffcd")
        with pytest.raises(MetlitError, match="line 2: invalid UTF-8 at byte 102") as exc:
            list(read_lines(str(path)))
        assert str(exc.value) == f"{path}, line 2: invalid UTF-8 at byte 102"

    def test_leading_byte_order_mark_is_dropped(self, tmp_path):
        # only at the start of the file: elsewhere U+FEFF is text
        path = tmp_path / "f.txt"
        path.write_bytes(codecs.BOM_UTF8 + "θάλασσα\n\ufeffx\n".encode("utf-8"))
        assert [text for _, text in read_lines(str(path))] == ["θάλασσα\n", "\ufeffx\n"]

    @pytest.mark.parametrize("data, where", [
        (codecs.BOM_UTF8 + b"ab\xffcd", "line 1: invalid UTF-8 at byte 5"),
        (codecs.BOM_UTF8 + b"ab\ncd\xff", "line 2: invalid UTF-8 at byte 8"),
    ])
    def test_invalid_byte_after_byte_order_mark_reports_absolute_offset(
        self, tmp_path, data, where
    ):
        path = tmp_path / "f.txt"
        path.write_bytes(data)
        with pytest.raises(MetlitError, match="invalid UTF-8 at byte") as exc:
            list(read_lines(str(path)))
        assert str(exc.value) == f"{path}, {where}"


class TestVocabulary:
    def test_counts_and_ids_min_count_1(self):
        vocab = vocabulary_from_counts(Counter(["a", "b", "a"]), min_count=1)
        assert len(vocab) == 2
        assert vocab._ids["a"] == 0 and vocab.freq["a"] == 2
        assert vocab._ids["b"] == 1 and vocab.freq["b"] == 1

    def test_min_count_threshold_drops_rare_words(self):
        vocab = vocabulary_from_counts(Counter(["a", "b", "a"]), min_count=2)
        assert vocab.words == ["a"]

    def test_all_below_threshold_is_an_error(self):
        with pytest.raises(MetlitError, match="empty vocabulary: no token reaches min_count=3"):
            vocabulary_from_counts(Counter(["x", "y"]), min_count=3)

    def test_ids_dense_and_inverse_of_words(self):
        sentences = [["c", "a", "b", "a", "c", "c"]]
        vocab = build_vocabulary(sentences, min_count=1)
        assert sorted(vocab._ids[w] for w in vocab.words) == list(range(len(vocab)))
        for i in range(len(vocab)):
            assert vocab._ids[vocab.words[i]] == i

    def test_ordering_by_count_then_word(self):
        vocab = build_vocabulary([["b", "a", "b", "a", "c"]], min_count=1)
        # a and b tie at 2; lexicographic breaks the tie, c trails at 1
        assert vocab.words == ["a", "b", "c"]

    def test_encode_drops_out_of_vocabulary_tokens(self):
        vocab = build_vocabulary([["a", "b", "a"]], min_count=2)
        assert vocab.encode(["a", "b", "a", "zzz"]) == [0, 0]

    def test_save_load_round_trip(self, tmp_path):
        vocab = build_vocabulary([["κλειδί", "πόρτα", "κλειδί"]], min_count=1)
        path = tmp_path / "vocab.txt"
        save_vocabulary(vocab, str(path))
        loaded = load_vocabulary(str(path))
        assert (loaded.words, loaded.freq) == (vocab.words, vocab.freq)

    def test_load_empty_file_is_an_error(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("")
        with pytest.raises(MetlitError, match="empty vocabulary file"):
            load_vocabulary(str(path))

    @pytest.mark.parametrize("text, message", [
        ("a 3\nb x\n", "line 2: 'x' is not a count"),
        ("a 3\nb -1\n", "line 2: '-1' is not a count"),
        ("a 3\nb 1234567890123456789\n", "line 2: '1234567890123456789' is not a count"),
        ("a 3\nb 1 2\n", "line 2: expected '<word> <frequency>'"),
        ("a 3\nb 2\na 1\n", "line 3: duplicate word 'a'"),
        ("a 3\nb\xff 2\n", "line 2: invalid UTF-8 at byte 5"),
    ])
    def test_load_names_path_and_line(self, tmp_path, text, message):
        path = tmp_path / "vocab.txt"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(MetlitError, match=re.escape(message)) as exc:
            load_vocabulary(str(path))
        assert str(exc.value) == f"{path}, {message}"


class TestReadCorpusLines:
    def test_lines_become_token_lists(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("Ανοίγω την πόρτα.\n\nΗ θάλασσα!\n", encoding="utf-8")
        lines = list(read_corpus_lines(str(path)))
        assert lines == [["ανοίγω", "την", "πόρτα"], [], ["η", "θάλασσα"]]

    def test_invalid_utf8_names_byte_offset(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_bytes("καλό\n".encode("utf-8") + b"a\xff\n")
        with pytest.raises(MetlitError, match="line 2: invalid UTF-8 at byte") as exc:
            list(read_corpus_lines(str(path)))
        expected_offset = len("καλό\n".encode("utf-8")) + 1
        assert str(expected_offset) in str(exc.value)


# words whose tokens differ from their text: case, NFD accents that NFC
# composes, final sigma, punctuation and underscores that split
WORDS = ["θάλασσα", unicodedata.normalize("NFD", "Θάλασσα"), "ΟΡΊΖΟΝΤΕΣ", "ορίζοντες",
         "πόρτα,", "Ανοίγω", "x1", "foo_bar", "a", "...", "B"]


def reference_encoding(text, min_count=1, vocab=None):
    """tokenize + Counter + Vocabulary.encode over the lines of `text`,
    without the sentences the encoding leaves empty."""
    sentences = [tokenize(line) for line in text.removeprefix("\ufeff").split("\n")]
    vocab = vocab or build_vocabulary(sentences, min_count)
    return vocab, [ids for ids in map(vocab.encode, sentences) if ids]


class TestReadEncoded:
    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        lines=st.lists(st.lists(st.one_of(
            st.sampled_from(WORDS),
            st.integers(0, 30).map(lambda k: f"σπάνιο{k}"),  # rare: below min_count
        ), max_size=8), min_size=1, max_size=12),
        bom=st.booleans(),
        crlf=st.booleans(),
        min_count=st.integers(1, 4),
    )
    @example(lines=[["σπάνιο1"], [], ["a", "a"], ["σπάνιο2", "..."]], bom=True, crlf=False,
             min_count=2)
    @pytest.mark.parametrize("slice_", [1, 7, 1 << 16])
    def test_equals_counter_and_encode(self, tmp_path, monkeypatch, slice_, lines, bom, crlf,
                                       min_count):
        # blank lines, lines of out-of-vocabulary words only, a leading BOM;
        # slices of one id, of a few and of more ids than the corpus has
        monkeypatch.setattr(corpus, "SLICE", slice_)
        text = "".join(" ".join(words) + ("\r\n" if crlf else "\n") for words in lines)
        path = tmp_path / "corpus.txt"
        path.write_bytes((codecs.BOM_UTF8 if bom else b"") + text.encode("utf-8"))
        try:
            vocab, expected = reference_encoding(text, min_count)
        except MetlitError:  # no token reaches min_count, or there is none
            with pytest.raises(MetlitError, match="corpus is empty|empty vocabulary"):
                read_encoded(str(path), min_count)
            return
        got_vocab, encoded = read_encoded(str(path), min_count)
        assert (got_vocab.words, got_vocab.freq) == (vocab.words, vocab.freq)
        assert encoded.tokens.dtype == np.int32 and encoded.offsets.dtype == np.int64
        assert [s.tolist() for s in encoded] == expected
        assert encoded.read == len(tokenize(text))
        # against a loaded vocabulary: the words of the first line only
        first = tokenize(" ".join(lines[0]))
        given_vocab = build_vocabulary([first], 1) if first else vocab
        _, expected = reference_encoding(text, vocab=given_vocab)
        if not expected:
            with pytest.raises(MetlitError, match="no token is in the vocabulary"):
                read_encoded(str(path), vocab=given_vocab)
            return
        got_vocab, encoded = read_encoded(str(path), vocab=given_vocab)
        assert got_vocab is given_vocab
        assert [s.tolist() for s in encoded] == expected

    def test_reads_the_corpus_through_read_corpus_lines(self, tmp_path, monkeypatch):
        # a tracer that replaces the module's reader sees every line
        path = tmp_path / "corpus.txt"
        path.write_text("a b\n\nb\n", encoding="utf-8")
        seen = []
        real = corpus.read_corpus_lines
        monkeypatch.setattr(corpus, "read_corpus_lines",
                            lambda p: (seen.append(t) or t for t in real(p)))
        _, encoded = read_encoded(str(path))
        assert seen == [["a", "b"], [], ["b"]]
        assert encoded.offsets.tolist() == [0, 2, 3]

    @pytest.mark.parametrize("text", ["", "\n...\n \n"])
    def test_corpus_without_tokens_is_an_error_naming_it(self, tmp_path, text):
        path = tmp_path / "corpus.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(MetlitError, match="corpus is empty") as exc:
            read_encoded(str(path))
        assert str(exc.value) == f"corpus is empty: {path}"

    def test_no_token_in_the_vocabulary_is_an_error_naming_the_file(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("δέλτα ε\n", encoding="utf-8")
        vocab = build_vocabulary([["alpha", "beta"]], min_count=1)
        with pytest.raises(MetlitError, match="no token is in the vocabulary") as exc:
            read_encoded(str(path), vocab=vocab)
        assert str(exc.value) == f"{path}: no token is in the vocabulary of 2 words"

    @pytest.mark.memory
    def test_working_memory_is_a_few_bytes_a_token(self, tmp_path):
        # about 1M tokens on Zipf-drawn words, some below min_count; held
        # as str token lists and then id lists, this corpus peaks at about
        # 117 bytes a token, and counted by one np.bincount over all the
        # ids (an intp copy of them) at 15.6; counted, remapped and
        # compacted a slice at a time in place, at about 11.4
        rng = np.random.default_rng(0)
        p = 1.0 / np.arange(1, 20_001)
        ids = rng.choice(20_000, size=1_000_000, p=p / p.sum())
        words = np.array([f"λέξη{r}" for r in range(20_000)])
        path = tmp_path / "corpus.txt"
        with open(path, "w", encoding="utf-8") as fh:
            for a in range(0, len(ids), 14):
                fh.write(" ".join(words[ids[a:a + 14]]) + "\n")
        del words
        (vocab, encoded), peak = traced_peak(read_encoded, str(path), 5)
        assert len(encoded.tokens) == sum(vocab.freq.values()) > 0.98 * len(ids)
        assert peak <= 13 * len(ids), f"{peak / len(ids):.1f} bytes a token"


class TestEncoded:
    def test_iterates_sentences_and_their_lengths(self):
        encoded = as_encoded([[4, 5], [], [6], [7, 8, 9]])
        assert [s.tolist() for s in encoded] == [[4, 5], [], [6], [7, 8, 9]]
        assert encoded.lengths().tolist() == [2, 0, 1, 3]


class TestLabeledPhrases:
    def test_metaphor_line_parses(self, tmp_path):
        path = tmp_path / "phrases.tsv"
        path.write_text(
            "metaphor\tανοίγω\tανοίγω τους ορίζοντές μου\n", encoding="utf-8"
        )
        (phrase,) = load_labeled_phrases(str(path))
        assert phrase.label == METAPHOR
        assert phrase.verb == "ανοίγω"
        assert phrase.tokens == ["ανοίγω", "τους", "ορίζοντές", "μου"]

    def test_literal_line_parses(self, tmp_path):
        path = tmp_path / "phrases.tsv"
        path.write_text("literal\tανοίγω\tανοίγω την πόρτα\n", encoding="utf-8")
        (phrase,) = load_labeled_phrases(str(path))
        assert phrase.label == LITERAL

    def test_unknown_label_is_an_error_with_line_number(self, tmp_path):
        path = tmp_path / "phrases.tsv"
        path.write_text("literal\tx\tx y\nfigurative\tx\tx y\n", encoding="utf-8")
        with pytest.raises(MetlitError, match="line 2: unknown label 'figurative'") as exc:
            load_labeled_phrases(str(path))
        assert "line 2" in str(exc.value)
        assert "figurative" in str(exc.value)

    def test_missing_column_is_an_error(self, tmp_path):
        path = tmp_path / "phrases.tsv"
        path.write_text("literal\tx y\n", encoding="utf-8")
        with pytest.raises(MetlitError, match="line 1: expected 3 tab-separated columns") as exc:
            load_labeled_phrases(str(path))
        assert "line 1" in str(exc.value)

    def test_verb_absent_from_sentence_is_an_error(self, tmp_path):
        path = tmp_path / "phrases.tsv"
        path.write_text("literal\tκλείνω\tανοίγω την πόρτα\n", encoding="utf-8")
        with pytest.raises(MetlitError, match="verb 'κλείνω' absent from phrase tokens") as exc:
            load_labeled_phrases(str(path))
        assert "κλείνω" in str(exc.value)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "phrases.tsv"
        path.write_text("\nliteral\ta\ta b\n\n", encoding="utf-8")
        assert len(load_labeled_phrases(str(path))) == 1

    @pytest.mark.parametrize("text", ["", "\n \n"])
    def test_file_without_phrases_is_an_error_naming_it(self, tmp_path, text):
        path = tmp_path / "phrases.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(MetlitError, match="empty phrase file") as exc:
            load_labeled_phrases(str(path))
        assert str(exc.value) == f"{path}: empty phrase file"

    def test_byte_order_mark_before_first_label(self, tmp_path):
        path = tmp_path / "phrases.tsv"
        path.write_bytes(codecs.BOM_UTF8 + "literal\tανοίγω\tανοίγω την πόρτα\n".encode("utf-8"))
        (phrase,) = load_labeled_phrases(str(path))
        assert phrase.label == LITERAL

    def test_verb_case_normalized_like_sentence(self, tmp_path):
        path = tmp_path / "phrases.tsv"
        path.write_text("literal\tΑνοίγω\tανοίγω την πόρτα\n", encoding="utf-8")
        (phrase,) = load_labeled_phrases(str(path))
        assert phrase.verb == "ανοίγω"

    def test_constructor_rejects_bad_label_and_missing_verb(self):
        with pytest.raises(MetlitError, match="unknown label 'other'"):
            LabeledPhrase(tokens=["a"], verb="a", label="other")
        with pytest.raises(MetlitError, match="verb 'b' absent from phrase tokens"):
            LabeledPhrase(tokens=["a"], verb="b", label=LITERAL)


def test_vocabulary_rejects_duplicate_words():
    with pytest.raises(MetlitError, match="duplicate word in vocabulary"):
        Vocabulary(["a", "a"], {"a": 2})
