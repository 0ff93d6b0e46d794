import pytest

from metlit import LITERAL, METAPHOR
from metlit.corpus import (
    CorpusError,
    LabeledPhrase,
    Vocabulary,
    build_vocabulary,
    count_tokens,
    load_labeled_phrases,
    load_vocabulary,
    read_corpus_lines,
    read_lines,
    save_vocabulary,
    tokenize,
    vocabulary_from_counts,
)


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


class TestDecodeUtf8:
    def test_valid_bytes(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes("θάλασσα\n".encode("utf-8"))
        assert list(read_lines(str(path))) == [(f"{path}, line 1", "θάλασσα\n")]

    def test_invalid_byte_reports_absolute_offset(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"x" * 99 + b"\nab\xffcd")
        with pytest.raises(CorpusError) as exc:
            list(read_lines(str(path)))
        assert str(exc.value) == f"{path}, line 2: invalid UTF-8 at byte 102"


class TestVocabulary:
    def test_counts_and_ids_min_count_1(self):
        vocab = vocabulary_from_counts(count_tokens([["a", "b", "a"]]), min_count=1)
        assert len(vocab) == 2
        assert vocab._ids["a"] == 0 and vocab.freq["a"] == 2
        assert vocab._ids["b"] == 1 and vocab.freq["b"] == 1

    def test_min_count_threshold_drops_rare_words(self):
        vocab = vocabulary_from_counts(count_tokens([["a", "b", "a"]]), min_count=2)
        assert vocab.words == ["a"]

    def test_all_below_threshold_is_an_error(self):
        with pytest.raises(CorpusError):
            vocabulary_from_counts(count_tokens([["x", "y"]]), min_count=3)

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
        assert load_vocabulary(str(path)) == vocab

    def test_load_empty_file_is_an_error(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("")
        with pytest.raises(CorpusError):
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
        with pytest.raises(CorpusError) as exc:
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
        with pytest.raises(CorpusError) as exc:
            list(read_corpus_lines(str(path)))
        expected_offset = len("καλό\n".encode("utf-8")) + 1
        assert str(expected_offset) in str(exc.value)


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
        with pytest.raises(CorpusError) as exc:
            load_labeled_phrases(str(path))
        assert "line 2" in str(exc.value)
        assert "figurative" in str(exc.value)

    def test_missing_column_is_an_error(self, tmp_path):
        path = tmp_path / "phrases.tsv"
        path.write_text("literal\tx y\n", encoding="utf-8")
        with pytest.raises(CorpusError) as exc:
            load_labeled_phrases(str(path))
        assert "line 1" in str(exc.value)

    def test_verb_absent_from_sentence_is_an_error(self, tmp_path):
        path = tmp_path / "phrases.tsv"
        path.write_text("literal\tκλείνω\tανοίγω την πόρτα\n", encoding="utf-8")
        with pytest.raises(CorpusError) as exc:
            load_labeled_phrases(str(path))
        assert "κλείνω" in str(exc.value)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "phrases.tsv"
        path.write_text("\nliteral\ta\ta b\n\n", encoding="utf-8")
        assert len(load_labeled_phrases(str(path))) == 1

    def test_verb_case_normalized_like_sentence(self, tmp_path):
        path = tmp_path / "phrases.tsv"
        path.write_text("literal\tΑνοίγω\tανοίγω την πόρτα\n", encoding="utf-8")
        (phrase,) = load_labeled_phrases(str(path))
        assert phrase.verb == "ανοίγω"

    def test_constructor_rejects_bad_label_and_missing_verb(self):
        with pytest.raises(CorpusError):
            LabeledPhrase(tokens=["a"], verb="a", label="other")
        with pytest.raises(CorpusError):
            LabeledPhrase(tokens=["a"], verb="b", label=LITERAL)


def test_vocabulary_rejects_duplicate_words():
    with pytest.raises(CorpusError):
        Vocabulary(["a", "a"], {"a": 2})
