import codecs
import errno
import importlib
import io
import json
import math
import os
import pkgutil
import statistics
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metlit
from metlit import MetlitError, cbow, classifier, cli, glove
from metlit.classifier import kfold_split, lambda_range, load_model, train_svm
from metlit.cooccur import RECORD, load_table
from metlit.corpus import load_vocabulary, read_corpus_lines
from metlit.embeddings import load_embeddings

from metlit.sentvec import load_sentence_vectors, save_sentence_vectors

from helpers import (
    make_blobs,
    reference_pegasos,
    verb_object_corpus,
    write_corpus,
    write_lines,
)


@pytest.fixture
def workspace(tmp_path):
    rng = np.random.default_rng(0)
    corpus_sents, labeled = verb_object_corpus(rng, n_sentences=60, n_labeled=12)
    corpus_path = tmp_path / "corpus.txt"
    labeled_path = tmp_path / "labeled.tsv"
    write_corpus(corpus_path, corpus_sents)
    write_lines(labeled_path, labeled)
    out = tmp_path / "out"
    return {
        "corpus": str(corpus_path),
        "labeled": str(labeled_path),
        "out": str(out),
    }


@pytest.fixture
def trained_out(workspace, capsys):
    """Workspace with vocabulary and co-occurrence artifacts written."""
    out = workspace["out"]
    for argv in (
        ["vocab", "--corpus", workspace["corpus"], "--min-count", "1"],
        ["cooccur", "--corpus", workspace["corpus"]],
    ):
        assert run_cli(capsys, argv + ["--out", out])[0] == 0
    return workspace


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    summary = json.loads(captured.out) if captured.out.strip() else None
    return code, summary, captured.err


class TestVocabCommand:
    def test_three_word_corpus_yields_three_entries(self, tmp_path, capsys):
        corpus_path = tmp_path / "tiny.txt"
        corpus_path.write_text("alpha beta gamma\n", encoding="utf-8")
        out = tmp_path / "out"
        code, summary, _ = run_cli(
            capsys,
            ["vocab", "--corpus", str(corpus_path), "--min-count", "1",
             "--out", str(out)],
        )
        assert code == 0
        assert summary["vocab_size"] == 3
        vocab = load_vocabulary(str(out / cli.VOCAB_FILE))
        assert len(vocab) == 3

    def test_min_count_filters(self, tmp_path, capsys):
        corpus_path = tmp_path / "tiny.txt"
        corpus_path.write_text("a a b\n", encoding="utf-8")
        out = tmp_path / "out"
        code, summary, _ = run_cli(
            capsys,
            ["vocab", "--corpus", str(corpus_path), "--min-count", "2",
             "--out", str(out)],
        )
        assert code == 0 and summary["vocab_size"] == 1

    def test_total_tokens_counts_the_tokens_the_cut_drops(self, tmp_path, capsys):
        # the singletons "c" and "d" fall below --min-count 2, and "d"'s line empties
        corpus_path = tmp_path / "tiny.txt"
        corpus_path.write_text("a a b c\nd\nb a\n", encoding="utf-8")
        code, summary, _ = run_cli(
            capsys,
            ["vocab", "--corpus", str(corpus_path), "--min-count", "2",
             "--out", str(tmp_path / "out")],
        )
        assert code == 0 and summary["vocab_size"] == 2
        assert (summary["total_tokens"], summary["vocab_tokens"]) == (7, 5)

    def test_missing_corpus_fails_before_writing(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, summary, err = run_cli(
            capsys,
            ["vocab", "--corpus", str(tmp_path / "nope.txt"), "--out", str(out)],
        )
        assert code == 1
        assert summary is None
        assert "nope.txt" in err
        assert not out.exists()  # nothing written on failure

    @pytest.mark.parametrize("command", ["vocab", "pipeline"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_min_count_below_one_is_a_one_line_error(self, workspace, capsys, command, value):
        labeled = ["--labeled", workspace["labeled"]] if command == "pipeline" else []
        code, summary, err = run_cli(capsys, [
            command, "--corpus", workspace["corpus"], *labeled, "--min-count", value,
            "--out", workspace["out"],
        ])
        assert code == 1 and summary is None
        assert err == f"error: --min-count must be >= 1, got {value}\n"
        assert not os.path.exists(workspace["out"])

    def test_empty_corpus_is_an_error(self, tmp_path, capsys):
        corpus_path = tmp_path / "empty.txt"
        corpus_path.write_text("\n\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys,
            ["vocab", "--corpus", str(corpus_path), "--out", str(tmp_path / "o")],
        )
        assert code == 1 and "empty" in err


class TestArgumentErrors:
    def test_unknown_flag_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["vocab", "--corpus", "x", "--out", "y", "--bogus"])
        assert exc.value.code != 0

    def test_missing_subcommand_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code != 0

    @pytest.mark.parametrize("argv", [
        ["pipeline", "--corpus", "x", "--labeled", "y", "--model", "elmo"],
        ["cooccur", "--corpus", "x", "--cooccur-weighting", "gaussian"],
        ["embed", "--labeled", "x", "--aggregate", "max"],
    ])
    def test_bad_choice_exits_nonzero(self, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--out", "z"])
        assert exc.value.code != 0


# Every numeric option's range as the error line states it, and values
# just outside it, stated apart from cli.OPTIONS. Values are passed as
# --flag=value, which argparse takes for any value starting with "-".
RANGES = {
    "min-count": (">= 1", ["0", "-3"]),
    "window": (">= 1", ["0", "-1"]),
    "dim": (">= 1", ["0", "-1"]),
    "negatives": (">= 1", ["0", "-1"]),
    "epochs": (">= 0", ["-1"]),
    "svm-epochs": (">= 0", ["-1"]),
    "seed": (">= 0", ["-1"]),
    "folds": (">= 2", ["1", "-2"]),
    "alpha-exp": ("in (0, 1]", ["0", "1.0000000000000002", "nan", "inf", "-inf"]),
    "alpha": ("in (0, 1)", ["0", "1", "nan", "inf", "-inf"]),
    **{flag: ("finite and > 0", ["0", "-5e-324", "nan", "inf", "-inf"])
       for flag in ("lr", "xmax", "svm-lambda")},
}
# the lowest and a high accepted value of each
EDGES = {
    **{flag: ("1", "1000000000000") for flag in ("min-count", "window", "dim", "negatives")},
    **{flag: ("0", "1000000000000") for flag in ("epochs", "svm-epochs", "seed")},
    "folds": ("2", "1000000000000"),
    "alpha-exp": ("5e-324", "1"),
    "alpha": ("5e-324", "0.9999999999999999"),
    **{flag: ("5e-324", "1.7976931348623157e308") for flag in ("lr", "xmax", "svm-lambda")},
}
GLOVE_ONLY = ("xmax", "alpha-exp")  # a cbow pipeline ignores them, as glove ignores --negatives


class TestSettingRanges:
    CASES = [(command, flag, value)
             for command, (_, options, _) in cli.COMMANDS.items()
             for flag in options.split() if flag in RANGES
             for value in RANGES[flag][1]]

    def test_every_bounded_option_is_listed(self):
        assert {flag for flag, keywords in cli.OPTIONS.items() if "range" in keywords} \
            == set(RANGES) == set(EDGES)

    @pytest.mark.parametrize("command, flag, value", CASES)
    def test_value_outside_the_range_fails_before_any_input_is_read(
        self, tmp_path, capsys, command, flag, value
    ):
        # no artifact in --out and no input file: any read would fail otherwise
        options = cli.COMMANDS[command][1].split()
        argv = [command, f"--{flag}={value}", "--out", str(tmp_path / "out")]
        for name in ("corpus", "labeled"):
            if name in options:
                argv += [f"--{name}", str(tmp_path / f"missing-{name}")]
        if command == "pipeline" and flag in GLOVE_ONLY:
            argv += ["--model", "glove"]
        code, summary, err = run_cli(capsys, argv)
        assert code == 1 and summary is None
        parsed = cli.OPTIONS[flag]["type"](value)
        assert err == f"error: --{flag} must be {RANGES[flag][0]}, got {parsed!r}\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("model", ["cbow", "glove"])
    def test_values_at_the_edge_are_accepted(self, monkeypatch, capsys, model, side):
        monkeypatch.setattr(cli, "cmd_pipeline", lambda args: {"ran": True})
        code, summary, err = run_cli(capsys, [
            "pipeline", "--corpus", "c", "--labeled", "l", "--model", model, "--out", "o",
            *(f"--{flag}={values[side]}" for flag, values in EDGES.items()),
        ])
        assert (code, summary, err) == (0, {"ran": True}, "")

    def test_cbow_pipeline_ignores_glove_settings(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "cmd_pipeline", lambda args: {"ran": True})
        code, summary, _ = run_cli(capsys, [
            "pipeline", "--corpus", "c", "--labeled", "l", "--model", "cbow", "--out", "o",
            "--xmax=nan", "--alpha-exp=0",
        ])
        assert (code, summary) == (0, {"ran": True})


class TestStageChaining:
    def test_cooccur_requires_vocabulary_artifact(self, workspace, capsys):
        os.makedirs(workspace["out"], exist_ok=True)
        code, _, err = run_cli(
            capsys,
            ["cooccur", "--corpus", workspace["corpus"], "--out", workspace["out"]],
        )
        assert code == 1 and "vocabulary" in err

    @pytest.mark.parametrize("command", ["cooccur", "train-cbow"])
    def test_corpus_sharing_no_word_with_the_vocabulary_is_a_one_line_error(
        self, workspace, tmp_path, capsys, command
    ):
        out = workspace["out"]
        argv = ["vocab", "--corpus", workspace["corpus"], "--min-count", "1", "--out", out]
        assert run_cli(capsys, argv)[0] == 0
        words = len(load_vocabulary(os.path.join(out, cli.VOCAB_FILE)))
        other = tmp_path / "other.txt"
        other.write_text("Ξένο κείμενο.\n\nάλλες λέξεις\n", encoding="utf-8")
        code, summary, err = run_cli(capsys, [command, "--corpus", str(other), "--out", out])
        assert code == 1 and summary is None
        assert err == f"error: {other}: no token is in the vocabulary of {words} words\n"
        assert os.listdir(out) == [cli.VOCAB_FILE]  # no artifact written

    def test_embed_requires_embeddings_artifact(self, workspace, capsys):
        os.makedirs(workspace["out"], exist_ok=True)
        code, _, err = run_cli(
            capsys,
            ["embed", "--labeled", workspace["labeled"], "--out", workspace["out"]],
        )
        assert code == 1 and "embeddings" in err

    def test_full_cbow_chain(self, workspace, capsys):
        out = workspace["out"]
        code, summary, _ = run_cli(
            capsys,
            ["vocab", "--corpus", workspace["corpus"], "--min-count", "1",
             "--out", out],
        )
        assert code == 0
        vocab_size = summary["vocab_size"]

        code, summary, _ = run_cli(
            capsys,
            ["train-cbow", "--corpus", workspace["corpus"], "--dim", "8",
             "--epochs", "2", "--out", out],
        )
        assert code == 0
        assert len(summary["epoch_losses"]) == 2
        emb = load_embeddings(os.path.join(out, cli.EMBEDDINGS_FILE))
        assert len(emb) == vocab_size and emb.dim == 8

        code, summary, _ = run_cli(
            capsys,
            ["embed", "--labeled", workspace["labeled"], "--out", out],
        )
        assert code == 0
        assert summary["class_counts"] == {"literal": 6, "metaphor": 6}

        code, summary, _ = run_cli(capsys, ["ttest", "--out", out])
        assert code == 0
        assert summary["dimensions"] == 8
        assert os.path.isfile(os.path.join(out, cli.TTEST_FILE))

        code, summary, _ = run_cli(
            capsys,
            ["cv", "--folds", "2", "--svm-epochs", "30", "--out", out],
        )
        assert code == 0
        assert 0.0 <= summary["mean_accuracy"] <= 1.0
        assert summary["fits"] == 3  # two folds plus the full-data model
        assert summary["pegasos_steps"] == 30 * (12 + 12)
        assert sorted(os.listdir(out)) == sorted([  # no .partial file left
            cli.VOCAB_FILE, cli.EMBEDDINGS_FILE, cli.SENTVEC_FILE, cli.TTEST_FILE,
            cli.CV_FILE, cli.MODEL_FILE])

    def test_glove_chain_through_cooccur(self, workspace, capsys):
        out = workspace["out"]
        assert run_cli(
            capsys,
            ["vocab", "--corpus", workspace["corpus"], "--min-count", "1",
             "--out", out],
        )[0] == 0
        code, summary, _ = run_cli(
            capsys,
            ["cooccur", "--corpus", workspace["corpus"], "--window", "4",
             "--out", out],
        )
        assert code == 0 and summary["entries"] > 0
        table = load_table(os.path.join(out, cli.COOCCUR_FILE))
        assert len(table) == summary["entries"]
        code, summary, _ = run_cli(
            capsys,
            ["train-glove", "--dim", "8", "--epochs", "3", "--out", out],
        )
        assert code == 0 and len(summary["epoch_losses"]) == 3


class TestCvSummary:
    def test_margin_violations_match_the_per_sample_loop(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        os.mkdir(out)
        path = os.path.join(out, cli.SENTVEC_FILE)
        save_sentence_vectors(make_blobs(np.random.default_rng(21), n_per_class=15,
                                         dim=3, separation=1.0), path)
        code, summary, _ = run_cli(capsys, ["cv", "--out", out, "--folds", "3", "--seed", "4",
                                            "--svm-lambda", "0.01", "--svm-epochs", "7"])
        assert code == 0
        data = load_sentence_vectors(path)
        folds = kfold_split(data.metaphor, 3, seed=4)
        everything = np.arange(len(data))
        runs = [(np.setdiff1d(everything, fold), 4 + f) for f, fold in enumerate(folds)]
        counts = [reference_pegasos(data[rows], 0.01, 7, seed)[1]
                  for rows, seed in runs + [(everything, 4)]]
        assert summary["margin_violations"] == sum(counts)
        assert 0 < sum(counts) < summary["pegasos_steps"] == 7 * (2 * 30 + 30)

    def test_std_accuracy_is_the_sample_deviation_of_the_folds(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        os.mkdir(out)
        data = make_blobs(np.random.default_rng(8), n_per_class=20, dim=3, separation=0.8)
        save_sentence_vectors(data, os.path.join(out, cli.SENTVEC_FILE))
        code, summary, _ = run_cli(capsys, ["cv", "--out", out, "--folds", "4",
                                            "--svm-epochs", "5"])
        assert code == 0
        report = classifier.cross_validate(data, k=4, epochs=5)
        accuracies = [m.accuracy for m in report.per_fold]
        assert len(set(accuracies)) > 1
        assert summary["std_accuracy"] == pytest.approx(statistics.stdev(accuracies),
                                                        rel=1e-12)

    def test_cv_after_a_larger_cv_in_one_process_writes_the_same_bytes(self, tmp_path,
                                                                        capsys):
        # nothing a wider, longer cv leaves behind reaches a later cv's files
        outs = {}
        for name, n, dim in (("small", 20, 3), ("large", 60, 7)):
            outs[name] = str(tmp_path / name)
            os.mkdir(outs[name])
            data = make_blobs(np.random.default_rng(n), n_per_class=n, dim=dim, separation=1.0)
            save_sentence_vectors(data, os.path.join(outs[name], cli.SENTVEC_FILE))

        def cv(out):
            code, summary, _ = run_cli(capsys, ["cv", "--folds", "4", "--svm-epochs", "6",
                                                "--out", out])
            assert code == 0
            files = []
            for name in (cli.CV_FILE, cli.MODEL_FILE):
                with open(os.path.join(out, name), "rb") as fh:
                    files.append(fh.read())
            return summary, files

        first = cv(outs["small"])
        cv(outs["large"])
        assert cv(outs["small"]) == first


class TestCvImports:
    @staticmethod
    def new_imports(argv: list[str]) -> tuple[dict, str]:
        """The summary of `metlit argv` run in a fresh interpreter, and the
        masked-array and process-pool modules it imported; numpy 1.x imports
        numpy.ma with numpy itself, so only the command's own imports count."""
        script = "\n".join([
            "import sys",
            "from metlit import cli",
            "before = set(sys.modules)",
            "code = cli.main(sys.argv[1:])",
            "print(sorted(m for m in set(sys.modules) - before",
            "             if m.split('.')[0] in ('multiprocessing', 'concurrent')",
            "             or m.startswith('numpy.ma')))",
            "sys.exit(code)",
        ])
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
        done = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                              text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        summary, modules = done.stdout.splitlines()
        return json.loads(summary), modules

    @staticmethod
    def saved_vectors(tmp_path) -> str:
        out = str(tmp_path / "out")
        os.mkdir(out)
        data = make_blobs(np.random.default_rng(30), n_per_class=20, dim=3, separation=1.0)
        save_sentence_vectors(data, os.path.join(out, cli.SENTVEC_FILE))
        return out

    def test_cv_imports_no_masked_arrays_or_process_pool(self, tmp_path):
        out = self.saved_vectors(tmp_path)
        summary, modules = self.new_imports(["cv", "--folds", "4", "--svm-epochs", "6",
                                             "--out", out])
        assert summary["fits"] == 5
        assert modules == "[]"

    def test_ttest_imports_no_masked_arrays_or_process_pool(self, tmp_path):
        summary, modules = self.new_imports(["ttest", "--out", self.saved_vectors(tmp_path)])
        assert summary["dimensions"] == 3
        assert modules == "[]"

    @pytest.mark.parametrize("model", ["cbow", "glove"])
    def test_pipeline_imports_no_masked_arrays_or_process_pool(self, workspace, model):
        summary, modules = self.new_imports([
            "pipeline", "--corpus", workspace["corpus"], "--labeled", workspace["labeled"],
            "--model", model, "--min-count", "1", "--dim", "4", "--epochs", "1",
            "--folds", "2", "--svm-epochs", "5", "--out", workspace["out"],
        ])
        assert summary["model"] == model
        assert modules == "[]"


class TestCvErrors:
    def write_vectors(self, tmp_path, rows):
        out = tmp_path / "out"
        out.mkdir()
        write_lines(out / cli.SENTVEC_FILE, rows)
        return str(out)

    def test_fold_losing_a_class_is_a_one_line_error(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        rows = [f"literal 1/1 {a:.3f} {b:.3f}" for a, b in rng.normal(0, 1, (20, 2))]
        out = self.write_vectors(tmp_path, rows + ["metaphor 1/1 0.5 0.5"])
        code, summary, err = run_cli(capsys, ["cv", "--out", out])
        assert code == 1 and summary is None
        assert err == "error: fold 0: training split lost a class\n"
        assert not os.path.exists(os.path.join(out, cli.CV_FILE))

    @pytest.mark.parametrize("label, counts", [
        ("literal", "literal=6, metaphor=0"), ("metaphor", "literal=0, metaphor=6"),
    ])
    def test_single_class_vectors_are_a_one_line_error(self, tmp_path, capsys, label, counts):
        rng = np.random.default_rng(3)
        out = self.write_vectors(tmp_path, [f"{label} 1/1 {a:.3f} {b:.3f}"
                                            for a, b in rng.normal(0, 1, (6, 2))])
        code, summary, err = run_cli(capsys, ["cv", "--folds", "2", "--out", out])
        assert code == 1 and summary is None
        assert err == f"error: need >= 1 member per class, got {counts}\n"
        assert os.listdir(out) == [cli.SENTVEC_FILE]

    def test_non_finite_vector_is_a_one_line_error(self, tmp_path, capsys):
        out = self.write_vectors(
            tmp_path, ["literal 1/1 0.5 0.5", "metaphor 1/1 nan 0.5"]
        )
        code, summary, err = run_cli(capsys, ["cv", "--out", out])
        assert code == 1 and summary is None
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "line 2" in err and "non-finite" in err

    @pytest.mark.parametrize("flag, value, message", [
        ("--svm-lambda", "0", "--svm-lambda must be finite and > 0, got 0.0"),
        ("--svm-lambda", "-1", "--svm-lambda must be finite and > 0, got -1.0"),
        ("--svm-epochs", "-1", "--svm-epochs must be >= 0, got -1"),
        ("--seed", "-1", "--seed must be >= 0, got -1"),
        ("--folds", "13", "--folds must be <= the number of sentence vectors 12, got 13"),
    ])
    def test_invalid_setting_is_a_one_line_error(
        self, tmp_path, capsys, flag, value, message
    ):
        rng = np.random.default_rng(4)
        rows = [f"{label} 1/1 {a:.3f} {b:.3f}"
                for label in ("literal", "metaphor") for a, b in rng.normal(0, 1, (6, 2))]
        out = self.write_vectors(tmp_path, rows)
        code, summary, err = run_cli(capsys, ["cv", flag, value, "--out", out])
        assert code == 1 and summary is None
        assert err == f"error: {message}\n"
        assert not os.path.exists(os.path.join(out, cli.MODEL_FILE))

    @pytest.mark.parametrize("fail", [0, 2, 4], ids=["first-fold", "third-fold", "full-data"])
    def test_failing_fit_is_one_error_line_and_writes_nothing(
        self, tmp_path, capsys, monkeypatch, fail
    ):
        # 4 folds, then the full data: the fit of run `fail` fails
        out = str(tmp_path / "out")
        os.mkdir(out)
        data = make_blobs(np.random.default_rng(30), n_per_class=20, dim=3, separation=1.0)
        save_sentence_vectors(data, os.path.join(out, cli.SENTVEC_FILE))
        real_fit, fitted = classifier._fit, []

        def fit(vectors, rows, seed, lam, epochs, *buffers):
            if len(fitted) == fail:
                raise MetlitError(f"run {fail} failed")
            fitted.append(seed)
            return real_fit(vectors, rows, seed, lam, epochs, *buffers)

        monkeypatch.setattr(classifier, "_fit", fit)
        code, summary, err = run_cli(capsys, ["cv", "--folds", "4", "--svm-epochs", "6",
                                              "--out", out])
        assert code == 1 and summary is None
        assert err == f"error: run {fail} failed\n" and len(fitted) == fail
        assert sorted(os.listdir(out)) == [cli.SENTVEC_FILE]


class TestOverflow:
    """Finite inputs whose sums or squares leave the float range: one error
    line naming the phrase or the dimension, no RuntimeWarning, no artifact."""

    @pytest.mark.parametrize("lines, phrase", [
        (["metaphor\tbig\tthe big dog", "literal\tdog\tthe dog"], 1),
        (["literal\tdog\tthe dog", "", "metaphor\tbig\tthe big dog"], 2),
    ])
    def test_embed_sum_past_the_float_range(self, tmp_path, capsys, lines, phrase):
        out = tmp_path / "out"
        out.mkdir()
        write_lines(out / cli.EMBEDDINGS_FILE, ["3 2", "the 1e308 1", "big 1e308 2", "dog 1 1"])
        write_lines(tmp_path / "labeled.tsv", lines)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, summary, err = run_cli(
                capsys, ["embed", "--labeled", str(tmp_path / "labeled.tsv"), "--out", str(out)])
        assert code == 1 and summary is None
        assert err == f"error: phrase {phrase}: the sum of its token vectors is not finite\n"
        assert os.listdir(out) == [cli.EMBEDDINGS_FILE]

    @staticmethod
    def write_vectors(tmp_path, first_column):
        """Six vectors of dimension 2, three of each class, under tmp_path/out."""
        out = tmp_path / "out"
        out.mkdir()
        second = [("literal", 0.5), ("literal", 0.1), ("literal", 0.9),
                  ("metaphor", 1.5), ("metaphor", 1.1), ("metaphor", 1.9)]
        write_lines(out / cli.SENTVEC_FILE, [
            f"{label} 1/1 {a} {b}" for a, (label, b) in zip(first_column, second)])
        return out

    @pytest.mark.parametrize("magnitude", ["1e154", "1e200", "1e308"])
    @pytest.mark.parametrize("argv, message", [
        (["ttest"], "the Welch t or df is not finite"),
        (["cv", "--folds", "2"], "the mean or std of its values is not finite"),
    ], ids=["ttest", "cv"])
    def test_squares_past_the_float_range(self, tmp_path, capsys, magnitude, argv, message):
        out = self.write_vectors(tmp_path, [sign + magnitude for sign in ("", "-") * 3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, summary, err = run_cli(capsys, argv + ["--out", str(out)])
        assert code == 1 and summary is None
        assert err == f"error: dimension 0: {message}\n"
        assert os.listdir(out) == [cli.SENTVEC_FILE]

    def test_norm_past_the_float_range_is_named(self, tmp_path, capsys):
        # dimension 0 is flat, so it has no test, but every norm overflows
        out = self.write_vectors(tmp_path, ["1e200"] * 6)
        code, summary, err = run_cli(capsys, ["ttest", "--out", str(out)])
        assert code == 1 and summary is None
        assert err == "error: norm: the Welch t or df is not finite\n"
        assert os.listdir(out) == [cli.SENTVEC_FILE]


class TestSvmLambdaRange:
    @pytest.fixture(scope="class")
    def out(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("lambda")
        data = make_blobs(np.random.default_rng(21), n_per_class=30, dim=12, separation=1.0)
        save_sentence_vectors(data, str(out / cli.SENTVEC_FILE))
        return str(out)

    @settings(deadline=None, max_examples=60)
    @given(exponent=st.floats(-320.0, math.log10(1e308)))
    def test_finite_model_or_one_error_line(self, out, exponent):
        # log-uniform over the positive floats: an overflow, a division by
        # zero or a NaN must not pass silently as a model
        lam = 10.0 ** exponent
        for name in (cli.CV_FILE, cli.MODEL_FILE):
            if os.path.exists(os.path.join(out, name)):
                os.remove(os.path.join(out, name))
        err = io.StringIO()
        with warnings.catch_warnings(), redirect_stderr(err), redirect_stdout(io.StringIO()):
            warnings.simplefilter("error")
            code = cli.main(["cv", "--svm-lambda", repr(lam), "--svm-epochs", "5",
                             "--folds", "3", "--out", out])
        err = err.getvalue()
        if code == 1:
            assert err.startswith("error: --svm-lambda must lie in [") and err.count("\n") == 1
            assert not os.path.exists(os.path.join(out, cli.MODEL_FILE))
            return
        assert code == 0
        model = load_model(os.path.join(out, cli.MODEL_FILE))
        assert np.isfinite(model.weights).all() and math.isfinite(model.bias)
        assert model.weights.any()

    @pytest.mark.parametrize("lam", [1e-320, 1e-300, 1e308])
    def test_lambdas_that_failed_silently_are_rejected(self, out, capsys, lam):
        code, summary, err = run_cli(capsys, ["cv", "--svm-lambda", repr(lam), "--out", out])
        assert code == 1 and summary is None
        assert err.startswith("error: --svm-lambda must lie in [")
        assert err.endswith(f" for 100 epochs over 60 vectors, got {lam!r}\n")

    def test_range_ends_match_the_per_sample_loop(self, out):
        data = load_sentence_vectors(os.path.join(out, cli.SENTVEC_FILE))
        for lam in lambda_range(len(data), data.values.shape[1], 3):
            model = train_svm(data, lam=lam, epochs=3)
            ref = reference_pegasos(data, lam, 3, 0)[0]
            for got, want in ((model.weights, ref.weights), (model.bias, ref.bias)):
                assert np.abs(got - want).max() <= 1e-7 * np.abs(ref.weights).max()

    def test_non_finite_model_names_the_fold(self, out, capsys, monkeypatch):
        real_fit = classifier._fit

        def fit(vectors, rows, seed, lam, epochs, *buffers):
            model, updates = real_fit(vectors, rows, seed, lam, epochs, *buffers)
            if seed == 1:
                model.bias = math.inf
            return model, updates

        monkeypatch.setattr(classifier, "_fit", fit)
        code, _, err = run_cli(capsys, ["cv", "--seed", "0", "--out", out])
        assert code == 1
        assert err == "error: fold 1: the SVM model is not finite\n"


class TestFrozenReports:
    """`ttest` and `cv` reports of a small seeded file, frozen as text."""

    TTEST = (
        "dimension\tt\tdf\tp\tsignificant\n"
        "0\t-4.234867\t21.982253\t0.000340474\ttrue\n"
        "1\t1.163600\t20.361652\t0.258041\tfalse\n"
        "2\t-2.176643\t19.478097\t0.0419984\ttrue\n"
        "norm\t-0.569448\t20.855875\t0.575135\tfalse\n"
    )
    CV = (
        "fold\taccuracy\tprecision\ttp\tfp\ttn\tfn\n"
        "0\t0.800000\t0.666667\t2\t1\t2\t0\n"
        "1\t0.800000\t1.000000\t1\t0\t3\t1\n"
        "2\t0.600000\t0.600000\t3\t2\t0\t0\n"
        "3\t0.600000\t1.000000\t1\t0\t2\t2\n"
        "4\t0.750000\t0.666667\t2\t1\t1\t0\n"
        "mean\t0.710000\t0.786667\t\t\t\t\n"
    )

    def test_reports_match_frozen_text(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        os.mkdir(out)
        data = make_blobs(np.random.default_rng(20), n_per_class=12, dim=3,
                          separation=2.0)
        save_sentence_vectors(data, os.path.join(out, cli.SENTVEC_FILE))
        assert run_cli(capsys, ["ttest", "--out", out])[0] == 0
        assert run_cli(capsys, ["cv", "--out", out, "--folds", "5",
                                "--svm-epochs", "20"])[0] == 0
        with open(os.path.join(out, cli.TTEST_FILE), encoding="utf-8") as fh:
            assert fh.read() == self.TTEST
        with open(os.path.join(out, cli.CV_FILE), encoding="utf-8") as fh:
            assert fh.read() == self.CV


class TestErrorContract:
    def test_metlit_error_is_the_only_exception_class(self):
        names = ["metlit", *(m.name for m in pkgutil.iter_modules(metlit.__path__, "metlit."))]
        defined = [cls for name in names for cls in vars(importlib.import_module(name)).values()
                   if isinstance(cls, type) and issubclass(cls, BaseException)
                   and cls.__module__ == name]
        assert defined == [MetlitError]

    def test_other_exceptions_are_not_turned_into_error_lines(self, monkeypatch):
        def broken(args):
            raise ValueError("a bug, not a malformed input")
        monkeypatch.setattr(cli, "cmd_ttest", broken)
        with pytest.raises(ValueError, match="a bug"):
            cli.main(["ttest", "--out", "unused"])

    @pytest.fixture
    def done(self, workspace, capsys):
        """Workspace after a whole CBOW pipeline run."""
        assert run_cli(capsys, [
            "pipeline", "--corpus", workspace["corpus"], "--labeled", workspace["labeled"],
            "--dim", "4", "--epochs", "1", "--min-count", "1", "--folds", "2",
            "--svm-epochs", "5", "--out", workspace["out"],
        ])[0] == 0
        return workspace

    @pytest.mark.parametrize("name, lineno, line, argv, message", [
        (cli.SENTVEC_FILE, 2, b"literal 1/1 0.5 \xff\n", ["ttest"],
         "invalid UTF-8 at byte "),
        (cli.VOCAB_FILE, 2, b"w\xff 3\n", ["train-cbow", "--corpus", None],
         "invalid UTF-8 at byte "),
        (cli.VOCAB_FILE, 2, b"zz x\n", ["train-cbow", "--corpus", None],
         "'x' is not a count"),
        (cli.EMBEDDINGS_FILE, 1, b"x 10\n", ["embed", "--labeled", None],
         "'x' is not a count"),
        (cli.EMBEDDINGS_FILE, 1, b"-3 10\n", ["embed", "--labeled", None],
         "'-3' is not a count"),
        (cli.EMBEDDINGS_FILE, 2, b"zz 1 nan 2 3\n", ["embed", "--labeled", None],
         "non-finite value"),
        (cli.EMBEDDINGS_FILE, None, b"zz 1 2 3 4\n", ["embed", "--labeled", None],
         "more rows than the "),
        (cli.EMBEDDINGS_FILE, 3, None, ["embed", "--labeled", None],
         "duplicate word "),
    ])
    def test_malformed_artifact_is_one_line_naming_path_and_line(
        self, done, capsys, name, lineno, line, argv, message
    ):
        """Replace (or, with lineno None, append) one line of an artifact."""
        path = os.path.join(done["out"], name)
        with open(path, "rb") as fh:
            lines = fh.readlines()
        if line is None:  # this line's values under the word of the line before
            word, values = lines[lineno - 2].split(b" ", 1)[0], lines[lineno - 1].split(b" ", 1)[1]
            line = word + b" " + values
        if lineno is None:
            lines.append(line)
            lineno = len(lines)
        else:
            lines[lineno - 1] = line
        with open(path, "wb") as fh:
            fh.writelines(lines)
        argv = [done[argv[k - 1][2:]] if a is None else a for k, a in enumerate(argv)]
        code, summary, err = run_cli(capsys, argv + ["--out", done["out"]])
        assert code == 1 and summary is None
        assert err.startswith(f"error: {path}, line {lineno}: {message}")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_empty_phrase_file_is_a_one_line_error_naming_it(self, done, capsys, tmp_path):
        empty = tmp_path / "empty.tsv"
        empty.write_text("\n", encoding="utf-8")
        code, summary, err = run_cli(
            capsys, ["embed", "--labeled", str(empty), "--out", done["out"]]
        )
        assert code == 1 and summary is None
        assert err == f"error: {empty}: empty phrase file\n"

    @pytest.mark.parametrize("alpha", ["5", "0", "1"])
    def test_alpha_outside_unit_interval_is_a_one_line_error(self, done, capsys, alpha):
        code, summary, err = run_cli(capsys, ["ttest", "--alpha", alpha, "--out", done["out"]])
        assert code == 1 and summary is None
        assert err == f"error: --alpha must be in (0, 1), got {float(alpha)}\n"

    def test_flat_norm_is_a_one_line_error(self, tmp_path, capsys):
        # every vector has unit norm, while both dimensions vary
        rows = ["literal 1/1 1.0 0.0", "literal 1/1 0.6 0.8", "literal 1/1 0.0 1.0",
                "metaphor 1/1 0.8 0.6", "metaphor 1/1 0.0 1.0", "metaphor 1/1 1.0 0.0"]
        out = tmp_path / "out"
        out.mkdir()
        write_lines(out / cli.SENTVEC_FILE, rows)
        code, summary, err = run_cli(capsys, ["ttest", "--out", str(out)])
        assert code == 1 and summary is None
        assert err == "error: norm: both samples have zero variance\n"
        assert not os.path.exists(out / cli.TTEST_FILE)

    def test_flat_dimension_is_reported_as_na(self, tmp_path, capsys):
        values = np.random.default_rng(5).normal(0, 1, (20, 2))
        reports = []
        for flat in (" 0.0", ""):  # a flat middle dimension, then none
            out = tmp_path / f"out{len(flat)}"
            out.mkdir()
            write_lines(out / cli.SENTVEC_FILE, [
                f"{'literal' if r < 10 else 'metaphor'} 1/1 {a:.3f}{flat} {b:.3f}"
                for r, (a, b) in enumerate(values)])
            code, summary, _ = run_cli(capsys, ["ttest", "--out", str(out)])
            assert code == 0
            assert summary["flat_dimensions"] == len(flat) // 4
            reports.append((out / cli.TTEST_FILE).read_text(encoding="utf-8").splitlines())
        with_flat, without = reports
        assert with_flat[2] == "1\tNA\tNA\tNA\tfalse"
        # the other rows are the tests of the same columns without the flat one
        assert with_flat[:2] == without[:2]
        assert with_flat[3] == "2" + without[2][1:] and with_flat[4:] == without[3:]


class TestTrainingErrors:
    @pytest.mark.parametrize("flag, message", [
        ("--negatives", "--negatives must be >= 1, got 0"),
        ("--window", "--window must be >= 1, got 0"),
        ("--dim", "--dim must be >= 1, got 0"),
    ])
    def test_invalid_cbow_setting_is_a_one_line_error(
        self, trained_out, capsys, flag, message
    ):
        code, summary, err = run_cli(
            capsys,
            ["train-cbow", "--corpus", trained_out["corpus"], flag, "0",
             "--out", trained_out["out"]],
        )
        assert code == 1 and summary is None
        assert err == f"error: {message}\n"
        assert not os.path.exists(os.path.join(trained_out["out"], cli.EMBEDDINGS_FILE))

    @pytest.mark.parametrize("argv", [
        ["train-cbow", "--corpus", None, "--epochs", "1"],
        ["train-glove", "--epochs", "1"],
    ])
    def test_diverging_trainer_is_a_one_line_error(self, trained_out, capsys, argv):
        argv = [trained_out["corpus"] if a is None else a for a in argv]
        # an lr this large overflows within the first epoch; any numpy
        # warning on the way would be raised here and fail the test
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, summary, err = run_cli(
                capsys, argv + ["--lr", "1e30", "--out", trained_out["out"]]
            )
        assert code == 1 and summary is None
        assert err == "error: non-finite parameters after epoch 0\n"

    @pytest.mark.parametrize("argv", [
        ["train-cbow", "--corpus", None],
        ["train-glove"],
    ])
    @pytest.mark.parametrize("flag, value, message", [
        ("--lr", "-1", "--lr must be finite and > 0, got -1.0"),
        ("--lr", "0", "--lr must be finite and > 0, got 0.0"),
        ("--epochs", "-1", "--epochs must be >= 0, got -1"),
    ])
    def test_negative_lr_or_epochs_is_a_one_line_error(
        self, trained_out, capsys, argv, flag, value, message
    ):
        argv = [trained_out["corpus"] if a is None else a for a in argv]
        code, summary, err = run_cli(
            capsys, argv + [flag, value, "--out", trained_out["out"]]
        )
        assert code == 1 and summary is None
        assert err == f"error: {message}\n"
        assert not os.path.exists(os.path.join(trained_out["out"], cli.EMBEDDINGS_FILE))

    @pytest.mark.parametrize("argv, message", [
        (["cv", "--folds", "1"], "--folds must be >= 2, got 1"),
        (["cv", "--svm-lambda", "1e-300"], "--svm-lambda must lie in ["),
        (["train-glove", "--xmax", "0"], "--xmax must be finite and > 0, got 0.0"),
        (["train-glove", "--alpha-exp", "-1"], "--alpha-exp must be in (0, 1], got -1.0"),
        (["train-cbow", "--corpus", None, "--negatives", "1000000"],
         "--negatives must be <= the vocabulary size "),
    ])
    def test_error_names_the_flag(self, trained_out, capsys, argv, message):
        argv = [trained_out["corpus"] if a is None else a for a in argv]
        out = trained_out["out"]
        data = make_blobs(np.random.default_rng(5), n_per_class=6, dim=2)
        save_sentence_vectors(data, os.path.join(out, cli.SENTVEC_FILE))
        code, summary, err = run_cli(capsys, argv + ["--out", out])
        assert code == 1 and summary is None
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    def test_corpus_with_no_cbow_window_is_a_one_line_error(self, tmp_path, capsys):
        # every line keeps one in-vocabulary token: no window has a context
        corpus, labeled = str(tmp_path / "corpus.txt"), str(tmp_path / "labeled.tsv")
        write_corpus(corpus, [["alpha"]] * 30 + [["beta"]] * 30)
        write_lines(labeled, ["literal\talpha\talpha beta", "metaphor\tbeta\tbeta alpha"] * 5)
        message = "error: no sentence has two in-vocabulary tokens: CBOW has no window\n"
        out = tmp_path / "pipeline"
        code, summary, err = run_cli(capsys, [
            "pipeline", "--corpus", corpus, "--labeled", labeled, "--model", "cbow",
            "--negatives", "1", "--folds", "2", "--out", str(out)])
        assert (code, summary, err) == (1, None, message)
        assert not out.exists()
        out = tmp_path / "stages"
        assert run_cli(capsys, ["vocab", "--corpus", corpus, "--out", str(out)])[0] == 0
        code, summary, err = run_cli(capsys, [
            "train-cbow", "--corpus", corpus, "--negatives", "1", "--out", str(out)])
        assert (code, summary, err) == (1, None, message)
        assert os.listdir(out) == [cli.VOCAB_FILE]

    def _train_cbow(self, trained_out, capsys, *flags):
        out = trained_out["out"]
        code, summary, err = run_cli(capsys, [
            "train-cbow", "--corpus", trained_out["corpus"], "--dim", "4",
            "--epochs", "1", *flags, "--out", out,
        ])
        if code:
            return code, err
        with open(os.path.join(out, cli.EMBEDDINGS_FILE), "rb") as fh:
            return code, fh.read()

    @pytest.mark.parametrize("window", [10**3, 10**6])
    def test_window_past_the_longest_sentence_is_clamped(
        self, trained_out, capsys, monkeypatch, window
    ):
        longest = max(len(s) for s in read_corpus_lines(trained_out["corpus"]))
        radii = []
        real = cbow.build_windows

        def build_windows(tokens, offsets, positions, m, pad):
            radii.append(m)
            return real(tokens, offsets, positions, m, pad)

        monkeypatch.setattr(cbow, "build_windows", build_windows)
        code, clamped = self._train_cbow(trained_out, capsys, "--window", str(longest - 1))
        assert code == 0
        code, wide = self._train_cbow(trained_out, capsys, "--window", str(window))
        assert code == 0 and wide == clamped
        assert set(radii) == {longest - 1}

    @pytest.mark.parametrize("negatives", [None, 10**6])  # None: one past the vocabulary
    def test_negatives_past_the_vocabulary_are_a_one_line_error(
        self, trained_out, capsys, negatives
    ):
        words = len(load_vocabulary(os.path.join(trained_out["out"], cli.VOCAB_FILE)))
        negatives = negatives or words + 1
        code, _ = self._train_cbow(trained_out, capsys, "--negatives", str(words))
        assert code == 0
        code, err = self._train_cbow(trained_out, capsys, "--negatives", str(negatives))
        assert code == 1
        assert err == (f"error: --negatives must be <= the vocabulary size {words}, "
                       f"got {negatives}\n")

    def test_table_from_a_larger_vocabulary_is_a_one_line_error(
        self, trained_out, capsys
    ):
        # the table was counted over the min-count 1 vocabulary; a smaller
        # vocabulary written after it leaves ids the table still uses
        out = trained_out["out"]
        assert run_cli(
            capsys,
            ["vocab", "--corpus", trained_out["corpus"], "--min-count", "2",
             "--out", out],
        )[0] == 0
        code, summary, err = run_cli(capsys, ["train-glove", "--out", out])
        assert code == 1 and summary is None
        assert err.startswith("error: co-occurrence table has word id ")
        words = len(load_vocabulary(os.path.join(out, cli.VOCAB_FILE)))
        assert err.endswith(f", outside the vocabulary of {words} words\n")

    @pytest.mark.parametrize("records, message", [
        ([(0, 1, 1.0), (0, 1, 1.0)], "record 2 does not follow record 1 in (i, j) order"),
        ([(0, 1, 1.0), (0, 0, 1.0)], "record 2 does not follow record 1 in (i, j) order"),
        ([(0, 1, 1.0), (1, 0, 0.0)], "record 2: count 0.0 is not finite and > 0"),
        ([(0, 1, float("nan"))], "record 1: count nan is not finite and > 0"),
    ])
    def test_malformed_table_is_a_one_line_error(
        self, trained_out, capsys, records, message
    ):
        path = os.path.join(trained_out["out"], cli.COOCCUR_FILE)
        np.array(records, dtype=RECORD).tofile(path)
        code, summary, err = run_cli(
            capsys, ["train-glove", "--out", trained_out["out"]]
        )
        assert code == 1 and summary is None
        assert err == f"error: {path}: {message}\n"


class TestSingleCommandStaging:
    """A single command saves its artifacts as .partial files, renamed only
    once it returns: a failed command leaves --out as it was."""

    @staticmethod
    def full_disk(value, path):
        """A save that writes half a file and fails as a full disk does."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("half")
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)

    def test_cv_whose_model_save_fails_leaves_the_earlier_artifacts(
        self, tmp_path, capsys, monkeypatch
    ):
        out = str(tmp_path / "out")
        os.mkdir(out)
        data = make_blobs(np.random.default_rng(31), n_per_class=20, dim=3, separation=1.0)
        save_sentence_vectors(data, os.path.join(out, cli.SENTVEC_FILE))
        argv = ["cv", "--folds", "4", "--svm-epochs", "6", "--out", out]
        assert run_cli(capsys, argv)[0] == 0
        before, listed = _snapshot(out), []

        def save_model(model, path):
            listed.append(sorted(os.listdir(out)))
            self.full_disk(model, path)

        monkeypatch.setattr(classifier, "save_model", save_model)
        # another seed, so the report the run writes differs from the earlier one
        code, summary, err = run_cli(capsys, argv[:-2] + ["--seed", "5", "--out", out])
        model = os.path.join(out, cli.MODEL_FILE + cli.PARTIAL)
        assert code == 1 and summary is None
        assert _snapshot(out) == before
        assert err == f"error: {OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), model)}\n"
        # the report was saved before the model failed, beside the earlier one
        assert listed == [sorted([*before, cli.CV_FILE + cli.PARTIAL])]

    def test_vocab_into_a_fresh_out_whose_save_fails_removes_out(
        self, workspace, capsys, monkeypatch
    ):
        out = workspace["out"]
        monkeypatch.setattr(cli.corpus, "save_vocabulary", self.full_disk)
        code, summary, err = run_cli(capsys, ["vocab", "--corpus", workspace["corpus"],
                                              "--out", out])
        partial = os.path.join(out, cli.VOCAB_FILE + cli.PARTIAL)
        assert code == 1 and summary is None
        assert not os.path.exists(out)
        assert err == f"error: {OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), partial)}\n"

    @pytest.mark.parametrize("command, module, save, out, stranger", [
        ("vocab", "corpus", "save_vocabulary", "a/b/c", False),
        ("vocab", "corpus", "save_vocabulary", "x/../a/b/c", False),  # makedirs makes x too
        ("pipeline", "classifier", "save_model", "a/b/c", False),
        ("pipeline", "classifier", "save_model", "a/b/c", True),
    ])
    def test_failure_removes_the_parents_it_made_for_a_nested_out(
        self, workspace, capsys, monkeypatch, tmp_path, command, module, save, out, stranger
    ):
        nest = tmp_path / "nest"

        def full_disk(value, path):
            if stranger:  # a file another program writes meanwhile keeps its directory
                (nest / "a" / "theirs.txt").write_text("")
            self.full_disk(value, path)

        monkeypatch.setattr(getattr(cli, module), save, full_disk)
        argv = [command, "--corpus", workspace["corpus"], "--min-count", "1",
                "--out", os.path.join(nest, out)]
        if command == "pipeline":
            argv += ["--labeled", workspace["labeled"], "--dim", "4", "--epochs", "1",
                     "--folds", "2", "--svm-epochs", "5"]
        code, summary, err = run_cli(capsys, argv)
        assert code == 1 and summary is None and err.startswith(f"error: [Errno {errno.ENOSPC}]")
        if stranger:
            assert [(d, f) for _, d, f in os.walk(nest)] == [(["a"], []), ([], ["theirs.txt"])]
        else:
            assert not nest.exists()


class TestPipeline:
    def test_one_shot_cbow_pipeline(self, workspace, capsys):
        code, summary, _ = run_cli(
            capsys,
            ["pipeline", "--corpus", workspace["corpus"],
             "--labeled", workspace["labeled"], "--model", "cbow",
             "--dim", "8", "--epochs", "2", "--folds", "2",
             "--min-count", "1", "--svm-epochs", "30",
             "--out", workspace["out"]],
        )
        assert code == 0
        assert summary["model"] == "cbow"
        assert summary["train"]["command"] == "train-cbow"
        for name in (cli.VOCAB_FILE, cli.EMBEDDINGS_FILE, cli.SENTVEC_FILE,
                     cli.TTEST_FILE, cli.CV_FILE, cli.MODEL_FILE):
            assert os.path.isfile(os.path.join(workspace["out"], name))
        assert not os.path.isfile(
            os.path.join(workspace["out"], cli.COOCCUR_FILE)
        )  # cbow path skips counting

    def test_one_shot_glove_pipeline(self, workspace, capsys):
        code, summary, _ = run_cli(
            capsys,
            ["pipeline", "--corpus", workspace["corpus"],
             "--labeled", workspace["labeled"], "--model", "glove",
             "--dim", "8", "--epochs", "3", "--folds", "2",
             "--min-count", "1", "--svm-epochs", "30",
             "--out", workspace["out"]],
        )
        assert code == 0
        assert summary["train"]["command"] == "train-glove"
        assert sorted(os.listdir(workspace["out"])) == sorted([  # no .partial file left
            cli.VOCAB_FILE, cli.COOCCUR_FILE, cli.EMBEDDINGS_FILE, cli.SENTVEC_FILE,
            cli.TTEST_FILE, cli.CV_FILE, cli.MODEL_FILE])

    @pytest.mark.parametrize("model, flag, value, message", [
        ("cbow", "--min-count", "0", "--min-count must be >= 1, got 0"),
        ("cbow", "--dim", "0", "--dim must be >= 1, got 0"),
        ("cbow", "--window", "0", "--window must be >= 1, got 0"),
        ("cbow", "--epochs", "-1", "--epochs must be >= 0, got -1"),
        ("cbow", "--lr", "0", "--lr must be finite and > 0, got 0.0"),
        ("cbow", "--negatives", "0", "--negatives must be >= 1, got 0"),
        ("glove", "--window", "0", "--window must be >= 1, got 0"),
        ("glove", "--dim", "0", "--dim must be >= 1, got 0"),
        ("glove", "--epochs", "-1", "--epochs must be >= 0, got -1"),
        ("glove", "--lr", "-1", "--lr must be finite and > 0, got -1.0"),
        ("glove", "--xmax", "0", "--xmax must be finite and > 0, got 0.0"),
        ("glove", "--alpha-exp", "2", "--alpha-exp must be in (0, 1], got 2.0"),
        ("cbow", "--alpha", "5", "--alpha must be in (0, 1), got 5.0"),
        ("glove", "--alpha", "0", "--alpha must be in (0, 1), got 0.0"),
        ("cbow", "--folds", "1", "--folds must be >= 2, got 1"),
        ("cbow", "--svm-lambda", "0", "--svm-lambda must be finite and > 0, got 0.0"),
        ("glove", "--svm-epochs", "-1", "--svm-epochs must be >= 0, got -1"),
        ("cbow", "--seed", "-1", "--seed must be >= 0, got -1"),
    ])
    def test_invalid_setting_fails_before_the_corpus_is_read(
        self, workspace, capsys, monkeypatch, model, flag, value, message
    ):
        def unread(path):
            raise AssertionError(f"{path} was read")

        monkeypatch.setattr(cli.corpus, "read_corpus_lines", unread)
        code, summary, err = run_cli(capsys, [
            "pipeline", "--corpus", workspace["corpus"], "--labeled", workspace["labeled"],
            "--model", model, "--min-count", "1", "--dim", "4", "--epochs", "1",
            "--folds", "2", flag, value, "--out", workspace["out"],
        ])
        assert code == 1 and summary is None
        assert err == f"error: {message}\n"
        assert not os.path.exists(workspace["out"])

    def _pipeline(self, workspace, capsys, labeled, *settings):
        return run_cli(capsys, [
            "pipeline", "--corpus", workspace["corpus"], "--labeled", labeled,
            "--min-count", "1", "--dim", "4", "--epochs", "1", *settings,
            "--out", workspace["out"],
        ])

    def test_folds_above_the_phrase_count_fail_before_the_corpus_is_read(
        self, workspace, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli.corpus, "read_corpus_lines", None)  # reading it fails
        with open(workspace["labeled"], "a", encoding="utf-8") as fh:
            fh.write("\n  \n")  # blank lines are not phrases
        code, summary, err = self._pipeline(workspace, capsys, workspace["labeled"],
                                            "--folds", "13")
        assert code == 1 and summary is None
        assert err == f"error: --folds must be <= the 12 phrases of {workspace['labeled']}, got 13\n"
        assert not os.path.exists(workspace["out"])

    def test_svm_lambda_no_phrase_count_admits_fails_before_the_corpus_is_read(
        self, workspace, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli.corpus, "read_corpus_lines", None)
        code, summary, err = self._pipeline(workspace, capsys, workspace["labeled"],
                                            "--folds", "2", "--svm-lambda", "1e-300")
        bounds = [lambda_range(n, 1, 100) for n in range(2, 13)]
        low, high = min(b[0] for b in bounds), max(b[1] for b in bounds)
        assert code == 1 and summary is None
        assert err == (f"error: --svm-lambda must lie in [{low:.3g}, {high:.3g}] for 100 epochs "
                       f"over at most 12 vectors, got 1e-300\n")
        assert not os.path.exists(workspace["out"])

    @pytest.mark.parametrize("epochs", [0, 1, 2, 3, 10, 100])
    def test_svm_lambda_bounds_equal_the_bounds_over_every_count(self, epochs):
        # the two-count bounds against the ends over every count m from 2 to
        # n, each kept as n grows
        low, high = math.inf, 0.0
        for n in range(2, 2001):
            low = min(low, lambda_range(n, 1, epochs)[0])
            high = max(high, lambda_range(n, 1, epochs)[1])
            assert cli.svm_lambda_bounds(n, epochs) == (low, high)

    @staticmethod
    def _eleven_phrases(workspace, tmp_path):
        """The first 11 phrases, and a --svm-lambda the early check passes
        that cv rejects at one epoch: the early check takes the lowest lower
        end over every count, and with one epoch it rises from 10 to 11 rows,
        so the lower end for 10 rows passes with 11 phrases, and cv, which
        fits all 11 vectors, rejects it."""
        labeled = tmp_path / "eleven.tsv"
        with open(workspace["labeled"], encoding="utf-8") as fh:
            labeled.write_text("".join(fh.readlines()[:11]), encoding="utf-8")
        lam = float(lambda_range(10, 1, 1)[0])
        assert lam < lambda_range(11, 1, 1)[0]
        return str(labeled), lam

    def test_svm_lambda_a_smaller_phrase_count_admits_is_left_to_cv(
        self, workspace, capsys, tmp_path
    ):
        labeled, lam = self._eleven_phrases(workspace, tmp_path)
        code, summary, err = self._pipeline(workspace, capsys, labeled, "--folds", "2",
                                            "--svm-epochs", "1", "--svm-lambda", repr(lam))
        assert code == 1 and summary is None
        assert err.startswith("error: --svm-lambda must lie in [")
        assert f"for 1 epochs over 11 vectors, got {lam!r}" in err
        assert not os.path.exists(workspace["out"])

    @pytest.mark.parametrize("earlier", [False, True], ids=["no-out", "earlier-out"])
    @pytest.mark.parametrize("stage, message, written", [
        ("train-cbow", "cannot allocate the V×D parameter matrices", [cli.VOCAB_FILE]),
        ("train-glove", "cannot allocate the V×D parameter matrices",
         [cli.VOCAB_FILE, cli.COOCCUR_FILE]),
        ("cv", "--svm-lambda must lie in [",
         [cli.VOCAB_FILE, cli.EMBEDDINGS_FILE, cli.SENTVEC_FILE, cli.TTEST_FILE]),
    ], ids=["train-cbow", "train-glove", "cv"])
    def test_failed_stage_leaves_out_as_it_was(
        self, workspace, capsys, tmp_path, monkeypatch, stage, message, written, earlier
    ):
        # the stages before the failing one write their artifacts as .partial
        # files, and the failure removes them, and --out if the run made it
        out = workspace["out"]
        if earlier:  # an earlier run's artifact and a file of the user's
            os.makedirs(out)
            for name in (cli.VOCAB_FILE, "notes.txt"):
                with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
                    fh.write("earlier\n")
        before = _snapshot(out)
        removed, remove = [], os.remove
        monkeypatch.setattr(os, "remove", lambda path: remove(path) or removed.append(path))
        labeled, settings = workspace["labeled"], ["--folds", "2"]
        if stage == "cv":
            labeled, lam = self._eleven_phrases(workspace, tmp_path)
            settings += ["--svm-epochs", "1", "--svm-lambda", repr(lam)]
        else:
            settings += ["--model", stage.removeprefix("train-"), "--dim", str(10**15)]
        code, summary, err = self._pipeline(workspace, capsys, labeled, *settings)
        assert code == 1 and summary is None
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert sorted(removed) == sorted(os.path.join(out, name + cli.PARTIAL) for name in written)
        assert _snapshot(out) == before

    def test_out_naming_a_file_is_the_error_reported(self, workspace, capsys):
        # the clean-up finds no directory to remove .partial files from, and
        # its own errors never replace the stage's
        with open(workspace["out"], "w", encoding="utf-8") as fh:
            fh.write("earlier\n")
        code, summary, err = self._pipeline(workspace, capsys, workspace["labeled"], "--folds", "2")
        assert code == 1 and summary is None
        assert err == f"error: {FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), workspace['out'])}\n"
        with open(workspace["out"], encoding="utf-8") as fh:
            assert fh.read() == "earlier\n"

    def test_glove_count_in_chunks_of_three_pairs_changes_no_byte(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        outs, summaries = [str(tmp_path / "default"), str(tmp_path / "chunked")], []
        for out in outs:
            if out == outs[1]:
                monkeypatch.setattr(cli.cooccur, "CHUNK_PAIRS", 3)
            code, summary, _ = run_cli(capsys, [
                "pipeline", "--corpus", workspace["corpus"], "--labeled", workspace["labeled"],
                "--model", "glove", "--min-count", "1", "--dim", "4", "--epochs", "2",
                "--folds", "2", "--svm-epochs", "5", "--out", out,
            ])
            assert code == 0
            summaries.append(_strip_dir(summary, out))
        assert summaries[0] == summaries[1]
        assert summaries[0]["cooccur"]["entries"] > 100  # many chunks of 3 pairs
        names = sorted(os.listdir(outs[0]))
        assert names == sorted(os.listdir(outs[1])) and cli.COOCCUR_FILE in names
        for name in names:
            with open(os.path.join(outs[0], name), "rb") as a, \
                    open(os.path.join(outs[1], name), "rb") as b:
                assert a.read() == b.read(), name

    def test_glove_pipeline_ignores_cbow_settings(self, workspace, capsys):
        code, _, _ = run_cli(capsys, [
            "pipeline", "--corpus", workspace["corpus"], "--labeled", workspace["labeled"],
            "--model", "glove", "--min-count", "1", "--dim", "4", "--epochs", "1",
            "--folds", "2", "--svm-epochs", "5", "--negatives", "0",
            "--out", workspace["out"],
        ])
        assert code == 0

    @pytest.mark.parametrize("model", ["cbow", "glove"])
    @pytest.mark.parametrize("dim", [10**15, 10**20])
    def test_unallocatable_model_is_a_one_line_error(self, workspace, capsys, model, dim):
        # numpy refuses an array of exbibytes at once, touching no memory
        # (MemoryError), and one past its index range by ValueError
        code, summary, err = run_cli(capsys, [
            "pipeline", "--corpus", workspace["corpus"], "--labeled", workspace["labeled"],
            "--model", model, "--min-count", "1", "--dim", str(dim),
            "--out", workspace["out"],
        ])
        assert code == 1 and summary is None
        assert err == f"error: --dim {dim}: cannot allocate the V×D parameter matrices\n"

    def test_pipeline_defaults_differ_by_model(self):
        args = cli.parse_args(
            ["pipeline", "--corpus", "c", "--labeled", "l", "--out", "o"]
        )
        assert args.window == 5 and args.epochs == 5
        args = cli.parse_args(
            ["pipeline", "--corpus", "c", "--labeled", "l", "--model", "glove",
             "--out", "o"]
        )
        assert args.window == 10 and args.epochs == 15

    def test_byte_order_marks_change_no_artifact(self, workspace, tmp_path, capsys):
        # the corpus and phrase file again, each saved with a leading UTF-8
        # byte-order mark, as Windows editors save them
        marked = {}
        for key in ("corpus", "labeled"):
            with open(workspace[key], "rb") as fh:
                (tmp_path / key).write_bytes(codecs.BOM_UTF8 + fh.read())
            marked[key] = str(tmp_path / key)
        outs = []
        for inputs in (workspace, marked):
            outs.append(str(tmp_path / f"out{len(outs)}"))
            code, _, _ = run_cli(capsys, [
                "pipeline", "--corpus", inputs["corpus"], "--labeled", inputs["labeled"],
                "--min-count", "1", "--dim", "4", "--epochs", "1", "--folds", "2",
                "--svm-epochs", "5", "--out", outs[-1],
            ])
            assert code == 0
        names = sorted(os.listdir(outs[0]))
        assert names == sorted(os.listdir(outs[1])) and cli.SENTVEC_FILE in names
        for name in names:
            with open(os.path.join(outs[0], name), "rb") as a, \
                    open(os.path.join(outs[1], name), "rb") as b:
                assert a.read() == b.read(), name

    def test_malformed_labeled_file_fails_with_line_number(
        self, workspace, capsys, tmp_path
    ):
        bad = tmp_path / "bad.tsv"
        bad.write_text("literal\topen\topen door\nfigurative\tx\tx y\n")
        code, _, err = run_cli(
            capsys,
            ["pipeline", "--corpus", workspace["corpus"], "--labeled", str(bad),
             "--dim", "4", "--epochs", "1", "--min-count", "1",
             "--folds", "2", "--out", workspace["out"]],
        )
        assert code == 1
        assert "line 2" in err


def _snapshot(out: str) -> dict | None:
    """Every file in `out` with its bytes, or None if `out` does not exist."""
    if not os.path.exists(out):
        return None
    snapshot = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            snapshot[name] = fh.read()
    return snapshot


def _strip_dir(summary: dict, out: str) -> dict:
    """The summary with the artifact directory cut from every path in it."""
    return json.loads(json.dumps(summary).replace(json.dumps(out)[1:-1], "<out>"))


class TestPipelineEqualsChain:
    """`pipeline` hands each result on in memory, while the chain of single
    commands reads it back from --out: both write the same bytes and report
    the same summaries."""

    def chain(self, workspace, model):
        """Each stage's single command and its explicit settings, in order."""
        corpus, labeled = workspace["corpus"], workspace["labeled"]
        train = ["--dim", "6", "--epochs", "2", "--seed", "3"]
        stages = [("vocab", "vocab", ["--corpus", corpus, "--min-count", "2"])]
        if model == "glove":
            stages += [
                ("cooccur", "cooccur",
                 ["--corpus", corpus, "--window", "4", "--cooccur-weighting", "flat"]),
                ("train", "train-glove",
                 train + ["--lr", "0.08", "--xmax", "20", "--alpha-exp", "0.6"]),
            ]
        else:
            stages.append(("train", "train-cbow", train + [
                "--corpus", corpus, "--window", "3", "--lr", "0.04", "--negatives", "3"]))
        return stages + [
            ("embed", "embed", ["--labeled", labeled, "--aggregate", "sum"]),
            ("ttest", "ttest", ["--alpha", "0.1"]),
            ("cv", "cv", ["--folds", "3", "--seed", "3", "--svm-lambda", "0.001",
                          "--svm-epochs", "15"]),
        ]

    @pytest.mark.parametrize("model", ["cbow", "glove"])
    def test_artifacts_and_summaries_match(self, workspace, tmp_path, capsys, model):
        stages = self.chain(workspace, model)
        settings = {}  # the pipeline's options: every stage's, merged
        for _, _, argv in stages:
            settings.update(zip(argv[::2], argv[1::2]))
        whole, single = str(tmp_path / "pipeline"), str(tmp_path / "chain")
        code, summary, _ = run_cli(capsys, [
            "pipeline", "--model", model, *sum(settings.items(), ()), "--out", whole,
        ])
        assert code == 0
        assert list(summary) == ["command", "model"] + [key for key, _, _ in stages]
        for key, command, argv in stages:
            code, alone, _ = run_cli(capsys, [command, *argv, "--out", single])
            assert code == 0
            assert _strip_dir(summary[key], whole) == _strip_dir(alone, single)
        names = sorted(os.listdir(whole))
        assert names == sorted(os.listdir(single))
        assert (cli.COOCCUR_FILE in names) == (model == "glove")
        for name in names:
            with open(os.path.join(whole, name), "rb") as a, \
                    open(os.path.join(single, name), "rb") as b:
                assert a.read() == b.read(), name


class TestSettingsReachTrainers:
    """Every setting of a training command arrives in its trainer's config."""

    @pytest.mark.parametrize("argv, module, trainer, expected", [
        ("train-glove --dim 6 --epochs 2 --lr 0.08 --xmax 20 --alpha-exp 0.6 --seed 3",
         glove, "train_glove",
         glove.GloveConfig(dim=6, lr=0.08, epochs=2, x_max=20.0, alpha=0.6, seed=3)),
        ("train-cbow --dim 6 --window 3 --epochs 2 --lr 0.04 --negatives 3 --seed 3",
         cbow, "train_cbow",
         cbow.CbowConfig(dim=6, window=3, epochs=2, lr=0.04, negatives=3, seed=3)),
    ], ids=["glove", "cbow"])
    def test_config_holds_every_setting(
        self, trained_out, capsys, monkeypatch, argv, module, trainer, expected
    ):
        real, configs = getattr(module, trainer), []

        def train(*inputs):
            configs.append(inputs[-1])
            return real(*inputs)

        monkeypatch.setattr(module, trainer, train)
        argv = argv.split() + ["--out", trained_out["out"]]
        if module is cbow:
            argv += ["--corpus", trained_out["corpus"]]
        assert run_cli(capsys, argv)[0] == 0
        assert configs == [expected]  # dataclass equality: field by field


class TestParserDefaults:
    """Every subcommand's parsed and resolved defaults, as recorded before
    the options were gathered into one table."""

    FROZEN = [
        ("vocab --corpus c", {"corpus": "c", "min_count": 5}),
        ("cooccur --corpus c",
         {"corpus": "c", "window": 10, "cooccur_weighting": "inverse_distance"}),
        ("train-cbow --corpus c",
         {"corpus": "c", "dim": 100, "window": 5, "epochs": 5, "lr": 0.05,
          "negatives": 5, "seed": 0}),
        ("train-glove",
         {"dim": 100, "epochs": 15, "lr": 0.05, "xmax": 100.0, "alpha_exp": 0.75,
          "seed": 0}),
        ("embed --labeled l", {"labeled": "l", "aggregate": "mean"}),
        ("ttest", {"alpha": 0.05}),
        ("cv", {"folds": 10, "seed": 0, "svm_lambda": 0.0001, "svm_epochs": 100}),
    ] + [
        (f"pipeline --corpus c --labeled l --model {model}",
         {"corpus": "c", "labeled": "l", "model": model, "dim": 100,
          "window": window, "epochs": epochs, "lr": 0.05, "negatives": 5,
          "xmax": 100.0, "alpha_exp": 0.75, "alpha": 0.05, "folds": 10, "seed": 0,
          "min_count": 5, "aggregate": "mean", "cooccur_weighting": "inverse_distance",
          "svm_lambda": 0.0001, "svm_epochs": 100})
        for model, window, epochs in (("cbow", 5, 5), ("glove", 10, 15))
    ]

    @pytest.mark.parametrize("argv, expected", FROZEN)
    def test_defaults_are_frozen(self, monkeypatch, argv, expected):
        argv = argv.split() + ["--out", "o"]
        seen = {}
        monkeypatch.setattr(cli, "cmd_" + argv[0].replace("-", "_"),
                            lambda args: seen.update(vars(args)) or {})
        assert cli.main(argv) == 0
        del seen["func"]
        assert seen == {"subcommand": argv[0], **expected, "out": "o"}
