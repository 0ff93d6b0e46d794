import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metlit import LITERAL, METAPHOR, MetlitError
from metlit import classifier
from metlit.classifier import (
    EvalReport,
    FoldMetrics,
    SvmModel,
    cross_validate,
    decision,
    evaluate_fold,
    hinge_objective,
    kfold_split,
    load_model,
    save_model,
    save_report,
    train_svm,
)

from helpers import (
    labeled_vectors,
    make_blobs,
    reference_evaluate_fold,
    reference_pegasos,
    reference_predict,
    reference_train_svm,
    traced_peak,
)


def identity_model(weights, bias=0.0, lam=1e-4):
    weights = np.asarray(weights, dtype=float)
    return SvmModel(
        weights=weights,
        bias=bias,
        lam=lam,
        scale_mean=np.zeros_like(weights),
        scale_std=np.ones_like(weights),
    )


def predicted_metaphor(model, values, metaphor):
    """Whether evaluate_fold counts the one row as predicted metaphor."""
    metrics = evaluate_fold(model, labeled_vectors([values], [metaphor]))
    return metrics.tp + metrics.fp == 1


# 914 rows in 10 folds: training sizes 823 (six folds) and 822 (four)
@pytest.fixture(scope="module")
def blobs_914():
    return make_blobs(np.random.default_rng(13), n_per_class=457, dim=6,
                      separation=1.5)


def fold_runs(data, k, seed):
    """The stratified folds cross_validate draws, and its (rows, seed) runs."""
    folds = kfold_split(data.metaphor, k, seed=seed)
    everything = np.arange(len(data))
    runs = [(np.setdiff1d(everything, fold), seed + f)
            for f, fold in enumerate(folds)] + [(everything, seed)]
    return folds, runs


class TestDecision:
    def test_positive_margin_is_metaphor(self):
        model = identity_model([1.0, 0.0])
        assert decision(model, np.array([[2.0, 5.0]])).tolist() == [2.0]
        assert all(predicted_metaphor(model, [2.0, 5.0], m) for m in (False, True))

    def test_negative_margin_is_literal(self):
        model = identity_model([1.0, 0.0])
        assert decision(model, np.array([[-1.0, 7.0]])).tolist() == [-1.0]
        assert not any(predicted_metaphor(model, [-1.0, 7.0], m) for m in (False, True))

    def test_exact_zero_margin_breaks_tie_to_literal(self):
        model = identity_model([1.0, 0.0])
        assert decision(model, np.array([[0.0, 3.0]])).tolist() == [0.0]
        literal = evaluate_fold(model, labeled_vectors([[0.0, 3.0]], [False]))
        metaphor = evaluate_fold(model, labeled_vectors([[0.0, 3.0]], [True]))
        assert (literal.tn, metaphor.fn) == (1, 1)
        assert literal == reference_evaluate_fold(model, labeled_vectors([[0.0, 3.0]], [False]))

    @pytest.mark.parametrize("x", [
        np.array([[1.0, 2.0, 3.0]]), np.array([[1.0]]), np.array([1.0, 2.0]),
    ])
    def test_dimension_mismatch_rejected(self, x):
        model = identity_model([1.0, 0.0])
        with pytest.raises(MetlitError, match="expected rows of dimension 2"):
            decision(model, x)

    def test_standardization_applied_before_dot_product(self):
        model = SvmModel(
            weights=np.array([1.0]),
            bias=0.0,
            lam=1e-4,
            scale_mean=np.array([10.0]),
            scale_std=np.array([2.0]),
        )
        assert decision(model, np.array([[14.0]])).tolist() == [2.0]  # (14 - 10) / 2

    def test_margins_and_confusion_counts_match_per_row_reference(self, blobs_914):
        data = blobs_914
        folds, runs = fold_runs(data, 10, seed=3)
        fits = classifier._pegasos(data, runs, 1e-3, 4)
        for (model, _), fold in zip(fits, folds + [np.arange(len(data))]):
            margins = decision(model, data.values)
            ref = np.array([reference_predict(model, row)[1] for row in data.values])
            assert np.all(np.abs(margins - ref) <= 1e-12 * np.abs(ref))
            assert evaluate_fold(model, data[fold]) == reference_evaluate_fold(
                model, data[fold])


class TestTrainSvm:
    def test_separable_blobs_reach_training_accuracy_one(self):
        rng = np.random.default_rng(0)
        train = make_blobs(rng, n_per_class=40, dim=2, separation=6.0)
        model = train_svm(train, lam=1e-4, epochs=60, seed=0)
        metrics = evaluate_fold(model, train)
        assert metrics.accuracy == 1.0

    def test_identical_inputs_fall_back_to_majority(self):
        values = np.array([1.5, -2.0])
        train = labeled_vectors([values] * 10, [False] * 6 + [True] * 4)
        model = train_svm(train, lam=1e-2, epochs=40, seed=0)
        metrics = evaluate_fold(model, train)
        assert metrics.accuracy == pytest.approx(0.6)

    def test_epochs_zero_gives_zero_model_predicting_literal(self):
        rng = np.random.default_rng(1)
        train = make_blobs(rng, n_per_class=5, dim=3)
        model = train_svm(train, epochs=0)
        assert not model.weights.any() and model.bias == 0.0
        assert not decision(model, train.values).any()
        metrics = evaluate_fold(model, train)
        assert metrics.tp + metrics.fp == 0

    def test_single_class_rejected(self):
        rng = np.random.default_rng(2)
        train = labeled_vectors([rng.normal(0, 1, 2) for _ in range(8)], [False] * 8)
        with pytest.raises(ValueError):
            train_svm(train)

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            train_svm(labeled_vectors(np.empty((0, 2)), []))

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        train = make_blobs(rng, n_per_class=20, dim=3, separation=2.0)
        m1 = train_svm(train, epochs=10, seed=4)
        m2 = train_svm(train, epochs=10, seed=4)
        assert np.array_equal(m1.weights, m2.weights)
        assert m1.bias == m2.bias

    def test_affine_feature_transform_leaves_predictions_unchanged(self):
        # per-dimension rescaling and shifting is absorbed by standardization
        rng = np.random.default_rng(4)
        train = make_blobs(rng, n_per_class=25, dim=3, separation=3.0)
        scale = np.array([5.0, 0.2, 40.0])
        shift = np.array([-3.0, 7.0, 100.0])
        transformed = labeled_vectors(train.values * scale + shift, train.metaphor)
        m_base = train_svm(train, epochs=20, seed=5)
        m_tran = train_svm(transformed, epochs=20, seed=5)
        margin_base = decision(m_base, train.values)
        margin_tran = decision(m_tran, transformed.values)
        assert np.array_equal(margin_base > 0, margin_tran > 0)
        assert margin_base == pytest.approx(margin_tran, rel=1e-9)

    def test_zero_variance_dimension_passes_through(self):
        rng = np.random.default_rng(5)
        train = make_blobs(rng, n_per_class=10, dim=2, separation=4.0)
        train.values[:, 1] = 42.0  # constant dimension
        model = train_svm(train, epochs=20)
        assert model.scale_std[1] == 1.0
        metrics = evaluate_fold(model, train)
        assert metrics.accuracy == 1.0

    def test_hinge_objective_nonincreasing_in_epochs(self):
        rng = np.random.default_rng(6)
        train = make_blobs(rng, n_per_class=40, dim=4, separation=1.0)
        objectives = [
            hinge_objective(train_svm(train, lam=1e-2, epochs=e, seed=0), train)
            for e in (1, 2, 4, 8, 16)
        ]
        for prev, cur in zip(objectives, objectives[1:]):
            assert cur <= prev * 1.02


class TestKfold:
    def test_914_into_10_fold_sizes(self):
        # one class: a plain shuffled deal
        folds = kfold_split([LITERAL] * 914, 10, seed=0)
        sizes = sorted(len(f) for f in folds)
        assert sizes == [91] * 6 + [92] * 4

    def test_partition_disjoint_and_covering(self):
        for labels in ([LITERAL] * 37, [LITERAL if i % 2 else METAPHOR for i in range(37)]):
            folds = kfold_split(labels, 5, seed=1)
            seen = np.concatenate(folds)
            assert len(seen) == 37
            assert sorted(seen.tolist()) == list(range(37))

    def test_ten_singleton_folds(self):
        folds = kfold_split([LITERAL] * 5 + [METAPHOR] * 5, 10, seed=0)
        assert all(len(f) == 1 for f in folds)

    def test_k_exceeding_n_rejected(self):
        with pytest.raises(ValueError):
            kfold_split([LITERAL] * 5, 6)

    def test_mask_and_label_names_give_the_same_folds(self):
        # cross_validate passes the metaphor mask: False sorts as literal does
        mask = np.random.default_rng(2).random(50) < 0.4
        names = [METAPHOR if m else LITERAL for m in mask]
        for a, b in zip(kfold_split(mask, 7, seed=5), kfold_split(names, 7, seed=5)):
            assert np.array_equal(a, b)

    def test_stratified_class_counts_within_one(self):
        labels = [LITERAL] * 459 + [METAPHOR] * 455
        folds = kfold_split(labels, 10, seed=3)
        assert sorted(len(f) for f in folds) == [91] * 6 + [92] * 4
        for fold in folds:
            lit = sum(1 for i in fold if labels[i] == LITERAL)
            met = len(fold) - lit
            assert abs(lit - 45.9) <= 1.0
            assert abs(met - 45.5) <= 1.0

    def test_same_seed_reproduces_folds(self):
        labels = [LITERAL] * 60 + [METAPHOR] * 40
        f1 = kfold_split(labels, 7, seed=9)
        f2 = kfold_split(labels, 7, seed=9)
        assert all(np.array_equal(a, b) for a, b in zip(f1, f2))

    def test_different_seed_changes_folds(self):
        labels = [LITERAL] * 60 + [METAPHOR] * 40
        f1 = kfold_split(labels, 7, seed=1)
        f2 = kfold_split(labels, 7, seed=2)
        assert any(not np.array_equal(a, b) for a, b in zip(f1, f2))


class TestEvaluate:
    def test_confusion_counts_sum_to_fold_size(self):
        rng = np.random.default_rng(7)
        data = make_blobs(rng, n_per_class=15, dim=2, separation=1.0)
        model = train_svm(data, epochs=5)
        metrics = evaluate_fold(model, data)
        assert metrics.tp + metrics.fp + metrics.tn + metrics.fn == len(data)
        assert metrics.accuracy == (metrics.tp + metrics.tn) / len(data)

    def test_precision_none_when_nothing_predicted_positive(self):
        model = identity_model([0.0, 0.0], bias=-1.0)  # always literal
        data = labeled_vectors([[1.0, 1.0], [0.0, 1.0]], [True, False])
        metrics = evaluate_fold(model, data)
        assert metrics.precision is None
        assert metrics.tp == 0 and metrics.fp == 0

    def test_precision_counts_metaphor_as_positive(self):
        model = identity_model([1.0])
        data = labeled_vectors(
            [[2.0], [3.0], [-1.0], [-2.0]],  # tp, fp, tn, fn
            [True, False, False, True],
        )
        metrics = evaluate_fold(model, data)
        assert (metrics.tp, metrics.fp, metrics.tn, metrics.fn) == (1, 1, 1, 1)
        assert metrics.precision == 0.5


class TestCrossValidate:
    def test_separable_data_reaches_mean_accuracy_one(self):
        rng = np.random.default_rng(8)
        data = make_blobs(rng, n_per_class=50, dim=3, separation=12.0)
        report = cross_validate(data, k=10, epochs=50, seed=0)
        assert report.mean_accuracy == 1.0
        assert report.mean_precision == 1.0
        assert len(report.per_fold) == 10

    def test_training_split_losing_a_class_raises_fold_error(self):
        rng = np.random.default_rng(9)
        data = labeled_vectors([rng.normal(0, 1, 2) for _ in range(6)], [False] * 5 + [True])
        # at k=2 the training split of the lone metaphor's fold would have no
        # metaphor: a class of one member is rejected up front, as ttest does
        with pytest.raises(MetlitError,
                           match="^need >= 2 members per class, got literal=5, metaphor=1$"):
            cross_validate(data, k=2, epochs=2)

    @pytest.mark.parametrize("metaphor", [False, True])
    def test_single_class_data_raises_before_dealing_folds(self, monkeypatch, metaphor):
        def no_folds(*args, **kwargs):
            raise AssertionError("dealt the folds before checking the classes")

        monkeypatch.setattr(classifier, "kfold_split", no_folds)
        data = labeled_vectors(np.random.default_rng(9).normal(0, 1, (5, 2)), [metaphor] * 5)
        counts = "literal=0, metaphor=5" if metaphor else "literal=5, metaphor=0"
        with pytest.raises(MetlitError, match=f"^need >= 2 members per class, got {counts}$"):
            cross_validate(data, k=2, epochs=2)

    def test_fold_error_raised_before_any_training(self, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before checking the classes")

        monkeypatch.setattr(classifier, "_pegasos", no_training)
        rng = np.random.default_rng(9)
        data = labeled_vectors([rng.normal(0, 1, 2) for _ in range(10)], [False] * 9 + [True])
        # the lone metaphor's fold would leave a training split of one class
        with pytest.raises(MetlitError,
                           match="^need >= 2 members per class, got literal=9, metaphor=1$"):
            cross_validate(data, k=5, epochs=2)

    @pytest.mark.parametrize("k", [1, 0])
    def test_fewer_than_two_folds_is_a_folds_error(self, k):
        # k = 1 trained on no rows and k = 0 divided by zero; both are --folds errors
        data = make_blobs(np.random.default_rng(9), n_per_class=3, dim=2, separation=3.0)
        with pytest.raises(MetlitError, match=f"^--folds must be >= 2, got {k}$"):
            cross_validate(data, k=k, epochs=2)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(10)
        data = make_blobs(rng, n_per_class=20, dim=2, separation=2.0)
        r1 = cross_validate(data, k=5, epochs=10, seed=3)
        r2 = cross_validate(data, k=5, epochs=10, seed=3)
        assert r1.mean_accuracy == r2.mean_accuracy
        assert [m.accuracy for m in r1.per_fold] == [m.accuracy for m in r2.per_fold]

    @pytest.mark.parametrize("k, epochs", [(2, 2), (3, 1), (4, 3), (6, 0)])
    def test_counts_one_fit_per_fold_and_the_full_data(self, k, epochs):
        # the folds' training rows cover the data k - 1 times, the full fit once
        data = make_blobs(np.random.default_rng(6), n_per_class=6, dim=2, separation=3.0)
        report = cross_validate(data, k=k, lam=1e-2, epochs=epochs, seed=1)
        assert report.fits == k + 1 and len(report.per_fold) == k
        assert report.pegasos_steps == epochs * k * len(data)
        assert 0 <= report.margin_violations <= report.pegasos_steps
        assert (report.margin_violations > 0) == (epochs > 0)


def assert_matches_reference(model, ref, rel=1e-12):
    scale = max(float(np.abs(ref.weights).max()), abs(ref.bias))
    assert np.abs(model.weights - ref.weights).max() <= rel * scale
    assert abs(model.bias - ref.bias) <= rel * scale
    assert np.array_equal(model.scale_mean, ref.scale_mean)
    assert np.array_equal(model.scale_std, ref.scale_std)


class TestLockstepMatchesReference:
    """The lockstep kernel against the per-sample Pegasos loop in helpers."""

    LAM, EPOCHS, SEED = 1e-3, 4, 3

    @pytest.fixture(scope="class")
    def data(self, blobs_914):
        return blobs_914

    def test_cross_validate_matches_per_fold_reference(self, data):
        folds, _ = fold_runs(data, 10, seed=self.SEED)
        report = cross_validate(data, k=10, lam=self.LAM, epochs=self.EPOCHS,
                                seed=self.SEED)
        train_sizes = []
        for f, fold in enumerate(folds):
            train = data[np.setdiff1d(np.arange(len(data)), fold)]
            train_sizes.append(len(train))
            ref = reference_train_svm(train, lam=self.LAM, epochs=self.EPOCHS,
                                      seed=self.SEED + f)
            assert report.per_fold[f] == evaluate_fold(ref, data[fold])
        assert sorted(train_sizes) == [822] * 4 + [823] * 6
        full = reference_train_svm(data, lam=self.LAM, epochs=self.EPOCHS,
                                   seed=self.SEED)
        assert_matches_reference(report.model, full)
        assert report.fits == 11
        assert report.pegasos_steps == self.EPOCHS * (sum(train_sizes) + len(data))

    def test_every_lockstep_row_matches_reference(self, data):
        _, runs = fold_runs(data, 10, seed=self.SEED)
        fits = classifier._pegasos(data, runs, self.LAM, self.EPOCHS)
        for (model, _), (rows, seed) in zip(fits, runs):
            ref = reference_train_svm(data[rows], lam=self.LAM,
                                      epochs=self.EPOCHS, seed=seed)
            assert_matches_reference(model, ref)

    def test_one_row_train_svm_matches_reference(self, data):
        model = train_svm(data, lam=self.LAM, epochs=self.EPOCHS, seed=self.SEED)
        ref = reference_train_svm(data, lam=self.LAM, epochs=self.EPOCHS,
                                  seed=self.SEED)
        assert_matches_reference(model, ref)

    def test_tiny_runs_cross_several_epochs_per_block(self):
        # three training rows: each block of steps spans several epochs
        rng = np.random.default_rng(14)
        data = make_blobs(rng, n_per_class=3, dim=2, separation=1.0)
        report = cross_validate(data, k=2, lam=1e-2, epochs=25, seed=5)
        assert_matches_reference(
            report.model, reference_train_svm(data, lam=1e-2, epochs=25, seed=5)
        )
        for n in (2, 3, 5):
            rows = [*range(n), len(data) - 1]
            model = train_svm(data[rows], lam=1e-2, epochs=17, seed=n)
            ref = reference_train_svm(data[rows], lam=1e-2, epochs=17, seed=n)
            assert_matches_reference(model, ref)


class TestSharedBuffer:
    """Every fit standardizes its rows in place in one buffer that `_pegasos`
    makes for the longest run."""

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3, 200]), st.integers(2, 1000),
           st.booleans())
    # a running sum carried across the gathered slices is off in the last bit here
    @example(seed=1, dim=1, n=129, flat=False)
    def test_scale_is_numpys_mean_and_std_bit_for_bit(self, seed, dim, n, flat):
        rng = np.random.default_rng(seed)
        values = rng.normal(0.0, 1.0, (n, dim)) * 10.0 ** rng.uniform(-20.0, 20.0, (n, dim))
        if flat:
            values[:, 0] = values[0, 0]
        data = labeled_vectors(values, rng.permutation(np.arange(n) < n // 2))
        # the full data first, so the shorter runs work in a buffer it filled
        runs = [(np.arange(n), 0), (np.sort(rng.permutation(n)[:(n + 1) // 2]), 1),
                (rng.permutation(n)[:max(2, n // 3)], 2)]
        for (model, _), (rows, _) in zip(classifier._pegasos(data, runs, 1.0, 0), runs):
            x = values[rows]
            std = x.std(axis=0)
            std[std == 0] = 1.0
            mean = x.mean(axis=0)
            if flat:  # a column of one value: that value, and a std of 1
                mean[0], std[0] = values[0, 0], 1.0
            assert model.scale_mean.tobytes() == mean.tobytes()
            assert model.scale_std.tobytes() == std.tobytes()

    @pytest.mark.parametrize("value", [0.1, 1e200])
    def test_flat_column_centers_to_exact_zeros(self, value):
        # the rounded mean of three 0.1s leaves a std of 1.4e-17, which scaled
        # the column to -1; six 1e200s leave deviations whose squares overflow
        rng = np.random.default_rng(4)
        values = rng.normal(0.0, 1.0, (6, 2))
        values[:, 0] = value
        data = labeled_vectors(values, [False, True] * 3)
        runs = [(np.arange(3), 0), (np.arange(6), 1)]
        z = np.full((6, 3), np.nan)
        work = np.empty((classifier.BLOCK, 3))
        for rows, seed in runs:
            model, _ = classifier._fit(data, rows, seed, 1.0, 0, z, work)
            assert model.scale_mean[0] == value and model.scale_std[0] == 1.0
            assert (z[:len(rows), 0] == 0.0).all()

    @pytest.mark.memory
    def test_working_memory_is_one_standardized_buffer(self):
        # 914 rows of 200, as the benchmark's cv: the standardized rows are
        # 1.47 MB; the block buffer, numpy's iterator buffers for the in-place
        # arithmetic on the strided rows and the runs' row lists come on top
        data = make_blobs(np.random.default_rng(5), n_per_class=457, dim=200, separation=1.0)
        report, peak = traced_peak(cross_validate, data, k=10, epochs=2, seed=1)
        buffer = len(data) * (data.values.shape[1] + 1) * 8
        assert report.fits == 11
        assert peak < 1.4 * buffer, f"{peak / buffer:.2f} standardized buffers"

    @pytest.mark.parametrize("order", ["folds-then-full", "full-then-folds", "reversed"])
    def test_fits_in_one_buffer_equal_each_fit_alone(self, blobs_914, order):
        # whatever an earlier fit left in the buffer, a fit sees only its rows
        _, runs = fold_runs(blobs_914, 10, seed=3)
        if order == "full-then-folds":
            runs = runs[-1:] + runs[:-1]
        elif order == "reversed":
            runs = runs[::-1]
        shared = classifier._pegasos(blobs_914, runs, 1e-3, 2)
        assert len(shared) == len(runs) == 11
        for (model, updates), run in zip(shared, runs):
            [(alone, alone_updates)] = classifier._pegasos(blobs_914, [run], 1e-3, 2)
            assert updates == alone_updates
            assert model.weights.tobytes() == alone.weights.tobytes()
            assert model.bias == alone.bias
            assert model.scale_mean.tobytes() == alone.scale_mean.tobytes()
            assert model.scale_std.tobytes() == alone.scale_std.tobytes()

    @pytest.mark.parametrize("fail", [0, 2, 4], ids=["first-fold", "third-fold", "full-data"])
    def test_failing_fit_raises_itself_and_fits_no_later_run(self, monkeypatch, fail):
        # 4 folds, then the full data: the fit of run `fail` raises
        data = make_blobs(np.random.default_rng(6), n_per_class=6, dim=2, separation=3.0)
        real_fit, fitted = classifier._fit, []

        def fit(vectors, rows, seed, lam, epochs, *buffers):
            if len(fitted) == fail:
                raise ZeroDivisionError(f"run {fail}")
            fitted.append(seed)
            return real_fit(vectors, rows, seed, lam, epochs, *buffers)

        monkeypatch.setattr(classifier, "_fit", fit)
        with pytest.raises(ZeroDivisionError, match=f"run {fail}"):
            cross_validate(data, k=4, lam=1e-2, epochs=2, seed=1)
        assert fitted == [1, 2, 3, 4][:fail]


@st.composite
def svm_problems(draw, per_class=1):
    """Data, lambda, epochs and seed for one fit: 2 to 300 rows (several
    blocks), some columns constant, labels separable or shuffled. Row count,
    lambda and epochs come from a drawn rng, since hypothesis favours the
    ends of a range."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(2 * per_class, 301))
    dim = draw(st.integers(1, 8))
    flat = sorted(draw(st.sets(st.integers(0, dim - 1), max_size=dim - 1)))
    metaphor = rng.permutation(np.arange(n) < rng.integers(per_class, n - per_class + 1))
    values = rng.normal(0.0, 1.0, (n, dim))
    if draw(st.booleans()):  # separable
        values[metaphor] += 3.0
    values[:, flat] = draw(st.floats(-1e3, 1e3))
    lam = 10.0 ** rng.uniform(-4.0, 2.0)
    return labeled_vectors(values, metaphor), lam, int(rng.integers(0, 7)), int(rng.integers(99))


class TestKernelMatchesReference:
    """Drawn fits against the per-sample loop: every block, projection and
    averaging boundary, at small and large lambda."""

    @settings(deadline=None, max_examples=150)
    @given(svm_problems())
    def test_train_svm_matches_reference(self, problem):
        data, lam, epochs, seed = problem
        model = train_svm(data, lam=lam, epochs=epochs, seed=seed)
        assert_matches_reference(
            model, reference_train_svm(data, lam=lam, epochs=epochs, seed=seed))

    @settings(deadline=None, max_examples=50)
    @given(svm_problems(per_class=2), st.integers(2, 4))
    def test_cross_validate_matches_reference(self, problem, k):
        data, lam, epochs, seed = problem
        report = cross_validate(data, k=k, lam=lam, epochs=epochs, seed=seed)
        folds, runs = fold_runs(data, k, seed)
        fits = [reference_pegasos(data[rows], lam, epochs, s) for rows, s in runs]
        for f, fold in enumerate(folds):
            assert report.per_fold[f] == evaluate_fold(fits[f][0], data[fold])
        assert_matches_reference(report.model, fits[-1][0])
        assert report.margin_violations == sum(count for _, count in fits)
        assert report.pegasos_steps == epochs * sum(len(rows) for rows, _ in runs)


class TestSettings:
    def test_zero_epochs_gives_the_untrained_model(self):
        data = make_blobs(np.random.default_rng(13), n_per_class=6, dim=2, separation=3.0)
        model = train_svm(data, epochs=0)
        assert not model.weights.any() and model.bias == 0.0


class TestModelPersistence:
    def test_save_load_round_trip_preserves_predictions(self, tmp_path):
        rng = np.random.default_rng(11)
        data = make_blobs(rng, n_per_class=15, dim=4, separation=3.0)
        model = train_svm(data, epochs=20)
        path = tmp_path / "model.txt"
        save_model(model, str(path))
        loaded = load_model(str(path))
        assert np.array_equal(loaded.weights, model.weights)
        assert loaded.bias == model.bias
        assert loaded.lam == model.lam
        assert np.array_equal(decision(loaded, data.values), decision(model, data.values))

    def test_truncated_model_file_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("2 0.0001 0.5\n1.0 2.0\n")
        with pytest.raises(ValueError):
            load_model(str(path))

    @pytest.mark.parametrize("text, message", [
        ("x 0.0001 0.5\n1 2\n0 0\n1 1\n", "line 1: 'x' is not a count"),
        ("2 0.0001\n1 2\n0 0\n1 1\n", "expected a 'D lambda bias' line"),
        ("2 0.0001 0.5\n1 nan\n0 0\n1 1\n", "line 2: non-finite value"),
        ("2 0.0001 0.5\n1 2\n0 0\n1\n", "line 4: 1 values, the file has 2 per row"),
    ])
    def test_malformed_model_names_path_and_line(self, tmp_path, text, message):
        path = tmp_path / "model.txt"
        path.write_text(text)
        with pytest.raises(MetlitError) as exc:
            load_model(str(path))
        assert str(exc.value).startswith(str(path)) and message in str(exc.value)


class TestReportFile:
    def test_rows_and_mean_line(self, tmp_path):
        report = EvalReport(
            per_fold=[
                FoldMetrics(accuracy=0.9, precision=0.8, tp=8, fp=2, tn=10, fn=0),
                FoldMetrics(accuracy=0.5, precision=None, tp=0, fp=0, tn=10, fn=10),
            ],
            mean_accuracy=0.7,
            mean_precision=0.8,
        )
        path = tmp_path / "cv.tsv"
        save_report(report, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("fold\taccuracy\tprecision")
        assert len(lines) == 4
        assert lines[2].split("\t")[2] == "NA"
        mean = lines[3].split("\t")
        assert mean[0] == "mean"
        assert float(mean[1]) == pytest.approx(0.7)
