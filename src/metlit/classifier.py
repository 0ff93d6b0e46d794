"""Linear soft-margin SVM and stratified k-fold cross-validation.

The SVM minimizes lambda/2 ||w||^2 + mean hinge loss by Pegasos-style
subgradient descent (one sample per step, eta_t = 1/(lambda*t), bias
unregularized). Features are standardized on training statistics. Labels:
literal -> -1, metaphor -> +1; metaphor is the positive class throughout.
Cross-validation trains its k fold models and the full-data model together,
in one lockstep pass of the same kernel that `train_svm` runs for one fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import MetlitError
from .corpus import parse_count, parse_floats, read_lines
from .embeddings import format_floats
from .sentvec import SentenceVectors


class FoldError(MetlitError):
    """A cross-validation training split lost one of the two classes."""


@dataclass
class SvmModel:
    weights: np.ndarray
    bias: float
    lam: float
    scale_mean: np.ndarray
    scale_std: np.ndarray  # zero-variance dimensions stored as 1 (passthrough)

    @property
    def dim(self) -> int:
        return len(self.weights)

    def standardize(self, x: np.ndarray) -> np.ndarray:
        return (x - self.scale_mean) / self.scale_std


@dataclass
class FoldMetrics:
    accuracy: float
    precision: float | None  # None when tp + fp == 0
    tp: int
    fp: int
    tn: int
    fn: int


@dataclass
class EvalReport:
    per_fold: list[FoldMetrics]
    mean_accuracy: float
    mean_precision: float | None
    model: SvmModel | None = None  # full-data fit from the same training pass
    fits: int = 0                  # folds plus the full-data fit
    pegasos_steps: int = 0         # summed over every fit


# Steps whose standardized rows are built at once, per fit. Small, so the
# block buffers stay well under one copy of the data.
_BLOCK = 16
# Relative headroom of the running norm bound, far above its rounding error.
_SLACK = 1e-6


class _Shuffled:
    """One fit's training rows, in a fresh random order each epoch."""

    def __init__(self, rows: np.ndarray, seed: int):
        self.rows = rows
        self.rng = np.random.default_rng(seed)
        self.order = rows
        self.pos = len(rows)

    def take(self, out: np.ndarray) -> None:
        """Fill `out` with the next len(out) rows, crossing epochs as needed."""
        filled = 0
        while filled < len(out):
            if self.pos == len(self.rows):
                self.order = self.rows[self.rng.permutation(len(self.rows))]
                self.pos = 0
            k = min(len(out) - filled, len(self.rows) - self.pos)
            out[filled:filled + k] = self.order[self.pos:self.pos + k]
            filled += k
            self.pos += k


def _pegasos(
    vectors: SentenceVectors,
    runs: list[tuple[np.ndarray, int]],
    lam: float,
    epochs: int,
) -> list[SvmModel]:
    """Fit one model per (training rows, seed) run, all runs in lockstep.

    Each run is an independent Pegasos fit over its rows of `vectors`, with
    the constant bias feature appended to every row, and with its own
    standardization, rng, step count and averaging window, and is one row
    of a (runs, D+1) weight matrix. Per run the arithmetic is exactly the
    per-sample loop's: at step t, with eta = 1/(lam*t), decay w by
    1 - eta*lam, add eta*y*z if y*(z.w) < 1, project onto the ball
    ||w|| <= 1/sqrt(lam), and average the iterates of the second half of
    training. The label sign is folded into the standardized row, so y*(z.w)
    is computed as (y*z).w, which is the same number.

    Runs are sorted longest first, so the runs still training at a step are
    a prefix of the weight matrix and the ones averaging are a slice of it.
    The exact norms are computed only when a running upper bound on them,
    ||w'|| <= (1 - eta*lam)||w|| + eta*||z||, nears the ball's radius.
    """
    if not lam > 0:
        raise MetlitError("svm lambda must be > 0")
    if epochs < 0:
        raise MetlitError("svm epochs must be >= 0")
    dim = vectors.values.shape[1]
    xa = np.column_stack([vectors.values, np.ones(len(vectors))])
    signs = np.where(vectors.metaphor, 1.0, -1.0)
    order = sorted(range(len(runs)), key=lambda r: -len(runs[r][0]))
    streams = [_Shuffled(*runs[r]) for r in order]
    ends = epochs * np.array([len(s.rows) for s in streams])  # last step
    averaging_from = ends // 2  # a run averages its steps t > this
    mean = np.zeros((len(runs), dim + 1))  # the bias feature stays (1 - 0) / 1
    std = np.ones((len(runs), dim + 1))
    for r, stream in enumerate(streams):
        xr = xa[stream.rows, :dim]
        mean[r, :dim] = xr.mean(axis=0)
        std[r, :dim] = xr.std(axis=0)
        del xr  # before the next run's copy is made
    std = np.where(std > 0, std, 1.0)  # zero-variance dimensions pass through

    w = np.zeros((len(runs), dim + 1))
    avg = np.zeros_like(w)
    radius = 1.0 / math.sqrt(lam)
    near = radius * (1.0 - _SLACK)  # below this no run can need projecting
    near_sq = near * near
    bound = 0.0  # >= every run's ||w||
    buffers = np.empty((2, _BLOCK * len(runs) * (dim + 1)))
    t = 0
    for stop in sorted(set(ends.tolist()) | set(averaging_from.tolist())):
        # steps t+1 .. stop share their active and averaging runs
        active = int(np.count_nonzero(ends >= stop))
        first_avg = int(np.count_nonzero(averaging_from >= stop))
        averaging = first_avg < active
        row, col = w[:active, None, :], w[:active, :, None]
        w_avg, avg_part = w[first_avg:active], avg[first_avg:active]
        margin = np.empty((active, 1, 1))
        violated = np.empty((active, 1, 1), dtype=bool)
        sq = np.empty((active, 1, 1))
        idx = np.empty((active, _BLOCK), dtype=np.intp)
        while t < stop:
            length = min(_BLOCK, stop - t)
            for stream, out in zip(streams[:active], idx[:, :length]):
                stream.take(out)
            picked = idx[:, :length].T
            size = length * active * (dim + 1)
            flat = buffers[0, :size].reshape(length, active, dim + 1)
            np.take(xa, picked, axis=0, out=flat, mode="clip")
            flat -= mean[:active]
            flat /= std[:active]
            flat *= signs[picked][:, :, None]
            etas = 1.0 / (lam * np.arange(t + 1, t + length + 1))
            z = flat[:, :, None, :]
            eta_z = np.multiply(
                z, etas[:, None, None, None],
                out=buffers[1, :size].reshape(z.shape),
            )
            # per step, eta times the largest ||z|| over the runs
            grows = etas * np.sqrt(np.einsum("lak,lak->la", flat, flat).max(axis=1))
            decays = 1.0 - etas * lam
            for zc, eta_zc, decay, grow in zip(z, eta_z, decays.tolist(), grows.tolist()):
                np.matmul(zc, col, out=margin)
                np.less(margin, 1.0, out=violated)
                row *= decay
                np.add(row, eta_zc, out=row, where=violated)
                bound = bound * decay + grow
                if bound > near:
                    np.matmul(row, col, out=sq)
                    largest = float(np.maximum.reduce(sq, axis=None))
                    if largest > near_sq:
                        norm = np.sqrt(sq)
                        over = norm > radius
                        if over.any():
                            row *= np.where(over, radius / norm, 1.0)
                    bound = min(math.sqrt(largest), radius) * (1.0 + _SLACK)
                if averaging:
                    avg_part += w_avg
            t += length

    averaged = ends - averaging_from
    models = {}
    for r, run in enumerate(order):
        final = avg[r] / averaged[r] if averaged[r] else w[r]
        models[run] = SvmModel(
            weights=final[:dim].copy(), bias=float(final[dim]), lam=lam,
            scale_mean=mean[r, :dim].copy(), scale_std=std[r, :dim].copy(),
        )
    return [models[run] for run in range(len(runs))]


def train_svm(
    train: SentenceVectors,
    lam: float = 1e-4,
    epochs: int = 100,
    seed: int = 0,
) -> SvmModel:
    """Fit the hinge objective on standardized features; deterministic per seed.

    The bias rides along as an augmented constant feature so the 1/(lam*t)
    step schedule stays stable, and iterates over the second half of
    training are averaged, which tightens convergence at small lam.
    """
    if not len(train):
        raise MetlitError("empty training set")
    if train.metaphor.all() or not train.metaphor.any():
        raise MetlitError("training set must contain both classes")
    return _pegasos(train, [(np.arange(len(train)), seed)], lam, epochs)[0]


def hinge_objective(model: SvmModel, vectors: SentenceVectors) -> float:
    """lambda/2 ||w||^2 + mean hinge loss on standardized features."""
    margins = np.where(vectors.metaphor, 1.0, -1.0) * decision(model, vectors.values)
    hinge = np.maximum(0.0, 1.0 - margins).mean()
    return float(0.5 * model.lam * model.weights @ model.weights + hinge)


def decision(model: SvmModel, x: np.ndarray) -> np.ndarray:
    """The margin of each row of x; metaphor iff margin > 0, exact 0 -> literal."""
    if x.ndim != 2 or x.shape[1] != model.dim:
        raise MetlitError(f"expected rows of dimension {model.dim}, got shape {x.shape}")
    return model.standardize(x) @ model.weights + model.bias


def kfold_split(
    n: int,
    k: int,
    seed: int = 0,
    stratified: bool = False,
    labels: list | None = None,
) -> list[np.ndarray]:
    """Partition 0..n-1 into k folds with sizes differing by at most one.

    Stratified mode deals each class's shuffled members across folds,
    rotating which folds receive the leftover extras so per-fold class
    counts stay within one of the class's even share.
    """
    if k < 2:
        raise MetlitError("k must be >= 2")
    if k > n:
        raise MetlitError(f"k={k} exceeds dataset size n={n}")
    rng = np.random.default_rng(seed)
    if not stratified:
        order = rng.permutation(n)
        return [fold for fold in np.array_split(order, k)]
    if labels is None or len(labels) != n:
        raise MetlitError("stratified split needs one label per item")
    folds: list[list[int]] = [[] for _ in range(k)]
    offset = 0
    for cls in sorted(set(labels)):
        members = np.array([i for i, lab in enumerate(labels) if lab == cls])
        members = members[rng.permutation(len(members))]
        base, extra = divmod(len(members), k)
        sizes = [base] * k
        for e in range(extra):
            sizes[(offset + e) % k] += 1
        offset = (offset + extra) % k
        pos = 0
        for f in range(k):
            folds[f].extend(members[pos:pos + sizes[f]].tolist())
            pos += sizes[f]
    return [np.array(sorted(fold)) for fold in folds]


def evaluate_fold(model: SvmModel, test: SentenceVectors) -> FoldMetrics:
    predicted = decision(model, test.values) > 0
    tp = int(np.count_nonzero(predicted & test.metaphor))
    fp = int(np.count_nonzero(predicted & ~test.metaphor))
    fn = int(np.count_nonzero(~predicted & test.metaphor))
    tn = len(test) - tp - fp - fn
    accuracy = (tp + tn) / len(test)
    precision = tp / (tp + fp) if (tp + fp) > 0 else None
    return FoldMetrics(accuracy=accuracy, precision=precision, tp=tp, fp=fp, tn=tn, fn=fn)


def cross_validate(
    vectors: SentenceVectors,
    k: int = 10,
    lam: float = 1e-4,
    epochs: int = 100,
    seed: int = 0,
) -> EvalReport:
    """Train on k-1 folds, evaluate on the held-out fold, for every fold.

    Folds are stratified so near-balanced data cannot produce a
    single-class training split. Fold f trains with seed + f; the reference
    model on the full dataset (seed) trains in the same lockstep pass and
    comes back as `report.model`. Mean precision averages only the folds
    where precision is defined.
    """
    folds = kfold_split(len(vectors), k, seed=seed, stratified=True,
                        labels=vectors.metaphor.tolist())
    everything = np.arange(len(vectors))
    runs = []
    for f, fold in enumerate(folds):
        train = np.setdiff1d(everything, fold)
        if vectors.metaphor[train].all() or not vectors.metaphor[train].any():
            raise FoldError(f"fold {f}: training split lost a class")
        runs.append((train, seed + f))
    runs.append((everything, seed))
    *fold_models, model = _pegasos(vectors, runs, lam, epochs)
    per_fold = [evaluate_fold(m, vectors[fold]) for m, fold in zip(fold_models, folds)]
    mean_accuracy = sum(m.accuracy for m in per_fold) / len(per_fold)
    defined = [m.precision for m in per_fold if m.precision is not None]
    mean_precision = sum(defined) / len(defined) if defined else None
    return EvalReport(
        per_fold=per_fold, mean_accuracy=mean_accuracy, mean_precision=mean_precision,
        model=model, fits=len(runs),
        pegasos_steps=epochs * sum(len(train) for train, _ in runs),
    )


def save_model(model: SvmModel, path: str) -> None:
    """Text format: `D lambda bias`, weights, scaling means, scaling stds."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{model.dim} {model.lam!r} {model.bias!r}\n")
        fh.write(format_floats(model.weights) + "\n")
        fh.write(format_floats(model.scale_mean) + "\n")
        fh.write(format_floats(model.scale_std) + "\n")


def load_model(path: str) -> SvmModel:
    """Read the `save_model` format; errors name the path and line."""
    lines = [(where, line.split()) for where, line in read_lines(path)]
    if len(lines) != 4 or len(lines[0][1]) != 3:
        raise MetlitError(f"{path}: expected a 'D lambda bias' line, then 3 lines of D values")
    (where, (dim, lam, bias)), *rows = lines
    lam, bias = parse_floats([lam, bias], where)
    dim = parse_count(dim, where)
    weights, means, stds = (parse_floats(fields, where, dim) for where, fields in rows)
    return SvmModel(weights, float(bias), float(lam), means, stds)


def save_report(report: EvalReport, path: str) -> None:
    """TSV: one row per fold plus a mean summary line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("fold\taccuracy\tprecision\ttp\tfp\ttn\tfn\n")
        for f, m in enumerate(report.per_fold):
            prec = "NA" if m.precision is None else f"{m.precision:.6f}"
            fh.write(
                f"{f}\t{m.accuracy:.6f}\t{prec}\t{m.tp}\t{m.fp}\t{m.tn}\t{m.fn}\n"
            )
        mean_prec = (
            "NA" if report.mean_precision is None else f"{report.mean_precision:.6f}"
        )
        fh.write(f"mean\t{report.mean_accuracy:.6f}\t{mean_prec}\t\t\t\t\n")
