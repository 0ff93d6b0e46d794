"""GloVe: weighted least-squares factorization of the co-occurrence table.

Minimizes sum over pairs of f(X_ij) * (w_i . w~_j + b_i + b~_j - ln X_ij)^2
with per-coordinate AdaGrad updates. The weight function f damps very
frequent pairs: (x / x_max)^a below the cutoff, 1 above it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import MetlitError
from .corpus import Vocabulary
from .embeddings import EmbeddingMatrix, batch_plan

BATCH = 32            # records per AdaGrad step
CHUNK_RECORDS = 1024  # records planned at a time


@dataclass
class WeightParams:
    a: float = 0.75
    x_max: float = 100.0


def weights(x: np.ndarray, params: WeightParams = WeightParams()) -> np.ndarray:
    """min(x / x_max, 1)^a over an array of nonnegative counts."""
    return np.minimum(x / params.x_max, 1.0) ** params.a


def weight_f(x: float, params: WeightParams = WeightParams()) -> float:
    """weights of one count: (x/x_max)^a for x < x_max, else 1. Monotone, in [0, 1]."""
    if x < 0:
        raise MetlitError("co-occurrence count must be nonnegative")
    return float(weights(x, params))


@dataclass
class GloveModel:
    w: np.ndarray        # (V, D) main vectors
    w_tilde: np.ndarray  # (V, D) context vectors
    b: np.ndarray        # (V,) main biases
    b_tilde: np.ndarray  # (V,) context biases
    acc_w: np.ndarray
    acc_w_tilde: np.ndarray
    acc_b: np.ndarray
    acc_b_tilde: np.ndarray


def _draw_into(parts: list[np.ndarray], dim: int, seed: int) -> None:
    """Fill w, w~, b and b~, in that order, uniform in [-0.5/D, 0.5/D]."""
    rng = np.random.default_rng(seed)
    for part in parts:
        part[...] = rng.uniform(-0.5 / dim, 0.5 / dim, size=part.shape)


def init_model(vocab_size: int, dim: int, seed: int = 0) -> GloveModel:
    """All four parameter groups uniform in [-0.5/D, 0.5/D]; accumulators 1."""
    shapes = [(vocab_size, dim), (vocab_size, dim), vocab_size, vocab_size]
    drawn = [np.empty(shape) for shape in shapes]
    _draw_into(drawn, dim, seed)
    return GloveModel(*drawn, *(np.ones(shape) for shape in shapes))


def pair_loss(
    model: GloveModel, i: int, j: int, x: float,
    params: WeightParams = WeightParams(),
) -> float:
    """f(X_ij) * (w_i . w~_j + b_i + b~_j - ln X_ij)^2."""
    return pair_gradients(model, i, j, x, params)[0]


def pair_gradients(
    model: GloveModel, i: int, j: int, x: float,
    params: WeightParams = WeightParams(),
) -> tuple[float, np.ndarray, np.ndarray, float, float]:
    """Loss and analytic gradients (d_wi, d_wtj, d_bi, d_btj) for one entry."""
    if x <= 0:
        raise MetlitError("pair loss requires X_ij > 0 (log undefined)")
    f = weight_f(x, params)
    residual = float(model.w[i] @ model.w_tilde[j] + model.b[i] + model.b_tilde[j]) - math.log(x)
    loss = f * residual * residual
    common = 2.0 * f * residual
    return loss, common * model.w_tilde[j], common * model.w[i], common, common


def total_loss(
    model: GloveModel, table: np.ndarray,
    params: WeightParams = WeightParams(),
) -> float:
    """Weighted objective over a co-occurrence table (cooccur.RECORD array)."""
    return sum(pair_loss(model, i, j, x, params) for i, j, x in table.tolist())


@dataclass
class GloveConfig:
    dim: int = 100
    lr: float = 0.05
    epochs: int = 15
    params: WeightParams = field(default_factory=WeightParams)
    seed: int = 0


def _train_chunk(params, acc, pairs, weight, log_x, lr):
    """AdaGrad steps over a chunk of records, BATCH at a time, rows
    pairs[r] = (i, V + j) of `params` ([w | b] then [w~ | b~]); returns the
    sum of their losses, each at its batch's pre-step parameters."""
    d = params.shape[1] - 1
    # batch k updates the rows touched[starts[k]:starts[k + 1]], and
    # cells[r, c] are the d + 1 cells of row pairs[r, c] in the flat (touched, d + 1) sums
    touched, starts, slot = batch_plan(pairs, len(params), BATCH)
    cells = slot[:, :, None] * (d + 1) + np.arange(d + 1)
    residual = np.empty(len(pairs))
    for k, a in enumerate(range(0, len(pairs), BATCH)):
        s, ids = slice(a, a + BATCH), touched[starts[k]:starts[k + 1]]
        q = params.take(pairs[s], axis=0)
        main, context = q[:, 0], q[:, 1]
        residual[s] = (np.einsum("nd,nd->n", main[:, :d], context[:, :d])
                       + main[:, d] + context[:, d] - log_x[s])
        # row i's gradient is common * [w~_j | 1], row V + j's is common * [w_i | 1]
        grad = q[:, ::-1].copy()
        grad[:, :, d] = 1.0
        grad *= (2.0 * weight[s] * residual[s])[:, None, None]
        # a row repeated in the batch adds its gradients and squared gradients
        g, sq = (np.bincount(cells[s].ravel(), v.ravel(), ids.size * (d + 1)).reshape(-1, d + 1)
                 for v in (grad, grad * grad))
        params[ids] -= lr * g / np.sqrt(acc[ids])
        acc[ids] += sq
    return float(weight @ (residual * residual))


def train_glove(
    table: np.ndarray,
    vocab: Vocabulary,
    config: GloveConfig,
) -> tuple[EmbeddingMatrix, list[float]]:
    """Fit vectors and biases over the table; return embeddings + epoch losses.

    `table` is a cooccur.RECORD array whose word ids index `vocab`. Each
    epoch visits the records in seeded shuffled order, BATCH at a time, and
    takes each record's loss and gradient at its batch's pre-step
    parameters: a batch of one is the per-record AdaGrad loop. A chunk of
    CHUNK_RECORDS records is gathered, weighted and planned (batch_plan) at
    once. The loss per epoch is the sum of those losses. Divergence is
    surfaced: non-finite parameters or a non-finite loss raise, never clipped.
    """
    if not len(table):
        raise MetlitError("empty co-occurrence table")
    top = max(table["i"].max(), table["j"].max())
    if top >= len(vocab):
        raise MetlitError(f"co-occurrence table has word id {top}, outside the "
                         f"vocabulary of {len(vocab)} words")
    if not (table["x"] > 0).all():
        raise MetlitError("pair loss requires X_ij > 0 (log undefined)")
    v = len(vocab)
    try:  # numpy gives ValueError for a size past its index range
        # [w | b] over [w~ | b~], drawn as init_model draws them
        params = np.empty((2 * v, config.dim + 1))
        _draw_into([params[:v, :-1], params[v:, :-1], params[:v, -1], params[v:, -1]],
                   config.dim, config.seed)
        acc = np.ones_like(params)
    except (MemoryError, ValueError):
        raise MetlitError(f"--dim {config.dim}: cannot allocate the V×D parameter matrices")
    chunk = BATCH * max(1, CHUNK_RECORDS // BATCH)
    shuffle_rng = np.random.default_rng(config.seed + 1)
    epoch_losses: list[float] = []
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(len(table))
        epoch_loss = 0.0
        with np.errstate(all="ignore"):
            for a in range(0, len(order), chunk):
                part = table[order[a:a + chunk]]
                rows = np.column_stack([part["i"], part["j"]]).astype(np.intp) + [0, v]
                epoch_loss += _train_chunk(params, acc, rows, weights(part["x"], config.params),
                                           np.log(part["x"]), config.lr)
        if not np.isfinite(params).all():
            raise MetlitError(f"non-finite parameters after epoch {epoch}")
        if not math.isfinite(epoch_loss):
            raise MetlitError(f"non-finite loss in epoch {epoch}")
        epoch_losses.append(epoch_loss)
    embeddings = EmbeddingMatrix(list(vocab.words), params[:v, :-1] + params[v:, :-1])
    return embeddings, epoch_losses
