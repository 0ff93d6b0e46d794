"""CBOW word vector training by stochastic gradient descent.

Predicts a center word from the mean of its context vectors. Training
minimizes the negative-sampling surrogate of J = -log P(center | context)
over minibatches of windows. The per-window losses and gradients below
(exact softmax and negative sampling) are the references the gradient
checks and the per-window steps in tests/helpers.py are built on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import MetlitError
from .corpus import Vocabulary, flatten
from .embeddings import EmbeddingMatrix, batch_plan

LR_FLOOR_FRACTION = 1e-4  # linear decay ends at lr0 * this


@dataclass
class ContextWindow:
    center: int
    context: list[int]


@dataclass
class CbowModel:
    input_vectors: np.ndarray   # (V, D) context side
    output_vectors: np.ndarray  # (V, D) center side

    def copy(self) -> "CbowModel":
        return CbowModel(self.input_vectors.copy(), self.output_vectors.copy())


def init_model(vocab_size: int, dim: int, seed: int = 0) -> CbowModel:
    """Input vectors uniform in [-0.5/D, 0.5/D]; output vectors zero."""
    rng = np.random.default_rng(seed)
    bound = 0.5 / dim
    input_vectors = rng.uniform(-bound, bound, size=(vocab_size, dim))
    output_vectors = np.zeros((vocab_size, dim))
    return CbowModel(input_vectors, output_vectors)


def context_mean(model: CbowModel, window: ContextWindow) -> np.ndarray:
    """Arithmetic mean of input vectors over the context ids."""
    if not window.context:
        raise MetlitError("empty context window")
    return model.input_vectors[window.context].mean(axis=0)


def loss_exact(model: CbowModel, window: ContextWindow) -> float:
    """-log softmax(output . context_mean)[center]; always >= 0."""
    h = context_mean(model, window)
    logits = model.output_vectors @ h
    shift = logits.max()
    return float(shift + np.log(np.exp(logits - shift).sum()) - logits[window.center])


def exact_gradients(
    model: CbowModel, window: ContextWindow
) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss plus gradients for exact mode.

    Returns (loss, grad over output_vectors (V, D), grad of the context
    mean h (D,)). The per-context-row input gradient is grad_h / |context|,
    accumulated once per occurrence of a duplicated id.
    """
    h = context_mean(model, window)
    logits = model.output_vectors @ h
    shift = logits.max()
    exp = np.exp(logits - shift)
    probs = exp / exp.sum()
    loss = float(shift + np.log(exp.sum()) - logits[window.center])
    d_logits = probs.copy()
    d_logits[window.center] -= 1.0
    grad_output = np.outer(d_logits, h)
    grad_h = model.output_vectors.T @ d_logits
    return loss, grad_output, grad_h


class UnigramSampler:
    """Draws noise words from unigram frequency raised to the 0.75 power.

    A uniform u draws word searchsorted(cumulative, u, side="right"). A guide
    table gives that word for u in each of GUIDE equal buckets of [0, 1)
    that holds no cumulative edge; only draws in the other buckets search.
    """

    GUIDE = 1 << 16  # a power of two, so u * GUIDE and g / GUIDE are exact

    def __init__(self, freqs: np.ndarray):
        weights = np.asarray(freqs, dtype=np.float64) ** 0.75
        total = weights.sum()
        if total <= 0:
            raise MetlitError("sampler needs at least one positive frequency")
        self._cumulative = np.cumsum(weights / total)
        self._cumulative[-1] = 1.0
        first = np.searchsorted(self._cumulative, np.arange(self.GUIDE + 1) / self.GUIDE)
        self._guide, self._search = first[:-1], first[:-1] != first[1:]

    @classmethod
    def from_vocabulary(cls, vocab: Vocabulary) -> "UnigramSampler":
        return cls(np.array([vocab.freq[w] for w in vocab.words], dtype=np.float64))

    def draw(self, rng: np.random.Generator, k: int) -> np.ndarray:
        u = rng.random(k)
        bucket = (u * self.GUIDE).astype(np.intp)
        words = self._guide[bucket]
        search = np.flatnonzero(self._search[bucket])
        words[search] = np.searchsorted(self._cumulative, u[search], side="right")
        return words


def negative_loss(
    model: CbowModel, window: ContextWindow, negatives: list[int]
) -> float:
    """Surrogate loss: -log sig(s_center) - sum(log sig(-s_negative))."""
    h = context_mean(model, window)
    s_pos = float(model.output_vectors[window.center] @ h)
    loss = float(np.logaddexp(0.0, -s_pos))
    if negatives:
        s_neg = model.output_vectors[negatives] @ h
        loss += float(np.logaddexp(0.0, s_neg).sum())
    return loss


def negative_gradients(
    model: CbowModel, window: ContextWindow, negatives: list[int]
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Loss plus gradients of the surrogate for fixed negatives.

    Returns (loss, rows = [center] + negatives as an array, grad over those
    output rows, grad of the context mean).
    """
    h = context_mean(model, window)
    rows = np.array([window.center] + list(negatives))
    scores = model.output_vectors[rows] @ h
    sig = 1.0 / (1.0 + np.exp(-scores))
    loss = float(np.logaddexp(0.0, -scores[0]))
    if len(negatives):
        loss += float(np.logaddexp(0.0, scores[1:]).sum())
    coeff = sig.copy()
    coeff[0] -= 1.0  # positive term: sigma - 1; negatives keep sigma
    grad_rows = np.outer(coeff, h)
    grad_h = coeff @ model.output_vectors[rows]
    return loss, rows, grad_rows, grad_h


@dataclass
class CbowConfig:
    dim: int = 100
    window: int = 5           # radius m
    epochs: int = 5
    lr: float = 0.05
    negatives: int = 5
    seed: int = 0


BATCH = 32           # windows per SGD step
CHUNK_WINDOWS = 1024  # windows built, given negatives and planned at a time


def _window_schedule(lr0: float, processed: np.ndarray, total: int) -> np.ndarray:
    """Linear decay from lr0 to lr0 * LR_FLOOR_FRACTION over `total` windows."""
    frac = processed / total
    return lr0 * np.maximum(LR_FLOOR_FRACTION, 1.0 - (1.0 - LR_FLOOR_FRACTION) * frac)


def build_windows(
    tokens: np.ndarray, sentence_ids: np.ndarray, positions: np.ndarray, m: int,
    pad: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Contexts of the windows centered at `positions`.

    Returns (ids, counts): row r holds the counts[r] context ids of window
    r, left context then right, cut at the sentence edges as
    iterate_windows cuts them, followed by `pad` up to width 2m.
    `sentence_ids` must be non-decreasing, as flatten gives them.
    """
    sentence = sentence_ids[positions]
    left = np.minimum(positions - np.searchsorted(sentence_ids, sentence), m)
    right = np.minimum(np.searchsorted(sentence_ids, sentence, side="right") - 1 - positions, m)
    counts = left + right
    # column c is the c-th context token: it skips the center once c >= left
    c = np.arange(2 * m)
    idx = positions[:, None] - left[:, None] + c + (c >= left[:, None])
    ids = tokens.take(idx, mode="clip")
    ids[c >= counts[:, None]] = pad
    return ids, counts


def _train_chunk(params, context, counts, rows, kept, lr, stack):
    """Summed negative-sampling steps over a chunk of windows, BATCH at a
    time; returns the sum of the windows' pre-step losses.

    `params` stacks the input rows, a zero row, the output rows and a zero
    row; `rows` index its output half (center, then negatives). Every
    window's gradient is taken at its batch's pre-step parameters, as
    negative_gradients takes it, and rows shared within a batch accumulate
    every contribution. Padding and dropped negatives point at the zero
    rows, which are cleared again after each step. grad_h and h are
    written into the first 2n rows of `stack`, a (2 BATCH, D) buffer.
    """
    width = context.shape[1]
    pads = [len(params) // 2 - 1, len(params) - 1]
    # batch k of n windows updates the rows touched[starts[k]:starts[k + 1]],
    # and entry (r, c) of [context | rows] adds weight[r, c] to cell
    # cells[r, c] of its (touched, 2n) matrix m, in column b for window b's
    # context and n + b for its output rows; the step fills in the output weights
    touched, starts, slot = batch_plan(np.hstack([context, rows]), len(params), BATCH)
    window = np.arange(len(counts))
    size = np.minimum(BATCH, len(counts) - window // BATCH * BATCH)[:, None]
    b = (window % BATCH)[:, None]
    cells = slot * 2 * size + np.where(np.arange(slot.shape[1]) < width, b, b + size)
    weight = np.empty(slot.shape)
    weight[:, :width] = (-lr / counts)[:, None]
    scores = np.empty(rows.shape)
    for k, a in enumerate(range(0, len(counts), BATCH)):
        s, ids = slice(a, a + BATCH), touched[starts[k]:starts[k + 1]]
        n = len(counts[s])
        grad_h, h = stack[:n], stack[n:2 * n]
        np.divide(params.take(context[s].T, axis=0).sum(axis=0), counts[s, None], out=h)
        out = params.take(rows[s], axis=0)
        scores[s] = np.matmul(out, h[:, :, None])[..., 0]
        coeff = 1.0 / (1.0 + np.exp(-scores[s]))
        coeff[:, 0] -= 1.0
        coeff[:, 1:] *= kept[s]
        np.matmul(coeff[:, None, :], out, out=grad_h[:, None, :])
        # Scatter-add both updates as one product, which is faster than
        # np.add.at on rows: touched row r gains sum_b m[r, b] * [grad_h; h][b].
        # bincount adds in the order np.add.at does, so m is the same bits.
        np.multiply(-lr[s, None], coeff, out=weight[s, width:])
        m = np.bincount(cells[s].ravel(), weight[s].ravel(), len(ids) * 2 * n)
        params[ids] += m.reshape(-1, 2 * n) @ stack[:2 * n]
        params[pads] = 0.0
    pos, neg = np.logaddexp(0.0, -scores[:, 0]), np.logaddexp(0.0, scores[:, 1:])
    return float(pos.sum() + neg.sum(where=kept))


def train_cbow(
    sentences: list[list[int]],
    vocab: Vocabulary,
    config: CbowConfig,
) -> tuple[EmbeddingMatrix, list[float]]:
    """Train over encoded sentences; return embeddings and mean loss per epoch.

    The final embeddings are the input (context-side) vectors. Sentence
    order is reshuffled each epoch from the seed, and training is
    bit-reproducible for a given seed. Each window draws its k negatives
    from the epoch's rng and, as word2vec does, skips a draw equal to its
    center. Windows are stepped BATCH at a time; with BATCH = 1 this is the
    per-window negative-sampling loop.
    """
    sentences = [s for s in sentences if s]
    if not sentences:
        raise MetlitError("empty corpus")
    if config.negatives > len(vocab):
        raise MetlitError(f"--negatives must be <= the vocabulary size {len(vocab)}, "
                          f"got {config.negatives}")
    # no context reaches past the longest sentence
    m = min(config.window, max(map(len, sentences)) - 1)
    # input rows, a zero row, output rows (zero at the start), a zero row
    pad = len(vocab)
    try:  # numpy gives ValueError for a size past its index range
        params = np.zeros((2 * pad + 2, config.dim))
        params[:pad] = init_model(pad, config.dim, seed=config.seed).input_vectors
        stack = np.empty((2 * BATCH, config.dim))
    except (MemoryError, ValueError):
        raise MetlitError(f"--dim {config.dim}: cannot allocate the V×D parameter matrices")
    sampler = UnigramSampler.from_vocabulary(vocab)
    order_rng = np.random.default_rng(config.seed + 1)
    windows_per_epoch = sum(map(len, sentences))
    total = windows_per_epoch * max(config.epochs, 1)
    chunk = BATCH * max(1, CHUNK_WINDOWS // BATCH)
    epoch_losses: list[float] = []
    for epoch in range(config.epochs):
        order = order_rng.permutation(len(sentences))
        tokens, sentence_ids = flatten([sentences[k] for k in order])
        # a one-token sentence's window has no context: it is skipped and
        # takes no draws, but its position still advances the lr schedule
        positions = np.flatnonzero(np.bincount(sentence_ids)[sentence_ids] > 1)
        rng = np.random.default_rng(config.seed + 7919 * (epoch + 1))
        loss_sum = 0.0
        with np.errstate(all="ignore"):
            for a in range(0, len(positions), chunk):
                where = positions[a:a + chunk]
                context, counts = build_windows(tokens, sentence_ids, where, m, pad)
                centers = tokens[where]
                # word2vec's rule: a draw equal to the center is skipped
                negatives = sampler.draw(rng, len(where) * config.negatives)
                negatives = negatives.reshape(len(where), -1)
                kept = negatives != centers[:, None]
                negatives[~kept] = pad
                rows = np.concatenate([centers[:, None], negatives], axis=1) + pad + 1
                lr = _window_schedule(
                    config.lr, epoch * windows_per_epoch + where, total
                )
                loss_sum += _train_chunk(params, context, counts, rows, kept, lr, stack)
        if not np.isfinite(params).all():
            raise MetlitError(f"non-finite parameters after epoch {epoch}")
        epoch_losses.append(loss_sum / len(positions) if len(positions) else 0.0)
        if not math.isfinite(epoch_losses[-1]):
            raise MetlitError(f"non-finite loss in epoch {epoch}")
    embeddings = EmbeddingMatrix(list(vocab.words), params[:pad].copy())
    return embeddings, epoch_losses
