import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from metlit import MetlitError, cbow
from metlit.cbow import (
    CbowConfig,
    UnigramSampler,
    batch_plan,
    build_windows,
    context_mean,
    init_params,
    loss_exact,
    negative_loss,
    train_cbow,
)
from metlit.corpus import Vocabulary, build_vocabulary

from helpers import (
    as_encoded,
    exact_gradients,
    iterate_windows,
    max_relerr,
    mean_cosine,
    negative_gradients,
    numeric_grad,
    reference_train_cbow,
    sample_negatives,
    sgd_step_exact,
    sgd_step_negative,
    traced_peak,
    two_topic_corpus,
    zipf_sentences,
)


def random_params(rng, vocab_size, dim):
    """Stacked parameters with the input rows, then the output rows, drawn
    from N(0, 1), and zero pad rows."""
    params = np.zeros((2 * vocab_size + 2, dim))
    params[:vocab_size] = rng.normal(0, 1, (vocab_size, dim))
    params[vocab_size + 1:-1] = rng.normal(0, 1, (vocab_size, dim))
    return params


class TestContextMean:
    def test_singleton(self):
        params = np.zeros((4, 2))
        params[0] = [1.0, 0.0]
        assert np.array_equal(context_mean(params, [0]), [1.0, 0.0])

    def test_two_point_mean(self):
        params = np.zeros((6, 2))
        params[:2] = np.eye(2)
        assert np.array_equal(context_mean(params, [0, 1]), [0.5, 0.5])

    def test_duplicate_id_equals_singleton(self):
        params = np.zeros((6, 2))
        params[:2] = [[1.0, 3.0], [9.0, 9.0]]
        assert np.array_equal(context_mean(params, [0]), context_mean(params, [0, 0]))

    def test_empty_context_raises(self):
        with pytest.raises(ValueError):
            context_mean(np.zeros((4, 2)), [])


class TestExactLoss:
    def test_zero_vectors_give_uniform_softmax(self):
        # two words: the softmax runs over their output rows, not the pad rows
        loss = loss_exact(np.zeros((6, 3)), 0, [1])
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_single_word_vocabulary_is_lossless(self):
        assert loss_exact(np.ones((4, 2)), 0, [0]) == pytest.approx(0.0, abs=1e-12)

    def test_handcrafted_logits(self):
        # context mean (1,); output rows give logits (2, 0, 0); center word 0
        params = np.zeros((8, 1))
        params[0], params[4] = 1.0, 2.0
        loss = loss_exact(params, 0, [0])
        expected = -math.log(math.exp(2) / (math.exp(2) + 2))
        assert loss == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(math.log(math.exp(2) + 2) - 2, abs=1e-15)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(0)
        params = random_params(rng, 7, 4)
        # the softmax probability of each center is exp(-loss_exact)
        probs = np.array([math.exp(-loss_exact(params, c, [1, 2, 5])) for c in range(7)])
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert (probs > 0).all()

    def test_loss_is_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            params = random_params(rng, 5, 3)
            assert loss_exact(params, int(rng.integers(5)), [int(rng.integers(5))]) >= 0.0

    def test_large_logits_do_not_overflow(self):
        params = np.zeros((6, 1))
        params[:2], params[3:5] = 500.0, 2.0
        assert math.isfinite(loss_exact(params, 0, [1]))


class TestExactGradients:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            v, d = int(rng.integers(2, 8)), int(rng.integers(1, 5))
            params = random_params(rng, v, d)
            center = int(rng.integers(v))
            ctx = [int(c) for c in rng.integers(0, v, int(rng.integers(1, 5)))]
            num = numeric_grad(lambda p: loss_exact(p, center, ctx), params.copy())
            assert max_relerr(exact_gradients(params, center, ctx), num) < 1e-4

    def test_context_mean_gradient_via_chain_rule(self):
        rng = np.random.default_rng(3)
        params = random_params(rng, 6, 3)
        grad = exact_gradients(params, 2, [0, 4, 4])
        num = numeric_grad(lambda p: loss_exact(p, 2, [0, 4, 4]), params.copy())
        # each occurrence of a context id receives grad_h / |ctx|
        assert max_relerr(grad, num) < 1e-4
        assert np.array_equal(grad[4], 2 * grad[0]) and not grad[[1, 2, 3, 5, 6]].any()


class TestSgdSteps:
    def test_zero_lr_leaves_model_unchanged(self):
        rng = np.random.default_rng(4)
        params = random_params(rng, 5, 3)
        before = params.copy()
        loss = sgd_step_exact(params, 1, [0, 2], lr=0.0)
        assert loss == pytest.approx(loss_exact(params, 1, [0, 2]))
        assert np.array_equal(params, before)

    def test_small_step_decreases_exact_loss(self):
        rng = np.random.default_rng(5)
        params = random_params(rng, 6, 4)
        before = loss_exact(params, 2, [1, 3, 5])
        sgd_step_exact(params, 2, [1, 3, 5], lr=0.05)
        assert loss_exact(params, 2, [1, 3, 5]) < before

    def test_negative_step_decreases_surrogate_loss(self):
        rng = np.random.default_rng(6)
        params = random_params(rng, 6, 4)
        negatives = [0, 5]
        before = negative_loss(params, 2, [1, 3], negatives)
        params -= 0.05 * negative_gradients(params, 2, [1, 3], negatives)
        assert negative_loss(params, 2, [1, 3], negatives) < before


class TestNegativeSampling:
    def test_loss_with_zero_scores_is_k_plus_one_log_two(self):
        loss = negative_loss(np.zeros((10, 2)), 0, [1], negatives=[2, 3])
        assert loss == pytest.approx(3 * math.log(2), abs=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            v, d = int(rng.integers(3, 8)), int(rng.integers(1, 5))
            params = random_params(rng, v, d)
            center = int(rng.integers(v))
            negatives = [int(n) for n in rng.integers(0, v, 2) if n != center]
            ctx = [int(c) for c in rng.integers(0, v, 2)]
            num = numeric_grad(lambda p: negative_loss(p, center, ctx, negatives), params.copy())
            assert max_relerr(negative_gradients(params, center, ctx, negatives), num) < 1e-4

    @settings(deadline=None)
    @given(
        freqs=st.lists(st.integers(0, 10**6), min_size=1, max_size=3000)
        .filter(lambda f: sum(f) > 0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_guide_table_draws_equal_searchsorted(self, freqs, seed):
        # uniforms on and beside the bucket edges and the cumulative edges,
        # where the guide table could be off by one word
        sampler = UnigramSampler(np.array(freqs, dtype=float))
        cumulative = sampler._cumulative
        rng = np.random.default_rng(seed)
        edges = np.concatenate([cumulative, rng.integers(0, sampler.GUIDE, 50) / sampler.GUIDE])
        u = np.concatenate([edges, np.nextafter(edges, 0.0), rng.random(500)])
        u = u[u < 1.0]
        got = sampler.draw(PlannedUniforms(u), len(u))
        assert np.array_equal(got, np.searchsorted(cumulative, u, side="right"))

    @settings(deadline=None)
    @given(freqs=st.lists(st.integers(0, 10**6), min_size=1, max_size=3000)
           .filter(lambda f: sum(f) > 0))
    @example(freqs=[7])
    @example(freqs=[0, 0, 3, 0, 1, 0])
    @example(freqs=[1, 1, 1, 1])  # cumulative edges on bucket edges
    def test_guide_equals_searchsorted_over_the_buckets(self, freqs):
        # zero-frequency words fill no bucket of their own; one word fills all
        sampler = UnigramSampler(np.array(freqs, dtype=float))
        grid = np.arange(sampler.GUIDE + 1) / sampler.GUIDE
        first = np.searchsorted(sampler._cumulative, grid)
        assert sampler._guide.dtype == np.int32
        assert np.array_equal(sampler._guide, first[:-1])
        assert np.array_equal(sampler._search, first[:-1] != first[1:])

    def test_sampler_follows_three_quarter_power_law(self):
        freqs = np.array([81.0, 16.0, 1.0])
        sampler = UnigramSampler(freqs)
        rng = np.random.default_rng(8)
        draws = sampler.draw(rng, 200_000)
        observed = np.bincount(draws, minlength=3) / draws.size
        expected = freqs**0.75 / (freqs**0.75).sum()
        assert np.abs(observed - expected).max() < 0.01

    def test_center_collision_dropped(self):
        # single-word sampler: every draw is word 0, so center 0 can never
        # survive and the draw is dropped, not redrawn
        sampler = UnigramSampler(np.array([1.0]))
        rng = np.random.default_rng(9)
        assert sample_negatives(sampler, rng, center=0, k=1) == []

    def test_negatives_never_contain_center(self):
        vocab_freqs = np.array([5.0, 3.0, 2.0, 1.0])
        sampler = UnigramSampler(vocab_freqs)
        rng = np.random.default_rng(10)
        for center in range(4):
            for _ in range(50):
                negs = sample_negatives(sampler, rng, center, k=5)
                assert center not in negs
                assert len(negs) <= 5

    def test_sgd_step_negative_requires_positive_k(self):
        sampler = UnigramSampler(np.array([1.0, 1.0]))
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError):
            sgd_step_negative(np.zeros((6, 2)), 0, [1], 0.1, 0, sampler, rng)


class TestInit:
    def test_input_uniform_bounds_and_output_zero(self):
        params = init_params(vocab_size=50, dim=10, seed=1)
        assert params.shape == (102, 10)
        assert (np.abs(params[:50]) <= 0.5 / 10).all()
        assert params[:50].any()
        assert not params[50:].any()

    def test_same_seed_reproduces_init(self):
        assert np.array_equal(init_params(20, 4, seed=7), init_params(20, 4, seed=7))


class TestTrainCbow:
    def _corpus(self, seed=0, n_tokens=2000):
        rng = np.random.default_rng(seed)
        sentences, topic_a, topic_b = two_topic_corpus(rng, n_tokens=n_tokens)
        vocab = build_vocabulary(sentences)
        encoded = as_encoded([vocab.encode(s) for s in sentences])
        return encoded, vocab, topic_a, topic_b

    def test_epochs_zero_returns_initialization(self):
        encoded, vocab, _, _ = self._corpus()
        config = CbowConfig(dim=8, epochs=0, seed=3)
        emb, losses = train_cbow(encoded, vocab, config)
        assert losses == []
        v = len(vocab)
        draw = np.random.default_rng(3).uniform(-0.5 / 8, 0.5 / 8, (v, 8))
        assert np.array_equal(emb.vectors, draw)
        assert np.array_equal(init_params(v, 8, seed=3), np.vstack([draw, np.zeros((v + 2, 8))]))

    @pytest.mark.memory
    def test_set_up_draws_straight_into_the_stacked_parameters(self):
        # the stacked parameters are one (2V + 2, D) matrix, the draw of the
        # input rows and the returned embeddings half of one more each, but
        # never both at once; a whole input and output model drawn beside
        # them would add one matrix
        v, d = 2000, 200
        words = [str(i) for i in range(v)]
        vocab = Vocabulary(words, dict.fromkeys(words, 1))
        config = CbowConfig(dim=d, epochs=0)
        _, peak = traced_peak(train_cbow, as_encoded([[0, v - 1]]), vocab, config)
        matrix = (2 * v + 2) * d * 8
        assert peak < 1.8 * matrix, f"{peak / matrix:.2f} stacked-parameter matrices"

    def test_empty_corpus_is_an_error(self):
        _, vocab, _, _ = self._corpus()
        with pytest.raises(ValueError):
            train_cbow(as_encoded([]), vocab, CbowConfig(dim=4))
        with pytest.raises(ValueError):
            train_cbow(as_encoded([[]]), vocab, CbowConfig(dim=4))

    @pytest.mark.parametrize("sentences", [[[0], [1], [], [2]], [[0]]])
    def test_no_window_with_context_is_an_error(self, sentences):
        _, vocab, _, _ = self._corpus()
        with pytest.raises(MetlitError, match="no sentence has two in-vocabulary tokens"):
            train_cbow(as_encoded(sentences), vocab, CbowConfig(dim=4, negatives=1))

    @pytest.mark.memory
    def test_working_memory_grows_by_a_few_bytes_a_token(self):
        # training holds per-sentence arrays (sentences of 14 tokens) and
        # per-chunk ones, but no corpus-length array: a shuffled copy of the
        # corpus, with its int64 index temporaries, and an array of every
        # window's position grew it by 14 bytes a token here
        words = [str(i) for i in range(2000)]
        vocab = Vocabulary(words, dict.fromkeys(words, 1))
        sentences = zipf_sentences(np.random.default_rng(0), 25_000, 2000)
        config = CbowConfig(dim=10, epochs=1)
        peaks = [traced_peak(train_cbow, as_encoded(sentences * copies), vocab, config)[1]
                 for copies in (1, 4)]
        per_token = (peaks[1] - peaks[0]) / (3 * 25_000)
        assert per_token < 8, f"{per_token:.1f} bytes a token"

    def test_same_seed_bit_reproducible_single_thread(self):
        encoded, vocab, _, _ = self._corpus()
        config = CbowConfig(dim=8, epochs=2, seed=5)
        emb1, losses1 = train_cbow(encoded, vocab, config)
        emb2, losses2 = train_cbow(encoded, vocab, config)
        assert np.array_equal(emb1.vectors, emb2.vectors)
        assert losses1 == losses2

    def test_different_seeds_differ(self):
        encoded, vocab, _, _ = self._corpus()
        emb1, _ = train_cbow(encoded, vocab, CbowConfig(dim=8, epochs=1, seed=1))
        emb2, _ = train_cbow(encoded, vocab, CbowConfig(dim=8, epochs=1, seed=2))
        assert not np.array_equal(emb1.vectors, emb2.vectors)

    def test_two_topic_separation(self):
        encoded, vocab, topic_a, topic_b = self._corpus(n_tokens=4000)
        config = CbowConfig(dim=16, epochs=5, seed=0, window=4)
        emb, _ = train_cbow(encoded, vocab, config)
        intra = mean_cosine(emb, topic_a, topic_a)
        inter = mean_cosine(emb, topic_a, topic_b)
        assert intra > inter


def batch_step(monkeypatch, params, windows, negatives, lrs):
    """Run the batched kernel on explicit (center, context) windows and
    negatives, in place, as a chunk of one batch.

    `negatives` lists each window's kept negatives; the kernel sees them
    padded to a common width with the rest marked not kept.
    """
    pad = len(params) // 2 - 1
    context = np.full((len(windows), max(len(c) for _, c in windows)), pad)
    negs = np.full((len(windows), max(len(n) for n in negatives)), pad)
    for r, ((_, ctx), neg) in enumerate(zip(windows, negatives)):
        context[r, :len(ctx)] = ctx
        negs[r, :len(neg)] = neg
    counts = np.array([len(c) for _, c in windows])
    rows = np.hstack([[[c] for c, _ in windows], negs]) + pad + 1
    lrs, kept = np.asarray(lrs, dtype=float), negs != pad
    monkeypatch.setattr(cbow, "BATCH", len(windows))
    stack = np.empty((2 * len(windows), params.shape[1]))
    return cbow._train_chunk(params, context, counts, rows, kept, lrs, stack)


class PlannedUniforms:
    """Stands in for an rng whose random(n) returns the given uniforms."""

    def __init__(self, uniforms):
        self.uniforms = uniforms

    def random(self, n):
        assert n == len(self.uniforms)
        return self.uniforms


class PlannedDraws:
    """Stands in for an rng: random(n) returns uniforms that a uniform
    sampler over `vocab_size` words maps to the planned word ids."""

    def __init__(self, words, vocab_size):
        self.uniforms = [(w + 0.5) / vocab_size for w in words]

    def random(self, n):
        taken, self.uniforms = self.uniforms[:n], self.uniforms[n:]
        return np.array(taken)


class TestBatchedKernel:
    def _corpus(self):
        rng = np.random.default_rng(3)
        sentences, _, _ = two_topic_corpus(rng, n_tokens=1500)
        # one-token sentences have no context: skipped, but on the lr clock
        sentences += [["alpha1"], ["beta2"], ["alpha3", "beta1"], ["beta4"]]
        order = rng.permutation(len(sentences))
        sentences = [sentences[i] for i in order]
        vocab = build_vocabulary(sentences)
        return [vocab.encode(s) for s in sentences], vocab

    @pytest.mark.parametrize("chunk", [4096, 7])
    def test_batch_of_one_equals_reference_loop(self, monkeypatch, chunk):
        encoded, vocab = self._corpus()
        monkeypatch.setattr(cbow, "BATCH", 1)
        monkeypatch.setattr(cbow, "CHUNK_WINDOWS", chunk)
        config = CbowConfig(dim=8, epochs=2, seed=5, window=3, lr=0.1)
        emb, losses = train_cbow(as_encoded(encoded), vocab, config)
        ref, ref_losses = reference_train_cbow(encoded, vocab, config)
        assert np.abs(emb.vectors - ref.vectors).max() <= 1e-12
        assert np.allclose(losses, ref_losses, rtol=0, atol=1e-12)

    def test_disjoint_windows_equal_two_sequential_steps(self, monkeypatch):
        rng = np.random.default_rng(12)
        params = random_params(rng, 10, 4)
        sampler = UnigramSampler(np.ones(10))
        first, second = (0, [1, 2]), (5, [6])
        planned = [[3, 4], [7, 8]]
        expected = params.copy()
        draws = PlannedDraws(planned[0] + planned[1], 10)
        loss = sgd_step_negative(expected, *first, 0.3, 2, sampler, draws)
        loss += sgd_step_negative(expected, *second, 0.2, 2, sampler, draws)
        got = batch_step(monkeypatch, params, [first, second], planned, [0.3, 0.2])
        assert got == pytest.approx(loss, rel=1e-12)
        assert np.abs(params - expected).max() <= 1e-12

    def test_shared_rows_accumulate_every_contribution(self, monkeypatch):
        rng = np.random.default_rng(13)
        params = random_params(rng, 8, 3)
        # word 2 is context of both windows; word 4 is a negative twice in
        # the first window and once in the second
        windows = [(0, [2, 3]), (1, [2, 5, 2])]
        negatives = [[4, 4, 6], [4]]
        lrs = [0.25, 0.5]
        # both gradients at the parameters before the step
        expected = params - sum(lr * negative_gradients(params, *win, neg)
                                for win, neg, lr in zip(windows, negatives, lrs))
        batch_step(monkeypatch, params, windows, negatives, lrs)
        assert np.abs(params - expected).max() <= 1e-12

    def test_chunk_equals_batches_scattered_by_add_at_bitwise(self, monkeypatch):
        # one chunk of 23 windows against its batches of 5 (the last of 3),
        # each planned alone by np.unique and scattered by np.add.at; few
        # ids and padding make duplicate cells common, and the rates spread
        # the update weights over 10^-9..10^9
        rng = np.random.default_rng(16)
        v, d, n_windows, batch = 6, 3, 23, 5
        monkeypatch.setattr(cbow, "BATCH", batch)
        params = rng.normal(0, 1, (2 * v + 2, d))
        params[[v, -1]] = 0.0
        context = rng.integers(0, v + 1, (n_windows, 4))
        counts = rng.integers(1, 5, n_windows)
        rows = np.hstack([rng.integers(v + 1, 2 * v + 1, (n_windows, 1)),
                          rng.integers(v + 1, 2 * v + 2, (n_windows, 2))])
        kept = rows[:, 1:] != 2 * v + 1
        lr = rng.uniform(0.1, 1.0, n_windows) * 10.0 ** rng.integers(-9, 9, n_windows)
        expected = params.copy()
        # large rates saturate later scores: exp overflows, as train_cbow lets it
        with np.errstate(over="ignore"):
            for b in range(0, n_windows, batch):
                s = slice(b, b + batch)
                n = len(counts[s])
                h = expected.take(context[s].T, axis=0).sum(axis=0) / counts[s, None]
                out = expected[rows[s]]
                coeff = 1.0 / (1.0 + np.exp(-np.matmul(out, h[:, :, None])[..., 0]))
                coeff[:, 0] -= 1.0
                coeff[:, 1:] *= kept[s]
                grad_h = np.matmul(coeff[:, None, :], out)[:, 0]
                ids, slot = np.unique(np.hstack([context[s], rows[s]]), return_inverse=True)
                column = np.hstack([np.repeat(np.arange(n)[:, None], 4, axis=1),
                                    np.repeat(np.arange(n, 2 * n)[:, None], 3, axis=1)])
                weight = np.hstack([np.repeat((-lr[s] / counts[s])[:, None], 4, axis=1),
                                    -lr[s, None] * coeff])
                m = np.zeros((len(ids), 2 * n))
                np.add.at(m, (slot.reshape(n, -1), column), weight)
                expected[ids] += m @ np.vstack([grad_h, h])
                expected[[v, -1]] = 0.0
            cbow._train_chunk(params, context, counts, rows, kept, lr, np.empty((2 * batch, d)))
        assert params.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("chunk", [1, 7, 32])
    def test_chunk_draws_equal_per_window_draws(self, monkeypatch, chunk):
        # a small, skewed vocabulary makes center collisions frequent; the
        # chunk's one call must match k draws per window from the same rng,
        # with a draw equal to the window's center dropped
        sampler = UnigramSampler(np.array([50.0, 20.0, 5.0, 1.0]))
        sentences = [list(s) for s in np.random.default_rng(14).integers(0, 4, (60, 5))]
        vocab = build_vocabulary([[str(w) for w in s] for s in sentences])
        encoded = [vocab.encode([str(w) for w in s]) for s in sentences]
        monkeypatch.setattr(UnigramSampler, "from_vocabulary", lambda v: sampler)
        monkeypatch.setattr(cbow, "BATCH", 1)
        monkeypatch.setattr(cbow, "CHUNK_WINDOWS", chunk)
        drawn = []
        real_train_chunk = cbow._train_chunk

        def recording_chunk(params, context, counts, rows, kept, *rest):
            drawn.extend((r[1:] - len(vocab) - 1)[k].tolist() for r, k in zip(rows, kept))
            return real_train_chunk(params, context, counts, rows, kept, *rest)

        monkeypatch.setattr(cbow, "_train_chunk", recording_chunk)
        config = CbowConfig(dim=4, epochs=1, seed=3, window=2, negatives=4)
        train_cbow(as_encoded(encoded), vocab, config)
        rng = np.random.default_rng(config.seed + 7919)
        order = np.random.default_rng(config.seed + 1).permutation(len(encoded))
        expected = [sample_negatives(sampler, rng, encoded[i][c], 4)
                    for i in order for c in range(5)]
        assert drawn == expected
        assert any(len(n) < 4 for n in expected)  # some draws were dropped

    @pytest.mark.parametrize("chunk", [1, 7, 1024])
    def test_trained_windows_follow_each_epochs_permutation(self, monkeypatch, chunk):
        # one-token and empty sentences among the rest, so chunk edges fall
        # inside sentences and between them; each corpus token has its own id
        lengths = np.random.default_rng(chunk).integers(0, 9, 40).tolist() + [1, 0, 1, 1, 8]
        bounds = np.cumsum([0] + lengths).tolist()
        sentences = [list(range(a, b)) for a, b in zip(bounds, bounds[1:])]
        words = [str(i) for i in range(bounds[-1])]
        vocab = Vocabulary(words, dict.fromkeys(words, 1))
        monkeypatch.setattr(cbow, "BATCH", 1)
        monkeypatch.setattr(cbow, "CHUNK_WINDOWS", chunk)
        got, lrs = [], []
        real_train_chunk = cbow._train_chunk

        def recording_chunk(params, context, counts, rows, kept, lr, stack):
            got.extend((int(r[0]) - len(vocab) - 1, c[:n].tolist())
                       for r, c, n in zip(rows, context, counts))
            lrs.extend(lr.tolist())
            return real_train_chunk(params, context, counts, rows, kept, lr, stack)

        monkeypatch.setattr(cbow, "_train_chunk", recording_chunk)
        config = CbowConfig(dim=4, epochs=2, seed=9, window=3, negatives=2)
        train_cbow(as_encoded(sentences), vocab, config)
        nonempty = [s for s in sentences if s]
        order_rng = np.random.default_rng(config.seed + 1)
        expected, clock = [], []  # the windows with context, and their stream positions
        for epoch in range(config.epochs):
            position = epoch * len(words)
            for i in order_rng.permutation(len(nonempty)):
                for center, context in iterate_windows(nonempty[i], config.window):
                    if context:
                        expected.append((center, context))
                        clock.append(position)
                    position += 1
        assert got == expected
        total = len(words) * config.epochs
        assert lrs == cbow._window_schedule(config.lr, np.array(clock), total).tolist()

    @settings(deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 9), min_size=1, max_size=8),
        m=st.integers(1, 12),
        size=st.integers(1, 20),
    )
    @example(lengths=[1, 7, 2, 1, 3], m=2, size=3)
    def test_windows_equal_iterate_windows(self, lengths, m, size):
        # one-token sentences, and radii below, at and above the longest
        # sentence, cut into chunks of `size` positions
        sentences = [list(range(7 * s, 7 * s + n)) for s, n in enumerate(lengths)]
        corpus = as_encoded(sentences)
        tokens = corpus.tokens
        expected = [w for s in sentences for w in iterate_windows(s, m)]
        pad = -1
        got = []
        for a in range(0, len(tokens), size):
            where = np.arange(a, min(a + size, len(tokens)))
            context, counts = build_windows(tokens, corpus.offsets, where, m, pad)
            assert context.shape == (len(where), 2 * m)
            assert (context[np.arange(2 * m) >= counts[:, None]] == pad).all()
            got += [(int(tokens[p]), context[r, :counts[r]].tolist())
                    for r, p in enumerate(where)]
        assert got == expected


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
