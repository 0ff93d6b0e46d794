import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metlit import cbow
from metlit.cbow import (
    CbowConfig,
    CbowModel,
    ContextWindow,
    UnigramSampler,
    build_windows,
    context_mean,
    exact_gradients,
    init_model,
    loss_exact,
    negative_gradients,
    negative_loss,
    train_cbow,
)
from metlit.corpus import build_vocabulary, flatten

from helpers import (
    iterate_windows,
    max_relerr,
    mean_cosine,
    numeric_grad,
    reference_train_cbow,
    sample_negatives,
    sgd_step_exact,
    sgd_step_negative,
    two_topic_corpus,
)


def random_model(rng, vocab_size, dim):
    return CbowModel(
        input_vectors=rng.normal(0, 1, (vocab_size, dim)),
        output_vectors=rng.normal(0, 1, (vocab_size, dim)),
    )


class TestContextMean:
    def test_singleton(self):
        model = CbowModel(np.array([[1.0, 0.0]]), np.zeros((1, 2)))
        assert np.array_equal(context_mean(model, ContextWindow(0, [0])), [1.0, 0.0])

    def test_two_point_mean(self):
        model = CbowModel(np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros((2, 2)))
        mean = context_mean(model, ContextWindow(0, [0, 1]))
        assert np.array_equal(mean, [0.5, 0.5])

    def test_duplicate_id_equals_singleton(self):
        model = CbowModel(np.array([[1.0, 3.0], [9.0, 9.0]]), np.zeros((2, 2)))
        single = context_mean(model, ContextWindow(1, [0]))
        doubled = context_mean(model, ContextWindow(1, [0, 0]))
        assert np.array_equal(single, doubled)

    def test_empty_context_raises(self):
        model = CbowModel(np.zeros((1, 2)), np.zeros((1, 2)))
        with pytest.raises(ValueError):
            context_mean(model, ContextWindow(0, []))


class TestExactLoss:
    def test_zero_vectors_give_uniform_softmax(self):
        model = CbowModel(np.zeros((2, 3)), np.zeros((2, 3)))
        loss = loss_exact(model, ContextWindow(0, [1]))
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_single_word_vocabulary_is_lossless(self):
        model = CbowModel(np.ones((1, 2)), np.ones((1, 2)))
        assert loss_exact(model, ContextWindow(0, [0])) == pytest.approx(0.0, abs=1e-12)

    def test_handcrafted_logits(self):
        # context mean (1,); output rows give logits (2, 0, 0); center word 0
        model = CbowModel(
            input_vectors=np.array([[1.0], [0.0], [0.0]]),
            output_vectors=np.array([[2.0], [0.0], [0.0]]),
        )
        loss = loss_exact(model, ContextWindow(0, [0]))
        expected = -math.log(math.exp(2) / (math.exp(2) + 2))
        assert loss == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(math.log(math.exp(2) + 2) - 2, abs=1e-15)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(0)
        model = random_model(rng, 7, 4)
        # the softmax probability of each center is exp(-loss_exact)
        probs = np.array([math.exp(-loss_exact(model, ContextWindow(c, [1, 2, 5])))
                          for c in range(7)])
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert (probs > 0).all()

    def test_loss_is_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            model = random_model(rng, 5, 3)
            win = ContextWindow(int(rng.integers(5)), [int(rng.integers(5))])
            assert loss_exact(model, win) >= 0.0

    def test_large_logits_do_not_overflow(self):
        model = CbowModel(np.full((2, 1), 500.0), np.full((2, 1), 2.0))
        assert math.isfinite(loss_exact(model, ContextWindow(0, [1])))


class TestExactGradients:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            v, d = int(rng.integers(2, 8)), int(rng.integers(1, 5))
            model = random_model(rng, v, d)
            center = int(rng.integers(v))
            ctx = [int(c) for c in rng.integers(0, v, int(rng.integers(1, 5)))]
            win = ContextWindow(center, ctx)
            loss, grad_out, grad_h = exact_gradients(model, win)
            assert loss == pytest.approx(loss_exact(model, win), abs=1e-12)

            def f_out(x, model=model, win=win):
                return loss_exact(CbowModel(model.input_vectors, x), win)

            num_out = numeric_grad(f_out, model.output_vectors.copy())
            assert max_relerr(grad_out, num_out) < 1e-4

    def test_context_mean_gradient_via_chain_rule(self):
        rng = np.random.default_rng(3)
        model = random_model(rng, 6, 3)
        win = ContextWindow(2, [0, 4, 4])
        _, _, grad_h = exact_gradients(model, win)

        def f_in(x, model=model, win=win):
            return loss_exact(CbowModel(x, model.output_vectors), win)

        num_in = numeric_grad(f_in, model.input_vectors.copy())
        # each occurrence of a context id receives grad_h / |ctx|
        expected = np.zeros_like(model.input_vectors)
        np.add.at(expected, [0, 4, 4], grad_h / 3)
        assert max_relerr(expected, num_in) < 1e-4


class TestSgdSteps:
    def test_zero_lr_leaves_model_unchanged(self):
        rng = np.random.default_rng(4)
        model = random_model(rng, 5, 3)
        before_in, before_out = model.input_vectors.copy(), model.output_vectors.copy()
        win = ContextWindow(1, [0, 2])
        loss = sgd_step_exact(model, win, lr=0.0)
        assert loss == pytest.approx(loss_exact(model, win))
        assert np.array_equal(model.input_vectors, before_in)
        assert np.array_equal(model.output_vectors, before_out)

    def test_small_step_decreases_exact_loss(self):
        rng = np.random.default_rng(5)
        model = random_model(rng, 6, 4)
        win = ContextWindow(2, [1, 3, 5])
        before = loss_exact(model, win)
        sgd_step_exact(model, win, lr=0.05)
        assert loss_exact(model, win) < before

    def test_negative_step_decreases_surrogate_loss(self):
        rng = np.random.default_rng(6)
        model = random_model(rng, 6, 4)
        win = ContextWindow(2, [1, 3])
        negatives = [0, 5]
        before = negative_loss(model, win, negatives)
        loss, rows, grad_rows, grad_h = negative_gradients(model, win, negatives)
        assert loss == pytest.approx(before, abs=1e-12)
        np.add.at(model.output_vectors, rows, -0.05 * grad_rows)
        np.add.at(model.input_vectors, np.asarray(win.context), -0.05 * grad_h / 2)
        assert negative_loss(model, win, negatives) < before


class TestNegativeSampling:
    def test_loss_with_zero_scores_is_k_plus_one_log_two(self):
        model = CbowModel(np.zeros((4, 2)), np.zeros((4, 2)))
        loss = negative_loss(model, ContextWindow(0, [1]), negatives=[2, 3])
        assert loss == pytest.approx(3 * math.log(2), abs=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            v, d = int(rng.integers(3, 8)), int(rng.integers(1, 5))
            model = random_model(rng, v, d)
            center = int(rng.integers(v))
            negatives = [int(n) for n in rng.integers(0, v, 2) if n != center]
            ctx = [int(c) for c in rng.integers(0, v, 2)]
            win = ContextWindow(center, ctx)
            _, rows, grad_rows, grad_h = negative_gradients(model, win, negatives)

            def f_out(x, model=model, win=win, negatives=negatives):
                return negative_loss(CbowModel(model.input_vectors, x), win, negatives)

            num_out = numeric_grad(f_out, model.output_vectors.copy())
            dense = np.zeros_like(model.output_vectors)
            np.add.at(dense, rows, grad_rows)
            assert max_relerr(dense, num_out) < 1e-4

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
        model = CbowModel(np.zeros((2, 2)), np.zeros((2, 2)))
        sampler = UnigramSampler(np.array([1.0, 1.0]))
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError):
            sgd_step_negative(model, ContextWindow(0, [1]), 0.1, 0, sampler, rng)


class TestInit:
    def test_input_uniform_bounds_and_output_zero(self):
        model = init_model(vocab_size=50, dim=10, seed=1)
        bound = 0.5 / 10
        assert (np.abs(model.input_vectors) <= bound).all()
        assert model.input_vectors.any()
        assert not model.output_vectors.any()

    def test_same_seed_reproduces_init(self):
        a = init_model(20, 4, seed=7)
        b = init_model(20, 4, seed=7)
        assert np.array_equal(a.input_vectors, b.input_vectors)


class TestTrainCbow:
    def _corpus(self, seed=0, n_tokens=2000):
        rng = np.random.default_rng(seed)
        sentences, topic_a, topic_b = two_topic_corpus(rng, n_tokens=n_tokens)
        vocab = build_vocabulary(sentences)
        encoded = [vocab.encode(s) for s in sentences]
        return encoded, vocab, topic_a, topic_b

    def test_epochs_zero_returns_initialization(self):
        encoded, vocab, _, _ = self._corpus()
        config = CbowConfig(dim=8, epochs=0, seed=3)
        emb, losses = train_cbow(encoded, vocab, config)
        assert losses == []
        init = init_model(len(vocab), 8, seed=3)
        assert np.array_equal(emb.vectors, init.input_vectors)

    def test_empty_corpus_is_an_error(self):
        _, vocab, _, _ = self._corpus()
        with pytest.raises(ValueError):
            train_cbow([], vocab, CbowConfig(dim=4))
        with pytest.raises(ValueError):
            train_cbow([[]], vocab, CbowConfig(dim=4))

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


def batch_step(monkeypatch, model, windows, negatives, lrs):
    """Run the batched kernel on explicit windows and negatives, in place,
    as a chunk of one batch.

    `negatives` lists each window's kept negatives; the kernel sees them
    padded to a common width with the rest marked not kept.
    """
    v, d = model.input_vectors.shape
    params = np.vstack([
        model.input_vectors, np.zeros((1, d)), model.output_vectors, np.zeros((1, d))
    ])
    context = np.full((len(windows), max(len(w.context) for w in windows)), v)
    k = max(len(n) for n in negatives)
    negs = np.full((len(windows), k), v)
    for r, (win, neg) in enumerate(zip(windows, negatives)):
        context[r, :len(win.context)] = win.context
        negs[r, :len(neg)] = neg
    counts = np.array([len(w.context) for w in windows])
    centers = np.array([w.center for w in windows])
    rows = np.hstack([centers[:, None], negs]) + v + 1
    lrs, kept = np.asarray(lrs, dtype=float), negs != v
    monkeypatch.setattr(cbow, "BATCH", len(windows))
    loss = cbow._train_chunk(
        params, context, counts, rows, kept, lrs, np.empty((2 * len(windows), d))
    )
    model.input_vectors[:] = params[:v]
    model.output_vectors[:] = params[v + 1:-1]
    return loss


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
        emb, losses = train_cbow(encoded, vocab, config)
        ref, ref_losses = reference_train_cbow(encoded, vocab, config)
        assert np.abs(emb.vectors - ref.vectors).max() <= 1e-12
        assert np.allclose(losses, ref_losses, rtol=0, atol=1e-12)

    def test_disjoint_windows_equal_two_sequential_steps(self, monkeypatch):
        rng = np.random.default_rng(12)
        model = random_model(rng, 10, 4)
        sampler = UnigramSampler(np.ones(10))
        first, second = ContextWindow(0, [1, 2]), ContextWindow(5, [6])
        planned = [[3, 4], [7, 8]]
        expected = model.copy()
        draws = PlannedDraws(planned[0] + planned[1], 10)
        loss = sgd_step_negative(expected, first, 0.3, 2, sampler, draws)
        loss += sgd_step_negative(expected, second, 0.2, 2, sampler, draws)
        got = batch_step(monkeypatch, model, [first, second], planned, [0.3, 0.2])
        assert got == pytest.approx(loss, rel=1e-12)
        assert np.abs(model.input_vectors - expected.input_vectors).max() <= 1e-12
        assert np.abs(model.output_vectors - expected.output_vectors).max() <= 1e-12

    def test_shared_rows_accumulate_every_contribution(self, monkeypatch):
        rng = np.random.default_rng(13)
        model = random_model(rng, 8, 3)
        # word 2 is context of both windows; word 4 is a negative twice in
        # the first window and once in the second
        windows = [ContextWindow(0, [2, 3]), ContextWindow(1, [2, 5, 2])]
        negatives = [[4, 4, 6], [4]]
        lrs = [0.25, 0.5]
        expected_in = model.input_vectors.copy()
        expected_out = model.output_vectors.copy()
        for win, neg, lr in zip(windows, negatives, lrs):
            _, rows, grad_rows, grad_h = negative_gradients(model, win, neg)
            for row, grad in zip(rows, grad_rows):
                expected_out[row] -= lr * grad
            for c in win.context:
                expected_in[c] -= lr * grad_h / len(win.context)
        batch_step(monkeypatch, model, windows, negatives, lrs)
        assert np.abs(model.input_vectors - expected_in).max() <= 1e-12
        assert np.abs(model.output_vectors - expected_out).max() <= 1e-12

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
        train_cbow(encoded, vocab, config)
        rng = np.random.default_rng(config.seed + 7919)
        order = np.random.default_rng(config.seed + 1).permutation(len(encoded))
        expected = [sample_negatives(sampler, rng, encoded[i][c], 4)
                    for i in order for c in range(5)]
        assert drawn == expected
        assert any(len(n) < 4 for n in expected)  # some draws were dropped

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
        tokens, sentence_ids = flatten(sentences)
        expected = [w for s in sentences for w in iterate_windows(s, m)]
        pad = -1
        got = []
        for a in range(0, len(tokens), size):
            where = np.arange(a, min(a + size, len(tokens)))
            context, counts = build_windows(tokens, sentence_ids, where, m, pad)
            assert context.shape == (len(where), 2 * m)
            assert (context[np.arange(2 * m) >= counts[:, None]] == pad).all()
            got += [ContextWindow(int(tokens[p]), context[r, :counts[r]].tolist())
                    for r, p in enumerate(where)]
        assert got == expected
