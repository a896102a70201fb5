import numpy as np
import pytest

import hublab.trainer as tr
from hublab import (
    EmbeddingSet,
    MemoryBank,
    PairedData,
    RelevanceLabels,
    SimilarityMatrix,
    TrainConfig,
    centrality_weights,
    cosine_similarity_matrix,
    cross_centrality,
    grad_check,
    intra_centrality,
    push_batch,
    synth_generate,
    train,
)
from hublab.errors import DivergenceDetected, NonFiniteLoss, OutOfRange
from hublab.losses import LossBundle, loss_nbi, loss_wti, neighbor_targets
from hublab.transport import loss_opt
from hublab.trainer import Adam


def small_config(**kw):
    base = dict(batch_size=8, k_neighbors=3, bank_capacity=64, epochs=2,
                epsilon_sinkhorn=0.1, sinkhorn_max_iter=5000, seed=0)
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture
def tiny_data():
    return synth_generate(16, 6, 0.25, 0.5, 0.6, 7)


class TestSynthGenerate:
    def test_zero_noise_queries_equal_galleries(self):
        data = synth_generate(8, 4, 0.0, 1.0, 0.0, 1)
        np.testing.assert_array_equal(data.queries.data, data.galleries.data)
        s = cosine_similarity_matrix(data.queries, data.galleries)
        assert np.all(np.argmax(s.scores, axis=1) == np.arange(8))

    def test_unit_rows_and_determinism(self):
        a = synth_generate(20, 8, 0.1, 0.5, 0.5, 3)
        b = synth_generate(20, 8, 0.1, 0.5, 0.5, 3)
        np.testing.assert_array_equal(a.queries.data, b.queries.data)
        np.testing.assert_array_equal(a.galleries.data, b.galleries.data)
        np.testing.assert_array_equal(a.planted, b.planted)
        np.testing.assert_allclose(
            np.linalg.norm(a.galleries.data, axis=1), 1.0, atol=1e-12)

    def test_contraction_one_is_noop_planting(self):
        import hublab

        skews = []
        for seed in (0, 1):
            data = synth_generate(400, 32, 0.0, 1.0, 0.8, seed)
            s = cosine_similarity_matrix(data.queries, data.galleries)
            skews.append(hublab.skewness(hublab.k_occurrence(s, 10)))
        noop = synth_generate(400, 32, 0.1, 1.0, 0.8, 0)
        s = cosine_similarity_matrix(noop.queries, noop.galleries)
        got = hublab.skewness(hublab.k_occurrence(s, 10))
        spread = max(abs(skews[0] - skews[1]), 0.2)
        assert abs(got - skews[0]) <= 3 * spread

    def test_planted_have_higher_cross_centrality(self):
        data = synth_generate(500, 32, 0.1, 0.5, 0.8, 5)
        bank = MemoryBank(500, 32)
        push_batch(bank, data.queries)
        c = cross_centrality(bank, data.galleries)
        assert c[data.planted].mean() > c[~data.planted].mean()

    def test_invalid_fractions(self):
        with pytest.raises(OutOfRange, match=r"hub_fraction must lie in \[0, 1\), got 1.0"):
            synth_generate(10, 4, 1.0, 0.5, 0.1, 0)
        with pytest.raises(OutOfRange, match=r"contraction must lie in \(0, 1\], got 0.0"):
            synth_generate(10, 4, 0.1, 0.0, 0.1, 0)
        with pytest.raises(OutOfRange, match=r"contraction must lie in \(0, 1\], got 1.5"):
            synth_generate(10, 4, 0.1, 1.5, 0.1, 0)


class TestGradCheck:
    def test_all_losses_table_model(self, tiny_data):
        errs = grad_check(small_config(), tiny_data)
        for name, err in errs.items():
            assert err < 1e-5, (name, err)

    def test_all_losses_projection_model(self, tiny_data):
        errs = grad_check(small_config(model="linear-projection"), tiny_data)
        for name, err in errs.items():
            assert err < 1e-5, (name, err)

    def test_bank_neighbor_pool(self, tiny_data):
        errs = grad_check(small_config(neighbor_pool="bank"), tiny_data)
        for name, err in errs.items():
            assert err < 1e-5, (name, err)

    def test_each_loss_toggled_alone(self, tiny_data):
        for flag in ("use_wti", "use_nbi", "use_opt"):
            kw = {f: False for f in ("use_wti", "use_nbi", "use_opt")}
            kw[flag] = True
            errs = grad_check(small_config(**kw), tiny_data)
            assert errs["total"] < 1e-5, flag

    def test_paper_mode_isolates_target_mass_deviation(self, tiny_data):
        exact = grad_check(small_config(), tiny_data)
        paper = grad_check(small_config(grad_mode="paper"), tiny_data)
        assert exact["nbi"] < 1e-5
        # the missing P * (sum H - 1) term dominates the reported error
        assert paper["nbi"] > 1e-3
        assert paper["wti"] < 1e-5 and paper["opt"] < 1e-5

    def test_step_out_of_range(self, tiny_data):
        with pytest.raises(ValueError):
            grad_check(small_config(), tiny_data, h=1e-2)

    def test_sees_a_dropped_bank_pool_gradient(self, tiny_data, monkeypatch):
        # the NBI grid's columns past the batch are the bank pool's
        real = tr.loss_nbi

        def no_pool_grad(s, h, ns, mode):
            bundle = real(s, h, ns, mode)
            grad = bundle.grad.copy()
            grad[:, grad.shape[0]:] = 0.0
            return LossBundle(bundle.value, grad)

        monkeypatch.setattr(tr, "loss_nbi", no_pool_grad)
        assert grad_check(small_config(neighbor_pool="bank"), tiny_data)["nbi"] > 1e-3

    def test_sees_a_dropped_batch_row(self, tiny_data, monkeypatch):
        real = tr._TableModel._param_grads

        def drop_first_row(self, idx, d_raw):
            grads = real(self, idx, d_raw)
            grads[0][idx[0]] = 0.0
            return grads

        monkeypatch.setattr(tr._TableModel, "_param_grads", drop_first_row)
        assert grad_check(small_config(), tiny_data)["total"] > 1e-3


class TestStationaryPoint:
    def test_fixed_point_errors_below_1e8(self, tiny_data):
        # with the transport target equal to the current softmax and the
        # neighbor targets proportional to the restricted softmax, the
        # gradient vanishes; finite differences must agree at noise level
        import hublab.trainer as tr
        from hublab import SimilarityMatrix
        from hublab.losses import loss_nbi, NeighborSet
        from hublab.transport import loss_opt
        from conftest import fd_grad, max_rel_error

        rng = np.random.default_rng(0)
        scores = rng.normal(size=(6, 6))
        s = SimilarityMatrix(scores)
        from hublab.core import row_softmax
        target = row_softmax(scores)
        out = loss_opt(s, target)
        fd = fd_grad(lambda x: loss_opt(SimilarityMatrix(x), target).value, scores)
        assert max_rel_error(out.grad, fd) < 1e-8

        flat = SimilarityMatrix(np.full((1, 2), 0.3))
        ns = NeighborSet([[1]], ground_truth=[0])
        h = np.array([[1.0, 1.0]])
        bundle = loss_nbi(flat, h, ns)
        fd = fd_grad(lambda x: loss_nbi(SimilarityMatrix(x), h, ns).value,
                     flat.scores)
        assert max_rel_error(bundle.grad, fd) < 1e-8


class TestTraining:
    def test_zero_learning_rate_freezes_reports(self, tiny_data):
        cfg = small_config(learning_rate=0.0)
        result = train(cfg, tiny_data)
        assert result.report_before == result.report_after
        np.testing.assert_allclose(result.queries.data,
                                   tiny_data.queries.data, atol=1e-15)

    def test_bitwise_determinism(self, tiny_data):
        a = train(small_config(), tiny_data)
        b = train(small_config(), tiny_data)
        np.testing.assert_array_equal(a.queries.data, b.queries.data)
        np.testing.assert_array_equal(a.galleries.data, b.galleries.data)
        assert a.loss_curve == b.loss_curve
        assert a.report_after == b.report_after

    def test_wti_only_separable_toy_reaches_r1(self):
        from hublab import retrieval_eval

        data = synth_generate(8, 16, 0.0, 1.0, 0.4, 2)
        cfg = TrainConfig(batch_size=8, epochs=25, learning_rate=3e-2,
                          k_neighbors=2, bank_capacity=32, seed=0,
                          use_nbi=False, use_opt=False, k=5)
        result = train(cfg, data)
        s = cosine_similarity_matrix(result.queries, result.galleries)
        ev = retrieval_eval(s, RelevanceLabels.diagonal(data.n))
        assert ev["r_at"]["1"] == 100.0

    def test_unit_norm_preserved(self, tiny_data):
        result = train(small_config(), tiny_data)
        np.testing.assert_allclose(
            np.linalg.norm(result.queries.data, axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(
            np.linalg.norm(result.galleries.data, axis=1), 1.0, atol=1e-9)
        s = cosine_similarity_matrix(result.queries, result.galleries)
        assert s.scores.min() >= -1 - 1e-9 and s.scores.max() <= 1 + 1e-9

    def test_loss_curve_columns(self, tiny_data):
        result = train(small_config(), tiny_data)
        from hublab.trainer import CURVE_COLUMNS
        assert set(result.loss_curve[0]) == set(CURVE_COLUMNS)
        steps = [row["step"] for row in result.loss_curve]
        assert steps == list(range(len(steps)))

    def test_divergence_detected(self, tiny_data, monkeypatch):
        # unit normalization keeps cosines bounded, so a non-finite loss only
        # appears through numerical corruption; poison the weights of one part
        # and LossBundle's guard ends the run, which names the step
        import hublab.trainer as tr

        real = tr.loss_wti
        monkeypatch.setattr(tr, "loss_wti", lambda s, w: real(s, np.full_like(w, np.nan)))
        with pytest.raises(NonFiniteLoss, match=r"not finite at step 0$"):
            train(small_config(epochs=1), tiny_data)

    @pytest.mark.parametrize("model", ["embedding-table", "linear-projection"])
    def test_overflowing_step_names_the_step(self, tiny_data, model):
        # the projection's norms overflow to inf, which would zero its rows
        with pytest.raises(DivergenceDetected, match=r"at step [01]$"):
            train(small_config(learning_rate=1e300, model=model), tiny_data)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_loss_names_the_step(self, tiny_data):
        # exp(C / kappa) overflows once the bank holds rows; library callers
        # may still catch the error as a ValueError
        with pytest.raises(NonFiniteLoss, match=r"not finite at step [1-9]\d*$") as info:
            train(small_config(kappa=1e-300), tiny_data)
        assert isinstance(info.value, DivergenceDetected)
        assert isinstance(info.value, ValueError)

    def test_overflowing_adam_moment_names_the_step(self, tiny_data):
        # gradients near 1e299 overflow g * g in Adam's second moment, whose
        # inf would silently turn every later update of those entries into 0
        with pytest.raises(DivergenceDetected, match=r"at step 0$") as info:
            train(small_config(temperature=1e-300), tiny_data)
        assert type(info.value) is DivergenceDetected

    @pytest.mark.parametrize("run", [train, grad_check])
    def test_batch_over_bank_capacity_fails_before_any_work(self, tiny_data, monkeypatch,
                                                            run):
        def spy(*args):
            raise AssertionError("work began before the capacity check")

        monkeypatch.setattr(tr, "hubness_report", spy)
        monkeypatch.setattr(tr, "push_batch", spy)
        with pytest.raises(OutOfRange, match=r"^bank_capacity 4 is smaller than a batch "
                                             r"of 8 rows \(batch_size 8\)$"):
            run(small_config(bank_capacity=4), tiny_data)

    @pytest.mark.parametrize("run", [train, grad_check])
    def test_one_pair_fails_before_any_work(self, monkeypatch, run):
        def spy(*args):
            raise AssertionError("neighbors were picked before the pair-count check")

        monkeypatch.setattr(tr, "select_neighbors", spy)
        with pytest.raises(OutOfRange, match=r"^train needs at least 2 pairs, got 1$"):
            run(small_config(), synth_generate(1, 6, 0.0, 0.5, 0.6, 7))

    def test_batch_size_over_capacity_fits_when_the_data_does(self, tiny_data):
        # 16 pairs make one batch of 16, which a bank of 16 holds
        result = train(small_config(batch_size=32, bank_capacity=16, epochs=1), tiny_data)
        assert len(result.loss_curve) == 1

    def test_projection_model_trains(self, tiny_data):
        result = train(small_config(model="linear-projection", epochs=1),
                       tiny_data)
        assert np.isfinite([row["total"] for row in result.loss_curve]).all()

    def test_bank_pool_trains(self, tiny_data):
        result = train(small_config(neighbor_pool="bank", epochs=1), tiny_data)
        assert np.isfinite([row["total"] for row in result.loss_curve]).all()


def shared_direction_rows(rng, n, d):
    """Unit rows around one shared direction, so centralities sit near 0.5."""
    x = rng.normal(size=(n, d)) + np.ones(d)
    return x / np.linalg.norm(x, axis=1, keepdims=True)


class TestQueueMeanCentrality:
    """The trainer reads centrality as the cosine with each queue's mean;
    the bank's row-blocked gram is the reference."""

    @pytest.fixture
    def full_bank(self, rng):
        # 9 pushes of 128 rows into 1024 slots: both queues fill and evict
        bank = MemoryBank(1024, 64)
        for _ in range(9):
            for modality in ("query", "gallery"):
                push_batch(bank, EmbeddingSet(shared_direction_rows(rng, 128, 64), modality))
        return bank

    @pytest.mark.parametrize("anchor, cand", [("query", "gallery"), ("gallery", "query")])
    def test_batch_and_full_pool_match_the_gram(self, full_bank, rng, anchor, cand):
        mean = tr._queue_means(full_bank)[anchor]
        batch = shared_direction_rows(rng, 128, 64)
        pool = full_bank.vectors(cand)
        assert pool.shape == (1024, 64)
        intra = intra_centrality(full_bank, EmbeddingSet(batch, anchor))
        assert intra.min() > 0.3
        np.testing.assert_allclose(tr._queue_centrality(batch, mean), intra,
                                   rtol=0, atol=1e-12)
        # candidates, from the batch and from the whole pool, against the anchors' queue
        for rows in (batch, pool):
            cross = cross_centrality(full_bank, EmbeddingSet(rows, cand))
            np.testing.assert_allclose(tr._queue_centrality(rows, mean), cross,
                                       rtol=0, atol=1e-12)

    def test_step_targets_match_the_gram(self, full_bank, rng):
        config = TrainConfig(k_neighbors=5, use_opt=False, neighbor_pool="bank",
                             bank_capacity=1024)
        eq = shared_direction_rows(rng, 128, 64)
        eg = shared_direction_rows(rng, 128, 64)
        targets, _ = tr.compute_targets(config, full_bank, eq, eg)
        for name, anchors, anchor, cands, cand in (("q2g", eq, "query", eg, "gallery"),
                                                   ("g2q", eg, "gallery", eq, "query")):
            direction = targets.directions[name]
            c = intra_centrality(full_bank, EmbeddingSet(anchors, anchor))
            np.testing.assert_allclose(direction.weights,
                                       centrality_weights(c, config.kappa), rtol=1e-12)
            rows = np.concatenate([cands, full_bank.vectors(cand)])
            cross = cross_centrality(full_bank, EmbeddingSet(rows, cand))
            ns, h = direction.nbi
            np.testing.assert_allclose(
                h, neighbor_targets(SimilarityMatrix(anchors @ rows.T), ns, cross),
                rtol=1e-12)

    def test_empty_queue_gives_unit_weights_and_no_shift(self, rng):
        # only the query queue holds rows, so gallery anchors (g2q) see an
        # empty queue: unit weights, and query candidates keep their scores
        bank = MemoryBank(64, 16)
        push_batch(bank, EmbeddingSet(shared_direction_rows(rng, 32, 16), "query"))
        config = TrainConfig(k_neighbors=3, use_opt=False, neighbor_pool="bank",
                             batch_size=8)
        eq = shared_direction_rows(rng, 8, 16)
        eg = shared_direction_rows(rng, 8, 16)
        targets, _ = tr.compute_targets(config, bank, eq, eg)
        g2q = targets.directions["g2q"]
        np.testing.assert_array_equal(g2q.weights, np.ones(8))
        s = SimilarityMatrix(eg @ np.concatenate([eq, bank.vectors("query")]).T)
        ns, h = g2q.nbi
        np.testing.assert_allclose(h, neighbor_targets(s, ns, np.zeros(s.m)), rtol=1e-12)
        assert g2q.pool.shape == (32, 16)
        assert targets.directions["q2g"].pool is None


class TestStepGrids:
    def test_bank_pool_builds_one_candidate_grid_per_direction_per_step(
            self, tiny_data, monkeypatch):
        widths = []
        real = tr._candidate_grid

        def counted(*args):
            grid = real(*args)
            widths.append(grid.m)
            return grid

        monkeypatch.setattr(tr, "_candidate_grid", counted)
        result = train(small_config(neighbor_pool="bank"), tiny_data)
        # 16 pairs in batches of 8 for 2 epochs: 4 steps, and before step k
        # each queue holds 8k rows, which widen both directions' grids
        assert len(result.loss_curve) == 4
        assert widths == [8 + 8 * (i // 2) for i in range(8)]

    def test_shared_grids_give_the_loss_of_fresh_ones(self, tiny_data):
        config = small_config(neighbor_pool="bank")
        bank = MemoryBank(config.bank_capacity, 6)
        rows = tiny_data.queries.data[:8], tiny_data.galleries.data[8:]
        for data, modality in zip(rows, ("query", "gallery")):
            push_batch(bank, EmbeddingSet(data, modality))
        eq, eg = tiny_data.queries.data[8:], tiny_data.galleries.data[:8]
        targets, grids = tr.compute_targets(config, bank, eq, eg)
        assert sorted(grids.candidates) == ["g2q", "q2g"]
        shared = tr.batch_loss(config, eq, eg, targets, grids)
        assert grids.candidates == {}  # each grid dropped once its loss was taken
        fresh = tr.batch_loss(config, eq, eg, targets)
        assert shared[:2] == fresh[:2]
        for a, b in zip(shared[2:], fresh[2:]):
            np.testing.assert_array_equal(a, b)


class TestEmbeddingGradients:
    def test_bank_pool_step_is_grid_product_plus_pool_gradient(self, tiny_data):
        # dL/d(eq) and dL/d(eg) equal dL/dS through S = eq eg^T plus the bank
        # pool's NBI gradient, bit for bit, each formed as an explicit sum
        config = small_config(neighbor_pool="bank")
        bank = MemoryBank(config.bank_capacity, 6)
        rows = tiny_data.queries.data[:8], tiny_data.galleries.data[8:]
        for data, modality in zip(rows, ("query", "gallery")):
            push_batch(bank, EmbeddingSet(data, modality))
        eq, eg = tiny_data.queries.data[8:], tiny_data.galleries.data[:8]
        targets, _ = tr.compute_targets(config, bank, eq, eg)
        value, _, d_eq, d_eg = tr.batch_loss(config, eq, eg, targets)

        b, scores = 8, eq @ eg.T
        total, grad, extra = 0.0, None, {}
        for name, anchors, dir_scores in (("q2g", eq, scores), ("g2q", eg, scores.T)):
            t = targets.directions[name]
            s = SimilarityMatrix(dir_scores, config.temperature)
            cand = SimilarityMatrix(np.concatenate([dir_scores, anchors @ t.pool.T], axis=1),
                                    config.temperature)
            nbi = loss_nbi(cand, t.nbi[1], t.nbi[0], config.grad_mode)
            extra[name] = 0.5 * (nbi.grad[:, b:] @ t.pool)
            for part in (loss_wti(s, t.weights), LossBundle(nbi.value, nbi.grad[:, :b]),
                         loss_opt(s, t.opt)):
                total += part.value
                g = part.grad if name == "q2g" else part.grad.T
                grad = g.copy() if grad is None else grad + g
        grad_s = 0.5 * grad
        assert value == 0.5 * total
        np.testing.assert_array_equal(d_eq, grad_s @ eg + extra["q2g"])
        np.testing.assert_array_equal(d_eg, grad_s.T @ eq + extra["g2q"])


class TestAdam:
    def test_zero_lr_keeps_params_bitwise(self):
        p = np.random.default_rng(0).normal(size=(3, 3))
        keep = p.copy()
        opt = Adam([p], lr=0.0)
        opt.step([p], [np.ones_like(p)])
        np.testing.assert_array_equal(p, keep)

    def test_descends_quadratic(self):
        p = np.array([[5.0]])
        opt = Adam([p], lr=0.1)
        for _ in range(500):
            opt.step([p], [2.0 * p])
        assert abs(p[0, 0]) < 1e-3
