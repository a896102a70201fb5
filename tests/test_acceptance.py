"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
appear; every tolerance is pinned here, not configured elsewhere.
"""

import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

import hublab
from hublab import (
    EmbeddingSet,
    MemoryBank,
    RelevanceLabels,
    SimilarityMatrix,
    TokenSet,
    TrainConfig,
    cosine_similarity_matrix,
    dpc_knn_merge,
    infer_simi_cent,
    k_occurrence,
    loss_kl,
    loss_nbi,
    loss_opt,
    loss_wti,
    neighbor_targets,
    push_batch,
    retrieval_eval,
    select_neighbors,
    sinkhorn_plan,
    synth_generate,
    train,
    wti_similarity,
)
from hublab.cli import main as cli_main
from hublab.core import row_softmax
from hublab.losses import GRAD_MODE_PAPER
from hublab.tokens import cluster_assignments

from conftest import fd_grad, max_rel_error, random_unit_rows


def report(number: int, ok: bool, detail: str) -> None:
    state = "PASS" if ok else "FAIL"
    print(f"[{state}] criterion {number}: {detail}")


ABLATION_BUDGET = dict(learning_rate=1e-2, epochs=10, seed=0)


@pytest.fixture(scope="module")
def planted_dataset():
    return synth_generate(1000, 64, 0.1, 0.5, 1.0, 0)


@pytest.fixture(scope="module")
def trained_pair(planted_dataset):
    """Full objective and weighting-only runs at the same step budget."""
    full = train(TrainConfig(**ABLATION_BUDGET), planted_dataset)
    wti_only = train(TrainConfig(use_nbi=False, use_opt=False,
                                 **ABLATION_BUDGET), planted_dataset)
    return full, wti_only


class TestCriterion1GradientFidelity:
    def test_analytic_gradients_match_finite_differences(self):
        started = time.monotonic()
        rng = np.random.default_rng(42)
        scores = rng.normal(size=(8, 8))
        worst = {}

        w = rng.uniform(0.5, 2.0, size=8)
        out = loss_wti(SimilarityMatrix(scores), w)
        fd = fd_grad(lambda x: loss_wti(SimilarityMatrix(x), w).value, scores)
        worst["wti"] = max_rel_error(out.grad, fd)

        s = SimilarityMatrix(scores)
        ns = select_neighbors(s, 5)  # every row, ground truth on the diagonal
        h = neighbor_targets(s, ns, np.zeros(s.m))
        out = loss_nbi(s, h, ns, "exact")
        fd = fd_grad(lambda x: loss_nbi(SimilarityMatrix(x), h, ns, "exact").value,
                     scores)
        worst["nbi"] = max_rel_error(out.grad, fd)

        raw = rng.uniform(0.1, 1.0, size=(8, 8))
        target = raw / raw.sum(axis=1, keepdims=True)
        out = loss_opt(SimilarityMatrix(scores), target)
        fd = fd_grad(lambda x: loss_opt(SimilarityMatrix(x), target).value, scores)
        worst["opt"] = max_rel_error(out.grad, fd)

        high = rng.normal(size=(8, 8))
        out = loss_kl(SimilarityMatrix(scores), SimilarityMatrix(high))
        fd = fd_grad(
            lambda x: loss_kl(SimilarityMatrix(x), SimilarityMatrix(high)).value,
            scores)
        worst["kl_low"] = max_rel_error(out.grad, fd)
        fd = fd_grad(
            lambda x: loss_kl(SimilarityMatrix(scores), SimilarityMatrix(x)).value,
            high)
        worst["kl_high"] = max_rel_error(out.grad_high, fd)

        elapsed = time.monotonic() - started
        ok = max(worst.values()) < 1e-5 and elapsed < 5.0
        report(1, ok, "gradient fidelity max rel err "
                      f"{max(worst.values()):.2e} (< 1e-5), {elapsed:.2f}s (< 5s)")
        assert max(worst.values()) < 1e-5, worst
        assert elapsed < 5.0


class TestCriterion2PaperGradient:
    def test_paper_mode_emits_p_minus_h(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for trial in range(20):
            m = int(rng.integers(3, 30))
            scores = rng.normal(size=(4, m))
            s = SimilarityMatrix(scores)
            k = int(rng.integers(1, m - 1))
            ns = select_neighbors(s, k, ground_truth=rng.integers(0, m, size=4))
            h = neighbor_targets(s, ns, np.zeros(s.m))
            out = loss_nbi(s, h, ns, GRAD_MODE_PAPER)
            # the gradient of the mean over 4 anchors is each row's (P - H) / 4
            plus = ns.plus_indices
            logits = np.take_along_axis(scores, plus, axis=1)
            p = np.exp(logits - logits.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            emitted = 4 * np.take_along_axis(out.grad, plus, axis=1)
            worst = max(worst, np.abs(emitted - (p - h)).max())
            outside = np.ones_like(scores, dtype=bool)
            np.put_along_axis(outside, plus, False, axis=1)
            worst = max(worst, np.abs(out.grad[outside]).max(initial=0.0))
        ok = worst < 1e-12
        report(2, ok, f"paper-mode gradient equals P - H to {worst:.2e} (< 1e-12)")
        assert ok


class TestCriterion3Sinkhorn:
    def test_marginals_and_uniform_case(self):
        worst_row = worst_col = 0.0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            s = SimilarityMatrix(rng.uniform(-1, 1, size=(6, 8)))
            plan = sinkhorn_plan(s, 0.05, tol=1e-10, max_iter=500000)
            worst_row = max(worst_row, np.abs(plan.q.sum(axis=1) - 1 / 6).max())
            worst_col = max(worst_col, np.abs(plan.q.sum(axis=0) - 1 / 8).max())
        uniform = sinkhorn_plan(SimilarityMatrix(np.zeros((6, 8))), 0.05)
        uniform_dev = np.abs(uniform.q - 1.0 / 48.0).max()
        ok = worst_row < 1e-8 and worst_col < 1e-8 and uniform_dev < 1e-12
        report(3, ok, f"sinkhorn marginals row {worst_row:.2e} col {worst_col:.2e}"
                      f" (< 1e-8), uniform-S deviation {uniform_dev:.2e}")
        assert ok


class TestCriterion4UniformityFixedPoint:
    def test_descent_reaches_uniform_rows(self):
        started = time.monotonic()
        rng = np.random.default_rng(11)
        n, m = 16, 8
        scores = rng.normal(size=(n, m))
        target = np.full((n, m), 1.0 / m)
        steps_taken = 2000
        for step in range(2000):
            bundle = loss_opt(SimilarityMatrix(scores), target)
            scores = scores - (2.0 * n) * bundle.grad
            if np.abs(row_softmax(scores) - 1.0 / m).max() < 1e-3:
                steps_taken = step + 1
                break
        deviation = np.abs(row_softmax(scores) - 1.0 / m).max()
        elapsed = time.monotonic() - started
        ok = deviation < 1e-3 and steps_taken <= 2000 and elapsed < 30.0
        report(4, ok, f"uniformity fixed point reached in {steps_taken} steps "
                      f"(<= 2000), deviation {deviation:.2e} (< 1e-3), "
                      f"{elapsed:.2f}s (< 30s)")
        assert ok


def brute_force_counts(scores, k):
    m = scores.shape[1]
    counts = np.zeros(m, dtype=np.int64)
    for row in scores:
        pairs = sorted((-v, j) for j, v in enumerate(row))
        for _, j in pairs[:k]:
            counts[j] += 1
    return counts


class TestCriterion5MetricOracles:
    def test_metrics_match_independent_recomputation(self):
        rng = np.random.default_rng(123)
        q = random_unit_rows(rng, 200, 48)
        g = random_unit_rows(rng, 200, 48)
        s = SimilarityMatrix(q @ g.T)
        k = 15
        occ = k_occurrence(s, k)
        counts = brute_force_counts(s.scores, k)
        ints_exact = bool(np.array_equal(occ.counts, counts))

        mu = counts.mean()
        sigma = np.sqrt(((counts - mu) ** 2).mean())
        oracle = {
            "skew": float(scipy.stats.skew(counts)),
            "trunc": float(scipy.stats.skew(counts[counts > 0])),
            "atkinson": float(1 - np.mean(np.where(counts > 0, counts, 0.0)
                                          ** 0.5) ** 2 / mu),
            "robin": float(np.abs(counts - mu).sum() / (2 * counts.sum())),
            "anti": float((counts == 0).mean()),
            "hub": float(counts[counts > 2 * k].sum() / (200 * k)),
        }
        got = hublab.hubness_report(s, k, hub_size_factor=2.0,
                                    atkinson_epsilon=0.5)
        worst = max(abs(got[key] - oracle[key]) for key in oracle)

        # uniform construction: circulant neighborhoods, every count equals k
        n = 200
        offsets = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
        circulant = SimilarityMatrix(1.0 - 0.001 * offsets)
        import warnings as _warnings
        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore")
            uniform = hublab.hubness_report(circulant, 5)
        zeros_ok = (uniform["skew"] == 0.0 and uniform["robin"] == 0.0
                    and uniform["atkinson"] == pytest.approx(0.0, abs=1e-12)
                    and uniform["anti"] == 0.0 and uniform["hub"] == 0.0)

        ok = ints_exact and worst < 1e-12 and zeros_ok
        report(5, ok, f"metric oracles: counts exact={ints_exact}, reals to "
                      f"{worst:.2e} (< 1e-12), uniform construction zeros={zeros_ok}")
        assert ok


@pytest.mark.slow
class TestCriterion6AblationTrend:
    def test_full_objective_beats_weighting_only(self, planted_dataset,
                                                 trained_pair):
        started = time.monotonic()
        full, wti_only = trained_pair

        def stats(result):
            s = cosine_similarity_matrix(result.queries, result.galleries)
            ev = retrieval_eval(s, RelevanceLabels.diagonal(planted_dataset.n))
            return (result.report_after["hub"],
                    result.report_after["skew"], ev["r_at"]["1"])

        hub_full, skew_full, r1_full = stats(full)
        hub_wti, skew_wti, r1_wti = stats(wti_only)
        elapsed = time.monotonic() - started
        ok = hub_full < hub_wti and skew_full < skew_wti and r1_full >= r1_wti
        report(6, ok, "ablation trend: hub "
                      f"{hub_wti:.3f} -> {hub_full:.3f}, skew {skew_wti:.3f} -> "
                      f"{skew_full:.3f}, R@1 {r1_wti:.1f} -> {r1_full:.1f} "
                      f"(stat time {elapsed:.1f}s; full criterion budget < 2 min)")
        assert hub_full < hub_wti
        assert skew_full < skew_wti
        assert r1_full >= r1_wti

    def test_budget_under_two_minutes(self, planted_dataset):
        started = time.monotonic()
        train(TrainConfig(epochs=2, learning_rate=1e-2, seed=0), planted_dataset)
        per_epoch = (time.monotonic() - started) / 2
        projected = per_epoch * 10 * 2
        ok = projected < 120.0
        report(6, ok, f"projected two-run budget {projected:.0f}s (< 120s)")
        assert ok


@pytest.mark.slow  # shares the trained_pair fixture with criterion 6
class TestCriterion7SimiCent:
    def test_decentrality_reranking_on_trained_baseline(self, planted_dataset,
                                                        trained_pair):
        _, baseline = trained_pair
        s = cosine_similarity_matrix(baseline.queries, baseline.galleries)
        bank = MemoryBank(baseline.galleries.n, baseline.galleries.dim)
        push_batch(bank, baseline.galleries)
        adjusted = infer_simi_cent(s, baseline.galleries, bank)

        hub_raw = hublab.hubness_report(s, 15)["hub"]
        hub_adj = hublab.hubness_report(adjusted, 15)["hub"]
        labels = RelevanceLabels.diagonal(planted_dataset.n)
        rsum_raw = retrieval_eval(s, labels)["rsum"]
        rsum_adj = retrieval_eval(adjusted, labels)["rsum"]
        ok = hub_adj < hub_raw and abs(rsum_adj - rsum_raw) < 2.0
        report(7, ok, f"simi-cent: hub {hub_raw:.4f} -> {hub_adj:.4f} (reduced), "
                      f"Rsum {rsum_raw:.2f} -> {rsum_adj:.2f} "
                      f"(|delta| {abs(rsum_adj - rsum_raw):.2f} < 2)")
        assert hub_adj < hub_raw
        assert abs(rsum_adj - rsum_raw) < 2.0


@pytest.mark.slow  # reads the full run of the trained_pair fixture
class TestSinkhornNewtonGates:
    """The plain Sinkhorn loop capped 42 of this config's 80 solves at
    epsilon 0.05, within 2.5x of the residual that aborts training, and
    aborted training outright at epsilon 0.03 and 0.01."""

    @staticmethod
    def _capped(result, config):
        return sum(row["sinkhorn_iterations"] >= config.sinkhorn_max_iter
                   or row["sinkhorn_residual"] > config.sinkhorn_tol
                   for row in result.loss_curve)

    def test_no_solve_caps_at_default_epsilon(self, trained_pair):
        full, _ = trained_pair
        capped = self._capped(full, TrainConfig(**ABLATION_BUDGET))
        worst = max(row["sinkhorn_residual"] for row in full.loss_curve)
        report(3, capped == 0, f"sinkhorn at epsilon 0.05: {capped} of "
                               f"{len(full.loss_curve)} solves capped (0), "
                               f"largest residual {worst:.2e}")
        assert len(full.loss_curve) == 80 and capped == 0

    @pytest.mark.parametrize("epsilon", [0.03, 0.02, 0.01])
    def test_sharper_epsilon_trains_three_epochs(self, planted_dataset, epsilon):
        config = TrainConfig(**{**ABLATION_BUDGET, "epochs": 3},
                             epsilon_sinkhorn=epsilon)
        result = train(config, planted_dataset)
        capped = self._capped(result, config)
        report(3, capped == 0, f"sinkhorn at epsilon {epsilon}: 3 epochs, "
                               f"{capped} of {len(result.loss_curve)} solves capped (0)")
        assert len(result.loss_curve) == 24 and capped == 0


class TestCriterion8Tokens:
    def test_wti_and_merging_sanity(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(1, 12))
        b = rng.normal(size=(1, 12))
        cosine = float(a[0] @ b[0]) / (np.linalg.norm(a) * np.linalg.norm(b))
        single = abs(wti_similarity(TokenSet(a), TokenSet(b)) - cosine)

        tokens = TokenSet(rng.normal(size=(7, 4)),
                          weights=rng.dirichlet(np.ones(7)))
        identity = dpc_knn_merge(tokens, 7)
        identity_ok = (np.array_equal(identity.tokens, tokens.tokens)
                       and np.array_equal(identity.weights, tokens.weights))

        merged = dpc_knn_merge(tokens, 1)
        mean_dev = np.abs(merged.tokens[0] - tokens.weights @ tokens.tokens).max()

        blob_a = rng.normal(size=(6, 2)) * 0.2 + np.array([4.0, 0.0])
        blob_b = rng.normal(size=(5, 2)) * 0.2 + np.array([-4.0, 0.0])
        blobs = TokenSet(np.vstack([blob_a, blob_b]))
        assignment = cluster_assignments(blobs, 2, k_density=3)
        member = np.array([0] * 6 + [1] * 5)
        blobs_ok = bool(np.array_equal(
            assignment[:, None] == assignment[None, :],
            member[:, None] == member[None, :]))

        ok = (single < 1e-12 and identity_ok and mean_dev < 1e-12 and blobs_ok)
        report(8, ok, f"tokens: single-token wti dev {single:.2e} (< 1e-12), "
                      f"c=N identity={identity_ok}, c=1 mean dev {mean_dev:.2e}, "
                      f"two-blob recovery={blobs_ok}")
        assert ok


class TestCriterion9Determinism:
    def _tree(self, directory: Path) -> dict:
        return {str(p.relative_to(directory)):
                hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(directory.rglob("*")) if p.is_file()}

    def test_repeat_commands_byte_identical(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "n_pairs": 150, "dim": 16, "noise": 0.8, "epochs": 2,
            "batch_size": 50, "bank_capacity": 256, "k_neighbors": 5,
            "k": 10, "epsilon_sinkhorn": 0.1}))
        out = tmp_path / "runs"
        digests = []
        for _ in range(2):
            assert cli_main(["simulate", "--config", str(cfg),
                             "--out", str(out)]) == 0
            sim_dir = next(out.glob("simulate-*"))
            assert cli_main(["analyze", "--config", str(cfg),
                             "--queries", str(sim_dir / "queries.emb"),
                             "--galleries", str(sim_dir / "galleries.emb"),
                             "--out", str(out)]) == 0
            assert cli_main(["train", "--config", str(cfg),
                             "--out", str(out)]) == 0
            assert cli_main(["retrieve", "--config", str(cfg),
                             "--queries", str(sim_dir / "queries.emb"),
                             "--galleries", str(sim_dir / "galleries.emb"),
                             "--mode", "simi-cent",
                             "--out", str(out)]) == 0
            digests.append(self._tree(out))
        ok = digests[0] == digests[1]
        report(9, ok, f"determinism: {len(digests[0])} artifacts byte-identical "
                      "across repeated runs")
        assert ok
