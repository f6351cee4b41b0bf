import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unchunked
from lgpnet import gmm as gmm_module
from lgpnet.gmm import EmConfig, Gmm, llr_score, logsumexp, pooled_mean_var, train_em
from conftest import sample_gmm_frames

LOG_2PI = np.log(2.0 * np.pi)


def direct_component_log_density(gmm, i, x):
    """Independent evaluation of the single-Gaussian log density formula."""
    d = gmm.dim
    total = -0.5 * d * LOG_2PI
    for dim in range(d):
        total -= 0.5 * np.log(gmm.variances[i, dim])
        total -= 0.5 * (x[dim] - gmm.means[i, dim]) ** 2 / gmm.variances[i, dim]
    return total


class TestDensities:
    def test_at_mean_identity_covariance(self):
        gmm = Gmm(np.array([1.0]), np.zeros((1, 2)), np.ones((1, 2)))
        value = gmm.component_log_densities(np.zeros((1, 2)))[0, 0]
        assert value == pytest.approx(-LOG_2PI, abs=1e-12)

    def test_unit_offset(self):
        gmm = Gmm(np.array([1.0]), np.zeros((1, 2)), np.ones((1, 2)))
        value = gmm.component_log_densities(np.array([[1.0, 0.0]]))[0, 0]
        assert value == pytest.approx(-LOG_2PI - 0.5, abs=1e-12)

    def test_matches_direct_formula(self, toy_gmm, rng):
        frames = rng.normal(size=(20, toy_gmm.dim)) * 3.0
        densities = toy_gmm.component_log_densities(frames)
        for t, x in enumerate(frames):
            for i in range(toy_gmm.order):
                assert densities[t, i] == pytest.approx(
                    direct_component_log_density(toy_gmm, i, x), abs=1e-12
                )


class TestMixtureLikelihood:
    def test_single_component_equals_density(self, rng):
        gmm = Gmm(np.array([1.0]), rng.normal(size=(1, 3)), np.ones((1, 3)) * 0.7)
        frames = rng.normal(size=(5, 3))
        mixture = gmm.frame_log_likelihoods(frames)
        single = gmm.component_log_densities(frames)[:, 0]
        for got, want in zip(mixture, single):
            assert got == pytest.approx(want, abs=1e-12)

    def test_matches_brute_force_sum(self, toy_gmm, rng):
        frames = rng.normal(size=(20, 3)) * 2.0
        mixture = toy_gmm.frame_log_likelihoods(frames)
        for t, x in enumerate(frames):
            brute = np.log(
                sum(
                    w * np.exp(direct_component_log_density(toy_gmm, i, x))
                    for i, w in enumerate(toy_gmm.weights)
                )
            )
            assert mixture[t] == pytest.approx(brute, abs=1e-10)

    def test_utterance_value_invariant_to_frame_order(self, toy_gmm, rng):
        frames = rng.normal(size=(37, 3))
        base = toy_gmm.utterance_log_likelihood(frames)
        for _ in range(5):
            shuffled = frames[rng.permutation(37)]
            assert toy_gmm.utterance_log_likelihood(shuffled) == base

    def test_empty_utterance_rejected(self, toy_gmm):
        with pytest.raises(ValueError):
            toy_gmm.utterance_log_likelihood(np.zeros((0, 3)))

    def test_frame_log_likelihoods_of_no_frames_is_empty(self, toy_gmm):
        out = toy_gmm.frame_log_likelihoods(np.zeros((0, 3)))
        assert out.shape == (0,) and out.dtype == np.float64

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_logsumexp_never_overflows(self, values):
        result = logsumexp(np.array([values]), axis=1)[0]
        assert np.isfinite(result)
        assert result >= max(values)


class TestLlr:
    def test_identical_models_score_zero(self, toy_gmm, rng):
        frames = rng.normal(size=(25, 3))
        assert llr_score(toy_gmm, toy_gmm, frames) == 0.0

    def test_antisymmetry(self, toy_gmm, rng):
        other = Gmm(
            np.array([0.5, 0.5]),
            toy_gmm.means + 1.0,
            toy_gmm.variances * 1.3,
        )
        frames = rng.normal(size=(25, 3))
        assert llr_score(toy_gmm, other, frames) == pytest.approx(
            -llr_score(other, toy_gmm, frames), abs=1e-9
        )

    def test_samples_from_genuine_score_positive(self, toy_gmm, rng):
        other = Gmm(
            np.array([0.5, 0.5]),
            toy_gmm.means + 2.5,
            toy_gmm.variances,
        )
        frames = sample_gmm_frames(toy_gmm, 400, rng)
        assert llr_score(toy_gmm, other, frames) > 0.0

    def test_dimension_mismatch_rejected(self, toy_gmm):
        narrow = Gmm(np.array([1.0]), np.zeros((1, 2)), np.ones((1, 2)))
        with pytest.raises(ValueError):
            llr_score(toy_gmm, narrow, np.zeros((4, 3)))

    @pytest.mark.parametrize("frames, message", [
        (np.zeros((0, 3)), "non-empty"), (np.zeros((4, 2)), r"shape \(4, 2\)"),
    ])
    def test_a_bad_utterance_is_refused(self, toy_gmm, frames, message):
        with pytest.raises(ValueError, match=message):
            llr_score(toy_gmm, toy_gmm, frames)


class TestValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Gmm(np.array([0.6, 0.6]), np.zeros((2, 2)), np.ones((2, 2)))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            Gmm(np.array([1.2, -0.2]), np.zeros((2, 2)), np.ones((2, 2)))

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ValueError):
            Gmm(np.array([1.0]), np.zeros((1, 2)), np.array([[1.0, 0.0]]))

    @pytest.mark.parametrize("field", ["weights", "means", "variances"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_parameter_rejected(self, toy_gmm, field, bad):
        params = {"weights": toy_gmm.weights.copy(), "means": toy_gmm.means.copy(),
                  "variances": toy_gmm.variances.copy()}
        params[field].flat[1] = bad
        with pytest.raises(ValueError, match="must be finite"):
            Gmm(**params)

    def test_cache_consistent_with_parameters(self, toy_gmm):
        expected = -0.5 * (3 * LOG_2PI + np.log(toy_gmm.variances).sum(axis=1))
        assert np.allclose(toy_gmm.log_norm, expected, atol=1e-14)
        assert np.allclose(toy_gmm.log_weights, np.log(toy_gmm.weights), atol=1e-14)


class TestEmTraining:
    def test_single_component_closed_form(self, rng):
        frames = rng.normal(loc=2.0, scale=1.5, size=(500, 2))
        model, _ = train_em(frames, 1, EmConfig(iterations=1, seed=0))
        assert np.allclose(model.means[0], frames.mean(axis=0), atol=1e-12)
        assert np.allclose(model.variances[0], frames.var(axis=0), atol=1e-12)
        assert model.weights[0] == pytest.approx(1.0, abs=1e-12)

    def test_recovers_separated_clusters(self, rng):
        a = rng.normal(loc=(0.0, 0.0), scale=0.25, size=(600, 2))
        b = rng.normal(loc=(4.0, -3.0), scale=0.25, size=(400, 2))
        model, _ = train_em(np.concatenate([a, b]), 2, EmConfig(iterations=20, seed=1))
        recovered = model.means[np.argsort(model.means[:, 0])]
        assert np.allclose(recovered[0], [0.0, 0.0], atol=0.1)
        assert np.allclose(recovered[1], [4.0, -3.0], atol=0.1)
        assert model.weights[np.argsort(model.means[:, 0])][0] == pytest.approx(0.6, abs=0.05)

    def test_likelihood_trace_monotone_over_30_iterations(self, toy_gmm, rng):
        frames = sample_gmm_frames(toy_gmm, 2000, rng)
        _, trace = train_em(frames, 3, EmConfig(iterations=30, seed=2))
        assert trace.shape == (31,)
        assert np.all(np.diff(trace) >= -1e-8)

    def test_weights_valid_after_every_iteration(self, toy_gmm, rng):
        # The Gmm constructor revalidates after each M-step, so any violation
        # raises during training; spot-check the final state as well.
        frames = sample_gmm_frames(toy_gmm, 800, rng)
        for iters in (1, 2, 5, 11):
            model, _ = train_em(frames, 4, EmConfig(iterations=iters, seed=3))
            assert abs(model.weights.sum() - 1.0) < 1e-10
            assert np.all(model.weights >= 0.0)

    def test_variance_floor_on_duplicated_data(self):
        frames = np.concatenate([np.zeros((50, 2)), np.ones((50, 2))])
        model, trace = train_em(frames, 2, EmConfig(iterations=10, seed=4))
        assert np.all(model.variances > 0.0)
        assert np.all(np.isfinite(trace))

    def test_fewer_frames_than_components_rejected(self, rng):
        with pytest.raises(ValueError):
            train_em(rng.normal(size=(3, 2)), 4, EmConfig(iterations=1))


class TestPersistence:
    def test_round_trip_scores_match_float32_precision(self, toy_gmm, rng, tmp_path):
        path = tmp_path / "model.gmm"
        toy_gmm.save(path)
        loaded = Gmm.load(path)
        assert loaded.order == toy_gmm.order and loaded.dim == toy_gmm.dim
        frames = rng.normal(size=(10, 3))
        assert loaded.utterance_log_likelihood(frames) == pytest.approx(
            toy_gmm.utterance_log_likelihood(frames), rel=1e-5
        )

    def test_missing_tensor_rejected(self, tmp_path):
        from lgpnet import tensorio

        path = tmp_path / "broken.gmm"
        tensorio.save_tensors(path, {"weights": np.array([1.0], dtype=np.float32)})
        with pytest.raises(ValueError):
            Gmm.load(path)


def clustered_frames(rng, n, d, dtype=np.float64):
    """Frames around a few offset centres, with unequal per-dimension scales."""
    centres = rng.normal(0.0, 3.0, size=(5, d))
    scales = rng.uniform(0.5, 2.0, size=d)
    which = rng.integers(5, size=n)
    return (centres[which] + rng.normal(size=(n, d)) * scales).astype(dtype)


def rows_per_chunk(monkeypatch, m, rows):
    """Make frame_chunks cut ``rows`` frames per block at order ``m``."""
    monkeypatch.setattr(gmm_module, "CHUNK_VALUES", m * rows)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# Drift bounds of one chunked EM iteration against the unchunked oracle,
# set before the chunked code was written: means within this fraction of
# each dimension's scale (global standard deviation), variances and
# weights within these relative errors.
MEAN_DRIFT = 1e-12
VAR_DRIFT = 1e-9
WEIGHT_DRIFT = 1e-12


class TestChunkedEm:
    """EM by per-block sufficient statistics against the unchunked formulas."""

    @pytest.mark.parametrize("n, d, m, dtype", [
        (500, 3, 4, np.float64), (3000, 20, 32, np.float32), (2048, 60, 512, np.float32),
    ])
    def test_one_chunk_is_bit_identical(self, rng, n, d, m, dtype):
        frames = clustered_frames(rng, n, d, dtype)
        assert n <= gmm_module.CHUNK_VALUES // max(m, d)
        cfg = EmConfig(iterations=3, seed=5)
        model, trace = train_em(frames, m, cfg)
        want, want_trace = unchunked.train_em(frames, m, cfg)
        for got, ref in ((model.means, want.means), (model.variances, want.variances),
                         (model.weights, want.weights), (trace, want_trace)):
            assert same_bits(got, ref)

    def test_reseeding_step_is_bit_identical_in_one_chunk(self, rng):
        frames = clustered_frames(rng, 400, 3)
        global_var, floor, model = unchunked.em_start(frames, 4, seed=1)
        means = model.means.copy()
        means[2] = 1e3                      # no frame reaches it: a dead component
        model = Gmm(model.weights, means, model.variances)
        got, got_ll = gmm_module._em_step(model, frames, global_var, floor)
        want, want_ll = unchunked.em_step(model, frames, global_var, floor)
        assert got.weights[2] == pytest.approx(1.0 / 401)
        assert got_ll == want_ll
        for a, b in ((got.means, want.means), (got.variances, want.variances),
                     (got.weights, want.weights)):
            assert same_bits(a, b)

    @pytest.mark.parametrize("n, d, m, rows", [
        (6000, 60, 512, 256), (2000, 4, 8, 3), (1500, 10, 16, 1),
    ])
    def test_one_iteration_drift_within_bounds(self, rng, monkeypatch, n, d, m, rows):
        frames = clustered_frames(rng, n, d, np.float32)
        global_var, floor, model = unchunked.em_start(frames, m, seed=2)
        want, want_ll = unchunked.em_step(model, frames, global_var, floor)
        rows_per_chunk(monkeypatch, m, rows)
        got, got_ll = gmm_module._em_step(model, frames, global_var, floor)

        mean_drift = (np.abs(got.means - want.means) / np.sqrt(global_var)).max()
        var_drift = (np.abs(got.variances - want.variances) / want.variances).max()
        weight_drift = (np.abs(got.weights - want.weights) / want.weights).max()
        print(f"{-(-n // rows)} blocks: means {mean_drift:.2e} of scale, "
              f"variances {var_drift:.2e} rel, weights {weight_drift:.2e} rel, "
              f"avg log-likelihood {abs(got_ll - want_ll):.2e}")
        assert mean_drift <= MEAN_DRIFT
        assert var_drift <= VAR_DRIFT
        assert weight_drift <= WEIGHT_DRIFT

    def test_trace_monotone_over_64_frame_blocks(self, toy_gmm, rng, monkeypatch):
        frames = sample_gmm_frames(toy_gmm, 2000, rng)
        rows_per_chunk(monkeypatch, 3, 64)
        _, trace = train_em(frames, 3, EmConfig(iterations=30, seed=2))
        assert np.all(np.diff(trace) >= -1e-8)


class TestKmeansSeeding:
    """The ||x||^2 - 2 x.c + ||c||^2 seeding picks what ||x - c||^2 picks."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("n, d, m, rows", [
        (300, 2, 8, None), (1000, 20, 64, 100), (2500, 60, 128, None), (2500, 60, 128, 333),
    ])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_same_frames_as_direct_distance(self, monkeypatch, seed, n, d, m, rows, dtype):
        frames = clustered_frames(np.random.default_rng(seed), n, d, dtype)
        if rows:
            rows_per_chunk(monkeypatch, m, rows)
        got = gmm_module._kmeanspp_means(frames, m, np.random.default_rng(seed))
        want = unchunked.kmeanspp_means(frames, m, np.random.default_rng(seed))
        assert same_bits(got, want)

    def test_duplicated_frames(self):
        frames = np.concatenate([np.zeros((50, 2)), np.ones((50, 2))])
        for seed in range(4):
            got = gmm_module._kmeanspp_means(frames, 5, np.random.default_rng(seed))
            want = unchunked.kmeanspp_means(frames, 5, np.random.default_rng(seed))
            assert same_bits(got, want)


class TestPooledMeanVar:
    def test_one_block_is_numpy_mean_and_var(self, rng):
        x = clustered_frames(rng, 333, 7)
        mean, var = pooled_mean_var([x])
        assert same_bits(mean, x.mean(axis=0)) and same_bits(var, x.var(axis=0))

    def test_blocks_merge_to_the_pooled_moments(self, rng):
        x = clustered_frames(rng, 1000, 7) + 100.0
        cuts = [0, 1, 2, 10, 400, 999, 1000]
        mean, var = pooled_mean_var(x[a:b] for a, b in zip(cuts, cuts[1:]))
        assert np.allclose(mean, x.mean(axis=0), rtol=1e-14, atol=0.0)
        assert np.allclose(var, x.var(axis=0), rtol=1e-12, atol=0.0)


def traced_peak(fn):
    """Bytes allocated at the peak of ``fn()`` above what was live before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    """At M = 512 the working memory of EM and of the LGP statistics is set
    by the block size, not by the number of frames."""

    M, D = 512, 20

    def peaks(self, fn):
        rows = gmm_module.CHUNK_VALUES // self.M
        out = []
        for blocks in (1, 4):
            frames = clustered_frames(np.random.default_rng(blocks), blocks * rows, self.D,
                                      np.float32)
            out.append(traced_peak(lambda: fn(frames)))
        return out

    def test_train_em_peak_flat_in_frames(self):
        one, four = self.peaks(lambda f: train_em(f, self.M, EmConfig(iterations=1, seed=0)))
        print(f"train_em traced peak: 1 block {one / 2**20:.1f} MiB, 4 blocks {four / 2**20:.1f} MiB")
        assert four <= 1.10 * one

    def test_fit_norm_stats_peak_flat_in_frames(self):
        from lgpnet.lgp import fit_norm_stats

        rng = np.random.default_rng(9)
        model = Gmm(np.full(self.M, 1.0 / self.M), rng.normal(size=(self.M, self.D)),
                    rng.uniform(0.5, 1.5, size=(self.M, self.D)))
        one, four = self.peaks(lambda f: fit_norm_stats(model, f, "fast"))
        print(f"fit_norm_stats traced peak: 1 block {one / 2**20:.1f} MiB, "
              f"4 blocks {four / 2**20:.1f} MiB")
        assert four <= 1.10 * one


def paper_shape_model(rng, frames, m):
    """An ``m``-component model on ``frames``: means at frames, narrow
    variances, so most components sit far below the best one and the
    log-sum-exp meets arguments in exp's underflow and subnormal bands."""
    means = frames[rng.choice(len(frames), m, replace=False)].astype(np.float64)
    variances = rng.uniform(0.05, 0.5, size=(m, frames.shape[1]))
    return Gmm(rng.dirichlet(np.ones(m)), means, variances)


class TestFrameKernel:
    """The in-place, row-blocked per-frame kernel against the plain formulas
    of ``tests/unchunked.py``."""

    @pytest.fixture(scope="class")
    def paper(self):
        rng = np.random.default_rng(17)
        frames = clustered_frames(rng, 2600, 60, np.float32)
        return paper_shape_model(rng, frames, 512), frames

    @pytest.mark.parametrize("rows", [1, 7, 255, 256, 257, 2048])
    def test_frame_log_likelihoods_bit_identical_to_oracle(self, paper, rows):
        model, frames = paper
        x = frames[300:300 + rows]
        assert same_bits(model.frame_log_likelihoods(x), unchunked.frame_log_likelihoods(model, x))
        assert same_bits(model.component_log_densities(x),
                         unchunked.component_log_densities(model, x))

    def test_oracle_frames_reach_the_slow_exp_bands(self, paper):
        model, frames = paper
        weighted = unchunked.component_log_densities(model, frames[:2048]) + model.log_weights
        shifted = weighted - weighted.max(axis=1, keepdims=True)
        assert ((shifted < -745.1332) & (shifted > -2500)).mean() > 0.01
        assert ((shifted > -745.1332) & (shifted < -708.4)).any()

    def test_logsumexp_bit_identical_on_special_values(self):
        rows = [[0.0, v] for v in (-708.5, -745.1, -745.2, -746.0, -1e4, -np.inf)]
        rows += [[-np.inf, -np.inf], [0.0, np.nan], [-745.2, -745.2 - 708.5]]
        a = np.array(rows)
        assert same_bits(logsumexp(a, axis=1), unchunked.logsumexp(a, axis=1))

    def test_exp_in_place_bit_identical_across_the_bands(self):
        a = np.concatenate([np.linspace(-2600.0, 1.0, 200_001),
                            np.nextafter(gmm_module.EXP_ZERO, [np.inf, -np.inf]),
                            [-745.1332, -745.1333, -np.inf, np.nan, -0.0]])
        want = np.exp(a)
        gmm_module._exp_in_place(a)
        assert same_bits(a, want)

    def test_exp_is_exactly_zero_below_the_bound(self):
        # a dense grid of consecutive doubles below EXP_ZERO, then a coarse one
        x = np.full(20_000, gmm_module.EXP_ZERO)
        for i in range(1, len(x)):
            x[i] = np.nextafter(x[i - 1], -np.inf)
        x = np.concatenate([x, np.linspace(gmm_module.EXP_ZERO, -3000.0, 100_000)])
        got = np.exp(x)
        assert np.all(got == 0.0) and not np.signbit(got).any()
