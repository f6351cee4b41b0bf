import numpy as np
import pytest

import unchunked
from lgpnet import gmm as gmm_module
from lgpnet.gmm import Gmm
from lgpnet.lgp import LgpNormStats, extract_lgp, fit_norm_stats

LOG_2PI = np.log(2.0 * np.pi)


def direct_full_form(gmm, x):
    """Independent elementwise evaluation of the full-form feature."""
    out = np.empty(gmm.order)
    for i in range(gmm.order):
        value = -0.5 * gmm.dim * LOG_2PI
        for d in range(gmm.dim):
            value -= 0.5 * np.log(gmm.variances[i, d])
            value -= 0.5 * (x[d] - gmm.means[i, d]) ** 2 / gmm.variances[i, d]
        out[i] = value
    return out


def direct_fast_form(gmm, x):
    out = np.empty(gmm.order)
    for i in range(gmm.order):
        value = 0.0
        for d in range(gmm.dim):
            value += -0.5 * x[d] ** 2 / gmm.variances[i, d]
            value += x[d] * gmm.means[i, d] / gmm.variances[i, d]
        out[i] = value
    return out


class TestRawForms:
    def test_full_at_mean_identity_covariance(self):
        gmm = Gmm(np.array([1.0]), np.zeros((1, 2)), np.ones((1, 2)))
        full = gmm.component_log_densities(np.zeros((1, 2)))
        assert full[0, 0] == pytest.approx(-LOG_2PI, abs=1e-12)

    def test_full_matches_direct_formula(self, toy_gmm, rng):
        frames = rng.normal(size=(10, 3)) * 2.0
        full = toy_gmm.component_log_densities(frames)
        for row, x in zip(full, frames):
            assert np.allclose(row, direct_full_form(toy_gmm, x), atol=1e-12)

    def test_fast_hand_value(self):
        gmm = Gmm(np.array([1.0]), np.ones((1, 2)), np.ones((1, 2)))
        assert gmm.frame_terms(np.array([[1.0, 1.0]]))[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_fast_vanishes_at_origin(self, toy_gmm):
        assert np.array_equal(toy_gmm.frame_terms(np.zeros((4, 3))), np.zeros((4, 2)))

    def test_fast_matches_direct_formula(self, toy_gmm, rng):
        frames = rng.normal(size=(10, 3)) * 2.0
        fast = toy_gmm.frame_terms(frames)
        for row, x in zip(fast, frames):
            assert np.allclose(row, direct_fast_form(toy_gmm, x), atol=1e-12)

    def test_forms_differ_by_frame_independent_constant(self, toy_gmm, rng):
        frames = rng.normal(size=(6, 3))
        gap = toy_gmm.component_log_densities(frames) - toy_gmm.frame_terms(frames)
        assert np.allclose(gap, gap[0][None, :], atol=1e-10)

    def test_dimension_mismatch_rejected(self, toy_gmm):
        with pytest.raises(ValueError):
            toy_gmm.component_log_densities(np.zeros((1, 4)))
        with pytest.raises(ValueError):
            toy_gmm.frame_terms(np.zeros((1, 2)))


class TestNormStats:
    def test_population_convention(self):
        # 1-D single component, var 1, mean 0: fast form gives y = -x^2/2.
        gmm = Gmm(np.array([1.0]), np.zeros((1, 1)), np.ones((1, 1)))
        frames = np.array([[0.0], [2.0]])          # raw values {0, -2}
        stats = fit_norm_stats(gmm, frames, "fast")
        assert stats.mean[0] == pytest.approx(-1.0, abs=1e-12)
        assert stats.std[0] == pytest.approx(1.0, abs=1e-12)

    def test_constant_channel_floors_std_and_zeroes_feature(self, toy_gmm):
        frames = np.tile(np.array([[0.3, -0.2, 1.1]]), (10, 1))
        stats = fit_norm_stats(toy_gmm, frames, "fast")
        assert np.all(stats.std == pytest.approx(1e-8))
        feats = extract_lgp(toy_gmm, stats, frames)
        assert np.allclose(feats, 0.0)

    def test_matches_two_pass_oracle(self, toy_gmm, rng):
        frames = rng.normal(size=(200, 3))
        stats = fit_norm_stats(toy_gmm, frames, "full")
        raw = np.array([direct_full_form(toy_gmm, x) for x in frames])
        mean = raw.sum(axis=0) / raw.shape[0]
        std = np.sqrt(((raw - mean) ** 2).sum(axis=0) / raw.shape[0])
        assert np.allclose(stats.mean, mean, atol=1e-10)
        assert np.allclose(stats.std, std, atol=1e-10)

    def test_needs_two_frames(self, toy_gmm):
        with pytest.raises(ValueError):
            fit_norm_stats(toy_gmm, np.zeros((1, 3)), "fast")

    def test_round_trip(self, toy_gmm, rng, tmp_path):
        frames = rng.normal(size=(50, 3))
        stats = fit_norm_stats(toy_gmm, frames, "fast")
        path = tmp_path / "stats.lgp"
        stats.save(path)
        loaded = LgpNormStats.load(path)
        assert loaded.form == "fast"
        assert np.allclose(loaded.mean, stats.mean, rtol=1e-6)
        assert np.allclose(loaded.std, stats.std, rtol=1e-6)

    @pytest.mark.parametrize("field", ["mean", "std"])
    def test_non_finite_stats_rejected(self, field):
        values = {"mean": np.zeros(3), "std": np.ones(3)}
        values[field][2] = np.nan
        with pytest.raises(ValueError, match="must be finite"):
            LgpNormStats(form="fast", **values)

    @pytest.mark.parametrize("form", [np.zeros(0), np.ones(2), np.ones((1, 1))])
    def test_misshapen_form_tensor_rejected(self, form):
        tensors = {"lgp_mean": np.zeros(3), "lgp_std": np.ones(3), "form": form}
        with pytest.raises(ValueError, match="'form' has shape"):
            LgpNormStats.from_tensors(tensors)


class TestChunkedNormStats:
    """Stats merged block by block against the unchunked (N, M) formulas."""

    @staticmethod
    def model_and_frames(m, d, n, dtype):
        rng = np.random.default_rng(m + d)
        model = Gmm(rng.dirichlet(np.ones(m)), rng.normal(0.0, 2.0, size=(m, d)),
                    rng.uniform(0.3, 2.0, size=(m, d)))
        frames = (rng.normal(size=(n, d)) * 1.5 + rng.normal(size=d)).astype(dtype)
        return model, frames

    @pytest.mark.parametrize("form", ["fast", "full"])
    @pytest.mark.parametrize("m, d, n, dtype", [
        (2, 3, 200, np.float64), (64, 20, 5000, np.float32), (512, 60, 2048, np.float32),
    ])
    def test_one_chunk_is_bit_identical(self, form, m, d, n, dtype):
        model, frames = self.model_and_frames(m, d, n, dtype)
        assert n <= gmm_module.CHUNK_VALUES // max(m, d)
        got = fit_norm_stats(model, frames, form)
        want = unchunked.fit_norm_stats(model, frames, form)
        assert got.mean.tobytes() == want.mean.tobytes()
        assert got.std.tobytes() == want.std.tobytes()

    @pytest.mark.parametrize("rows", [1, 7, 256])
    def test_many_chunks_drift_within_bounds(self, monkeypatch, rows):
        # Bounds set before measuring: each mean within 1e-12 of the component's
        # root mean square raw value, each std within 1e-12 relative.
        model, frames = self.model_and_frames(64, 20, 5000, np.float32)
        want = unchunked.fit_norm_stats(model, frames, "fast")
        monkeypatch.setattr(gmm_module, "CHUNK_VALUES", 64 * rows)
        got = fit_norm_stats(model, frames, "fast")
        rms = np.sqrt(want.mean**2 + want.std**2)
        mean_drift = (np.abs(got.mean - want.mean) / rms).max()
        std_drift = (np.abs(got.std - want.std) / want.std).max()
        print(f"{-(-5000 // rows)} blocks: means {mean_drift:.2e} of rms, stds {std_drift:.2e} rel")
        assert mean_drift <= 1e-12
        assert std_drift <= 1e-12


class TestExtract:
    def test_normalized_corpus_is_standardized(self, toy_gmm, rng):
        frames = rng.normal(size=(500, 3))
        stats = fit_norm_stats(toy_gmm, frames, "fast")
        feats = extract_lgp(toy_gmm, stats, frames)
        assert np.abs(feats.mean(axis=1)).max() < 1e-8
        assert np.abs(feats.std(axis=1) - 1.0).max() < 1e-6

    def test_output_orientation_is_order_by_time(self, toy_gmm, rng):
        frames = rng.normal(size=(40, 3))
        stats = fit_norm_stats(toy_gmm, frames, "fast")
        assert extract_lgp(toy_gmm, stats, frames).shape == (2, 40)

    def test_full_scale_shape(self, rng):
        gmm = Gmm(
            np.full(512, 1.0 / 512),
            rng.normal(size=(512, 6)),
            rng.uniform(0.5, 2.0, size=(512, 6)),
        )
        frames = rng.normal(size=(400, 6))
        stats = fit_norm_stats(gmm, frames, "fast")
        assert extract_lgp(gmm, stats, frames).shape == (512, 400)

    def test_form_equivalence_after_normalization(self, toy_gmm, rng):
        train = rng.normal(size=(300, 3))
        test = rng.normal(size=(60, 3))
        full_stats = fit_norm_stats(toy_gmm, train, "full")
        fast_stats = fit_norm_stats(toy_gmm, train, "fast")
        full = extract_lgp(toy_gmm, full_stats, test)
        fast = extract_lgp(toy_gmm, fast_stats, test)
        assert np.abs(full - fast).max() < 1e-6

    def test_frame_locality_under_permutation(self, toy_gmm, rng):
        frames = rng.normal(size=(30, 3))
        stats = fit_norm_stats(toy_gmm, frames, "fast")
        perm = rng.permutation(30)
        direct = extract_lgp(toy_gmm, stats, frames[perm])
        permuted = extract_lgp(toy_gmm, stats, frames)[:, perm]
        assert np.array_equal(direct, permuted)

    def test_order_mismatch_rejected(self, toy_gmm):
        stats = LgpNormStats(mean=np.zeros(5), std=np.ones(5), form="fast")
        with pytest.raises(ValueError):
            extract_lgp(toy_gmm, stats, np.zeros((4, 3)))

    @pytest.mark.parametrize("form, method", [("full", "component_log_densities"),
                                              ("fast", "frame_terms")])
    def test_forms_call_the_gmm_method_by_name(self, toy_gmm, rng, monkeypatch, form, method):
        """A wrapper set on ``Gmm`` (as the bench's tracer sets) sees each
        form's raw rows being made, in fitting and in extraction."""
        calls = []
        original = getattr(Gmm, method)

        def counted(self, frames):
            calls.append(frames.shape[0])
            return original(self, frames)

        monkeypatch.setattr(Gmm, method, counted)
        frames = rng.normal(size=(30, 3))
        extract_lgp(toy_gmm, fit_norm_stats(toy_gmm, frames, form), frames[:7])
        assert calls == [30, 7]
