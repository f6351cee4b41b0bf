import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgpnet.errors import ProtocolError
from lgpnet.evaluation import (
    TdcfCostModel,
    eer_from_scores,
    fuse_scores,
    min_tdcf_from_scores,
    read_protocol,
    read_scores,
    read_trials,
    write_protocol,
    write_scores,
)


def brute_force_eer(bona, spoof):
    """O(n^2) threshold sweep sharing only the mathematical definition."""
    candidates = [-math.inf] + sorted(set(list(bona) + list(spoof))) + [math.inf]
    points = []
    for threshold in candidates:
        miss = sum(1 for s in bona if s < threshold) / len(bona)
        fa = sum(1 for s in spoof if s >= threshold) / len(spoof)
        points.append((miss, fa))
    for k, (miss, fa) in enumerate(points):
        diff = miss - fa
        if diff >= 0.0:
            if diff == 0.0:
                return (miss + fa) / 2.0
            prev_miss, prev_fa = points[k - 1]
            prev_diff = prev_miss - prev_fa
            alpha = prev_diff / (prev_diff - diff)
            return (1.0 - alpha) * prev_miss + alpha * miss
    raise AssertionError("no crossing found")


def brute_force_min_tdcf(bona, spoof, cost):
    c1, c2 = cost.coefficients()
    candidates = [-math.inf] + sorted(set(list(bona) + list(spoof))) + [math.inf]
    best = math.inf
    for threshold in candidates:
        miss = sum(1 for s in bona if s < threshold) / len(bona)
        fa = sum(1 for s in spoof if s >= threshold) / len(spoof)
        best = min(best, (c1 * miss + c2 * fa) / min(c1, c2))
    return best


class TestEer:
    def test_perfect_separation(self):
        eer, threshold = eer_from_scores(np.array([1.0, 2.0, 3.0]), np.array([-1.0, 0.0]))
        assert eer == 0.0
        assert 0.0 < threshold <= 1.0

    def test_identical_score_multisets(self):
        scores = np.array([0.3, 1.1, 2.2])
        eer, _ = eer_from_scores(scores, scores.copy())
        assert eer == pytest.approx(0.5)

    def test_matches_brute_force_on_random_cases(self, rng):
        for _ in range(30):
            n_bona = int(rng.integers(2, 15))
            n_spoof = int(rng.integers(2, 15))
            bona = rng.normal(0.5, 1.0, size=n_bona)
            spoof = rng.normal(-0.5, 1.0, size=n_spoof)
            fast, _ = eer_from_scores(bona, spoof)
            assert fast == brute_force_eer(list(bona), list(spoof))

    def test_matches_brute_force_with_tied_scores(self, rng):
        for _ in range(30):
            bona = rng.integers(-3, 4, size=10).astype(float)
            spoof = rng.integers(-3, 4, size=8).astype(float)
            fast, _ = eer_from_scores(bona, spoof)
            assert fast == brute_force_eer(list(bona), list(spoof))

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            eer_from_scores(np.array([1.0]), np.array([]))

    @given(
        # Scores on a coarse grid so the affine image cannot collapse two
        # distinct values into one float (which would not be increasing).
        bona=st.lists(st.integers(min_value=-500, max_value=500), min_size=1, max_size=20),
        spoof=st.lists(st.integers(min_value=-500, max_value=500), min_size=1, max_size=20),
        scale=st.floats(min_value=0.1, max_value=10.0),
        shift=st.floats(min_value=-20.0, max_value=20.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_invariant_to_increasing_affine_maps(self, bona, spoof, scale, shift):
        bona = np.asarray(bona, dtype=np.float64) / 10.0
        spoof = np.asarray(spoof, dtype=np.float64) / 10.0
        base, threshold = eer_from_scores(bona, spoof)
        mapped, _ = eer_from_scores(scale * bona + shift, scale * spoof + shift)
        assert mapped == pytest.approx(base, abs=1e-12)
        assert np.isfinite(threshold)

    def test_invariant_to_nonlinear_increasing_map(self, rng):
        bona = rng.normal(0.4, 1.0, size=25)
        spoof = rng.normal(-0.4, 1.0, size=25)
        base, _ = eer_from_scores(bona, spoof)
        mapped, _ = eer_from_scores(np.tanh(bona), np.tanh(spoof))
        assert mapped == pytest.approx(base, abs=1e-12)

    def test_unlabeled_trial_rejected(self, tmp_path):
        write_scores(tmp_path / "s.txt", {"a": 1.0, "b": 0.0})
        (tmp_path / "p.txt").write_text("a unknown\nb spoof\n")
        with pytest.raises(ProtocolError, match="unknown label"):
            read_trials(tmp_path / "s.txt", tmp_path / "p.txt")


class TestMinTdcf:
    def test_perfect_separation_is_zero(self):
        cost = TdcfCostModel()
        value = min_tdcf_from_scores(np.array([2.0, 3.0]), np.array([-2.0, -1.0]), cost)
        assert value == 0.0

    def test_extreme_thresholds_bound_the_minimum(self, rng):
        # Accepting or rejecting everything costs min(C1, C2)/min(C1, C2) = 1.
        cost = TdcfCostModel()
        bona = rng.normal(size=30)
        spoof = rng.normal(size=30)
        assert min_tdcf_from_scores(bona, spoof, cost) <= 1.0

    def test_matches_brute_force(self, rng):
        cost = TdcfCostModel()
        for _ in range(25):
            bona = rng.normal(0.3, 1.0, size=int(rng.integers(2, 20)))
            spoof = rng.normal(-0.3, 1.0, size=int(rng.integers(2, 20)))
            fast = min_tdcf_from_scores(bona, spoof, cost)
            slow = brute_force_min_tdcf(list(bona), list(spoof), cost)
            assert fast == pytest.approx(slow, abs=1e-12)

    def test_invariant_to_increasing_transform(self, rng):
        cost = TdcfCostModel()
        bona = rng.normal(0.3, 1.0, size=40)
        spoof = rng.normal(-0.3, 1.0, size=40)
        base = min_tdcf_from_scores(bona, spoof, cost)
        mapped = min_tdcf_from_scores(np.tanh(bona), np.tanh(spoof), cost)
        assert mapped == base

    def test_degenerate_cost_model_rejected(self):
        cost = TdcfCostModel(p_miss_spoof_asv=1.0)   # C2 = 0
        with pytest.raises(ValueError):
            cost.coefficients()

    def test_invalid_priors_rejected(self):
        with pytest.raises(ValueError):
            TdcfCostModel(p_target=0.5, p_nontarget=0.1, p_spoof=0.1)


class TestFusion:
    def test_single_subsystem_identity(self):
        dev = [{"u1": 2.0, "u2": -1.0, "u3": 0.5}]
        labels = {"u1": "bonafide", "u2": "spoof", "u3": "bonafide"}
        result = fuse_scores(dev, labels, eval_systems=[{"e1": 3.0}])
        assert result.weights.tolist() == [1.0]
        assert result.fused_eval == {"e1": 3.0}
        base, _ = eer_from_scores(np.array([2.0, 0.5]), np.array([-1.0]))
        assert result.dev_eer == base

    def test_identical_subsystems_get_equal_weights_by_symmetry(self, rng):
        scores = {f"u{i}": float(s) for i, s in enumerate(rng.normal(size=12))}
        labels = {u: ("bonafide" if i % 2 else "spoof") for i, u in enumerate(scores)}
        result = fuse_scores([scores, dict(scores)], labels)
        assert np.allclose(result.weights, [0.5, 0.5])

    def test_complementary_subsystems_improve(self, rng):
        # System A separates half the trials, system B the other half.
        ids = [f"u{i}" for i in range(40)]
        labels = {u: ("bonafide" if i < 20 else "spoof") for i, u in enumerate(ids)}
        a, b = {}, {}
        for i, u in enumerate(ids):
            bona = i < 20
            first_half = (i % 20) < 10
            strong = 4.0 if bona else -4.0
            noise = float(rng.normal(0.0, 0.3))
            a[u] = strong + noise if first_half else noise * 3.0
            b[u] = noise * 3.0 if first_half else strong + noise
        eer_a = _dev_eer_of(a, labels)
        eer_b = _dev_eer_of(b, labels)
        result = fuse_scores([a, b], labels)
        assert result.dev_eer <= min(eer_a, eer_b)

    def test_all_but_one_zero_weight_reproduces_survivor(self, rng):
        # The second system is the first scaled by -100, so every fused score
        # is one multiple of the survivor's: the fusion must rank the trials
        # exactly as the survivor does.
        ids = [f"u{i}" for i in range(30)]
        labels = {u: ("bonafide" if i % 2 else "spoof") for i, u in enumerate(ids)}
        good = {u: (3.0 if labels[u] == "bonafide" else -3.0) + float(rng.normal(0, 0.1))
                for u in ids}
        harmful = {u: -100.0 * s for u, s in good.items()}
        eval_good = {f"e{i}": float(rng.normal()) for i in range(10)}
        eval_harmful = {u: -100.0 * s for u, s in eval_good.items()}
        result = fuse_scores([good, harmful], labels, [eval_good, eval_harmful])
        assert np.isfinite(result.weights).all()
        assert result.dev_eer == _dev_eer_of(good, labels)
        fused = [result.fused_eval[u] for u in eval_good]
        assert np.argsort(fused).tolist() == np.argsort(list(eval_good.values())).tolist()

    def test_four_systems_beat_the_best_single_system(self, rng):
        # Independent noise, different units, and one system oriented the
        # wrong way round, which gets a negative weight.
        ids = [f"u{i}" for i in range(2000)]
        labels = {u: ("bonafide" if i % 2 else "spoof") for i, u in enumerate(ids)}
        truth = np.array([1.0 if labels[u] == "bonafide" else -1.0 for u in ids])
        systems = [dict(zip(ids, (unit * (gain * truth + rng.normal(size=truth.size))).tolist()))
                   for gain, unit in ((1.0, 1.0), (0.8, 30.0), (0.6, 0.01), (0.5, -2.0))]
        result = fuse_scores(systems, labels)
        assert result.dev_eer <= min(_dev_eer_of(s, labels) for s in systems)
        assert result.weights[3] < 0.0
        assert np.abs(result.weights).sum() == pytest.approx(1.0)

    def test_all_zero_dev_scores_give_equal_weights(self):
        ids = [f"u{i}" for i in range(6)]
        labels = {u: ("bonafide" if i % 2 else "spoof") for i, u in enumerate(ids)}
        zeros = dict.fromkeys(ids, 0.0)
        result = fuse_scores([zeros, dict(zeros)], labels, [{"e1": 1.0}, {"e1": 3.0}])
        assert result.weights.tolist() == [0.5, 0.5]
        assert result.fused_eval == {"e1": 2.0}
        assert result.dev_eer == 0.5

    def test_units_of_a_system_do_not_matter(self, rng):
        # Fitted in raw units, squares of 1e200 overflow and the informative
        # system ends up with weight 0.
        ids = [f"u{i}" for i in range(40)]
        labels = {u: ("bonafide" if i % 2 else "spoof") for i, u in enumerate(ids)}
        a = {u: (1.0 if labels[u] == "bonafide" else -1.0) + float(rng.normal()) for u in ids}
        b = {u: float(rng.normal()) for u in ids}
        huge = {u: 1e200 * s for u, s in a.items()}
        result = fuse_scores([huge, b], labels, [huge, b])
        assert np.isfinite(result.weights).all()
        assert np.isfinite(list(result.fused_eval.values())).all()
        assert result.dev_eer == fuse_scores([a, b], labels).dev_eer

    def test_id_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fuse_scores([{"a": 1.0}, {"b": 1.0}], {"a": "bonafide", "b": "spoof"})

    def test_missing_label_rejected(self):
        with pytest.raises(ValueError):
            fuse_scores([{"a": 1.0}], {"b": "spoof"})


def _dev_eer_of(scores, labels):
    bona = np.array([s for u, s in scores.items() if labels[u] == "bonafide"])
    spoof = np.array([s for u, s in scores.items() if labels[u] == "spoof"])
    return eer_from_scores(bona, spoof)[0]


class TestTextFormats:
    def test_protocol_round_trip(self, tmp_path):
        labels = {"u1": "bonafide", "u2": "spoof", "u3": "bonafide"}
        path = tmp_path / "p.txt"
        write_protocol(path, labels)
        assert read_protocol(path) == labels

    def test_crlf_and_lf_parse_identically(self, tmp_path):
        lf = tmp_path / "lf.txt"
        crlf = tmp_path / "crlf.txt"
        lf.write_bytes(b"u1 bonafide\nu2 spoof\n")
        crlf.write_bytes(b"u1 bonafide\r\nu2 spoof\r\n")
        assert read_protocol(lf) == read_protocol(crlf)

    def test_duplicate_id_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("u1 bonafide\nu1 spoof\n")
        with pytest.raises(ProtocolError) as err:
            read_protocol(path)
        assert err.value.line == 2

    def test_unknown_label_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("u1 genuine\n")
        with pytest.raises(ProtocolError):
            read_protocol(path)

    def test_wrong_field_count_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("u1 bonafide extra\n")
        with pytest.raises(ProtocolError) as err:
            read_protocol(path)
        assert err.value.line == 1

    def test_scores_round_trip_full_precision(self, tmp_path):
        scores = {"u1": 0.1 + 0.2, "u2": -1.2345678901234567e-12, "u3": 3.0}
        path = tmp_path / "s.txt"
        write_scores(path, scores)
        assert read_scores(path) == scores

    def test_bad_score_rejected(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("u1 not-a-number\n")
        with pytest.raises(ProtocolError):
            read_scores(path)

    def test_non_finite_score_rejected(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("u1 inf\n")
        with pytest.raises(ProtocolError):
            read_scores(path)

    def test_empty_protocol_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n\n")
        with pytest.raises(ProtocolError):
            read_protocol(path)

    def test_read_trials_joins_by_id(self, tmp_path):
        write_scores(tmp_path / "s.txt", {"a": 1.5, "b": -0.5, "d": 2.5})
        write_protocol(tmp_path / "p.txt", {"a": "bonafide", "b": "spoof", "c": "spoof",
                                            "d": "bonafide"})
        bona, spoof = read_trials(tmp_path / "s.txt", tmp_path / "p.txt")
        assert bona.tolist() == [1.5, 2.5] and spoof.tolist() == [-0.5]

    def test_read_trials_rejects_unlabeled_score(self, tmp_path):
        write_scores(tmp_path / "s.txt", {"a": 1.5, "zz": 0.0})
        write_protocol(tmp_path / "p.txt", {"a": "bonafide", "b": "spoof"})
        with pytest.raises(ProtocolError, match="'zz'"):
            read_trials(tmp_path / "s.txt", tmp_path / "p.txt")
