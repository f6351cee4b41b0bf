"""Diagonal-covariance Gaussian mixture models.

Covers EM training on pooled feature frames, per-component log densities,
utterance log-likelihoods, and the two-model log-likelihood-ratio score
used as the classical spoofing-detection baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensorio

LOG_2PI = np.log(2.0 * np.pi)

# EM floors every variance at this factor times the global per-dimension variance.
VARIANCE_FLOOR_FACTOR = 1e-3


@dataclass
class EmConfig:
    """Knobs for EM training."""

    iterations: int = 30
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")


class Gmm:
    """Mixture of ``M`` axis-aligned Gaussians over ``D``-dimensional frames.

    Scoring constants (log weights and the per-component log normalizer
    ``-D/2 log 2pi - 1/2 sum_d log var``) are cached at construction and kept
    consistent with the parameters.
    """

    def __init__(self, weights: np.ndarray, means: np.ndarray, variances: np.ndarray):
        weights = np.asarray(weights, dtype=np.float64)
        means = np.asarray(means, dtype=np.float64)
        variances = np.asarray(variances, dtype=np.float64)
        if means.ndim != 2 or variances.shape != means.shape:
            raise ValueError("means and variances must both be (M, D)")
        if weights.shape != (means.shape[0],):
            raise ValueError("weights must be (M,)")
        if not all(np.isfinite(a).all() for a in (weights, means, variances)):
            raise ValueError("GMM weights, means and variances must be finite")
        if np.any(weights < 0.0):
            raise ValueError("weights must be non-negative")
        if abs(weights.sum() - 1.0) > 1e-10:
            raise ValueError(f"weights sum to {weights.sum()!r}, expected 1")
        if np.any(variances <= 0.0):
            raise ValueError("variances must be strictly positive")
        self.weights = weights
        self.means = means
        self.variances = variances
        self._refresh_cache()

    def _refresh_cache(self) -> None:
        with np.errstate(divide="ignore"):
            self.log_weights = np.where(self.weights > 0.0, np.log(self.weights), -np.inf)
        self.log_norm = -0.5 * (self.dim * LOG_2PI + np.log(self.variances).sum(axis=1))
        self._inv_var = 1.0 / self.variances

    @property
    def order(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    # -- densities ---------------------------------------------------------

    def component_log_densities(self, frames: np.ndarray) -> np.ndarray:
        """log p_i(x_t) for all frames and components (mixture weights
        excluded); shape (T, M).

        Expanding the Mahalanobis term keeps this a few matrix products:
        sum_d (x-mu)^2 / var = sum x^2/var - 2 sum x mu/var + sum mu^2/var.
        """
        frames = np.asarray(frames, dtype=np.float64)
        if frames.ndim != 2 or frames.shape[1] != self.dim:
            raise ValueError(f"frames have shape {frames.shape}, expected (T, {self.dim})")
        quad = (
            (frames * frames) @ self._inv_var.T
            - 2.0 * frames @ (self.means * self._inv_var).T
            + (self.means * self.means * self._inv_var).sum(axis=1)[None, :]
        )
        return self.log_norm[None, :] - 0.5 * quad

    def frame_log_likelihoods(self, frames: np.ndarray) -> np.ndarray:
        """Per-frame mixture log density log sum_i w_i p_i(x_t); shape (T,)."""
        weighted = self.component_log_densities(frames) + self.log_weights[None, :]
        return logsumexp(weighted, axis=1)

    def utterance_log_likelihood(self, frames: np.ndarray) -> float:
        """Sum of per-frame mixture log densities (frames treated as independent).

        The per-frame values are summed in sorted order, which makes the
        result exactly invariant to frame permutations instead of merely
        invariant up to rounding.
        """
        frames = np.asarray(frames, dtype=np.float64)
        if frames.ndim != 2 or frames.shape[0] == 0:
            raise ValueError("utterance must be a non-empty (T, D) matrix")
        return float(np.sort(self.frame_log_likelihoods(frames)).sum())

    # -- persistence ---------------------------------------------------------

    def to_tensors(self) -> dict[str, np.ndarray]:
        return {"weights": self.weights, "means": self.means, "vars": self.variances}

    @classmethod
    def from_tensors(cls, tensors: dict[str, np.ndarray]) -> "Gmm":
        try:
            w = np.asarray(tensors["weights"], dtype=np.float64)
            mu = tensors["means"]
            var = tensors["vars"]
        except KeyError as exc:
            raise ValueError(f"GMM checkpoint is missing tensor {exc}") from exc
        # float32 storage perturbs the weight sum; renormalize within tolerance
        total = w.sum()
        if abs(total - 1.0) > 1e-3:
            raise ValueError(f"stored weights sum to {total!r}")
        return cls(w / total, mu, var)

    def save(self, path) -> None:
        tensorio.save_tensors(path, self.to_tensors())

    @classmethod
    def load(cls, path) -> "Gmm":
        tensors = tensorio.load_tensors(path)
        try:
            return cls.from_tensors(tensors)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    def fingerprint(self) -> bytes:
        return tensorio.fingerprint(self.to_tensors())


def logsumexp(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Overflow-safe log(sum(exp(a))) along ``axis``."""
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.exp(a - m).sum(axis=axis)) + np.squeeze(m, axis=axis)
    return out


def llr_score(gmm_genuine: Gmm, gmm_spoof: Gmm, frames: np.ndarray) -> float:
    """Baseline detection score log p(X|genuine) - log p(X|spoof)."""
    if gmm_genuine.dim != gmm_spoof.dim:
        raise ValueError("models disagree on feature dimension")
    return gmm_genuine.utterance_log_likelihood(frames) - gmm_spoof.utterance_log_likelihood(frames)


def _kmeanspp_means(frames: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++-style seeding: spread initial means over the data."""
    n = frames.shape[0]
    chosen = np.empty((m, frames.shape[1]))
    chosen[0] = frames[rng.integers(n)]
    d2 = ((frames - chosen[0]) ** 2).sum(axis=1)
    for j in range(1, m):
        total = d2.sum()
        if total <= 0.0:
            chosen[j] = frames[rng.integers(n)]
            continue
        chosen[j] = frames[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((frames - chosen[j]) ** 2).sum(axis=1))
    return chosen


def train_em(frames: np.ndarray, m: int, cfg: EmConfig | None = None) -> tuple[Gmm, np.ndarray]:
    """Fit an ``m``-component diagonal GMM to pooled frames by EM.

    Returns the model and the per-iteration average log-likelihood trace
    (one entry per iteration, evaluated under the parameters entering that
    iteration, plus a final entry for the returned model).  The trace is
    non-decreasing up to the variance floor and degenerate-component
    reseeding, both of which only trigger on pathological data.
    """
    cfg = cfg or EmConfig()
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2:
        raise ValueError("frames must be a (N, D) matrix")
    n, d = frames.shape
    if m < 1:
        raise ValueError("component count must be >= 1")
    if n < m:
        raise ValueError(f"{n} frames cannot support {m} components")

    rng = np.random.default_rng(cfg.seed)
    global_var = frames.var(axis=0)
    floor = np.maximum(VARIANCE_FLOOR_FACTOR * global_var, 1e-12)

    means = _kmeanspp_means(frames, m, rng)
    weights = np.full(m, 1.0 / m)
    variances = np.maximum(np.tile(global_var, (m, 1)), floor)
    model = Gmm(weights, means, variances)

    trace = np.empty(cfg.iterations + 1)
    for it in range(cfg.iterations):
        # E-step
        weighted = model.component_log_densities(frames) + model.log_weights[None, :]
        frame_ll = logsumexp(weighted, axis=1)
        trace[it] = frame_ll.mean()
        resp = np.exp(weighted - frame_ll[:, None])          # (N, M)

        # M-step
        counts = resp.sum(axis=0)                            # (M,)
        dead = counts < 1e-10
        safe = np.where(dead, 1.0, counts)
        means = (resp.T @ frames) / safe[:, None]
        variances = (resp.T @ (frames * frames)) / safe[:, None] - means * means
        weights = counts / n

        if dead.any():
            # Reseed each starved component on the worst-scored frame.
            worst = np.argsort(frame_ll)
            for rank, i in enumerate(np.flatnonzero(dead)):
                means[i] = frames[worst[rank % n]]
                variances[i] = global_var
                weights[i] = 1.0 / n
            weights /= weights.sum()

        variances = np.maximum(variances, floor)
        model = Gmm(weights, means, variances)

    trace[-1] = model.frame_log_likelihoods(frames).mean()
    return model, trace
