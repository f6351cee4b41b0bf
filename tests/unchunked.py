"""Unchunked float64 reference formulas: the oracle for the chunked passes.

These are the GMM-stage formulas as they stood before EM, its seeding and
the LGP statistics were computed block by block, and before the per-frame
kernel worked in place over cache-sized row blocks: every pass holds whole
(N, M) and (N, D) float64 arrays, and the log densities and their
log-sum-exp are the plain expressions.  Tests compare the library against
them bit for bit below one block, and within recorded bounds above it.
"""

import numpy as np

from lgpnet.gmm import VARIANCE_FLOOR_FACTOR, EmConfig, Gmm
from lgpnet.lgp import STD_FLOOR, LgpNormStats, lgp_frames_fast, lgp_frames_full


def component_log_densities(gmm, frames):
    """log p_i(x_t), (T, M), with the Mahalanobis term expanded and every
    constant computed on the spot."""
    frames = np.asarray(frames, dtype=np.float64)
    inv_var = 1.0 / gmm.variances
    quad = (
        (frames * frames) @ inv_var.T
        - 2.0 * frames @ (gmm.means * inv_var).T
        + (gmm.means * gmm.means * inv_var).sum(axis=1)[None, :]
    )
    return gmm.log_norm[None, :] - 0.5 * quad


def logsumexp(a, axis=-1):
    """Overflow-safe log(sum(exp(a))) along ``axis``."""
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.exp(a - m).sum(axis=axis)) + np.squeeze(m, axis=axis)
    return out


def frame_log_likelihoods(gmm, frames):
    weighted = component_log_densities(gmm, frames) + gmm.log_weights[None, :]
    return logsumexp(weighted, axis=1)


def kmeanspp_means(frames, m, rng):
    """k-means++ seeding with the direct squared distance ||x - c||^2."""
    frames = np.asarray(frames, dtype=np.float64)
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


def em_step(model, frames, global_var, floor):
    """One EM iteration over the whole (N, M) responsibility matrix."""
    frames = np.asarray(frames, dtype=np.float64)
    n = frames.shape[0]
    weighted = component_log_densities(model, frames) + model.log_weights[None, :]
    frame_ll = logsumexp(weighted, axis=1)
    resp = np.exp(weighted - frame_ll[:, None])

    counts = resp.sum(axis=0)
    dead = counts < 1e-10
    safe = np.where(dead, 1.0, counts)
    means = (resp.T @ frames) / safe[:, None]
    variances = (resp.T @ (frames * frames)) / safe[:, None] - means * means
    weights = counts / n

    if dead.any():
        worst = np.argsort(frame_ll)
        for rank, i in enumerate(np.flatnonzero(dead)):
            means[i] = frames[worst[rank % n]]
            variances[i] = global_var
            weights[i] = 1.0 / n
        weights /= weights.sum()

    variances = np.maximum(variances, floor)
    return Gmm(weights, means, variances), frame_ll.mean()


def em_start(frames, m, seed):
    """The global variance, the variance floor and the initial model."""
    frames = np.asarray(frames, dtype=np.float64)
    rng = np.random.default_rng(seed)
    global_var = frames.var(axis=0)
    floor = np.maximum(VARIANCE_FLOOR_FACTOR * global_var, 1e-12)
    means = kmeanspp_means(frames, m, rng)
    variances = np.maximum(np.tile(global_var, (m, 1)), floor)
    return global_var, floor, Gmm(np.full(m, 1.0 / m), means, variances)


def train_em(frames, m, cfg=None):
    cfg = cfg or EmConfig()
    frames = np.asarray(frames, dtype=np.float64)
    global_var, floor, model = em_start(frames, m, cfg.seed)
    trace = np.empty(cfg.iterations + 1)
    for it in range(cfg.iterations):
        model, trace[it] = em_step(model, frames, global_var, floor)
    trace[-1] = frame_log_likelihoods(model, frames).mean()
    return model, trace


def fit_norm_stats(gmm, frames, form):
    """Mean and std of the whole (N, M) raw LGP matrix."""
    frames = np.asarray(frames, dtype=np.float64)
    raw = {"full": lgp_frames_full, "fast": lgp_frames_fast}[form](gmm, frames)
    return LgpNormStats(mean=raw.mean(axis=0),
                        std=np.maximum(raw.std(axis=0), STD_FLOOR), form=form)
