"""Diagonal-covariance Gaussian mixture models.

Covers EM training on pooled feature frames, per-component log densities,
utterance log-likelihoods, and the two-model log-likelihood-ratio score
used as the classical spoofing-detection baseline.

Every per-frame pass (scoring, the EM E-step, EM's final trace entry) runs
one kernel over cache-sized row blocks: two matrix products against the
cached terms (-1/2 folded in) and in-place sums for the log densities, then
a log-sum-exp whose exp is floored at ``EXP_FLOOR`` so NumPy never takes its
slow path for subnormal or underflowing results.  It gives the bits of the
plain formulas (kept in ``tests/unchunked.py``) wherever BLAS rounds a row
of a matrix product the same way whatever block holds it, and no E-step
sum of r x cancels to near 0 (see ``_exp_in_place``).

An utterance is scored on its own frames, so its score does not
depend on the utterances scored around it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensorio
from .errors import naming

LOG_2PI = np.log(2.0 * np.pi)

# EM floors every variance at this factor times the global per-dimension variance.
VARIANCE_FLOOR_FACTOR = 1e-3

# Passes over pooled frames (EM, its seeding, the LGP statistics) take the
# frames in consecutive blocks of at most this many values per (rows, M)
# block, M the mixture order (or the frame width D, if wider), so their
# working memory does not grow with the number of frames: 2,048 frames at
# M = 512.
CHUNK_VALUES = 1 << 20

# The per-frame kernel takes the rows of its input in near-equal blocks of at
# most this many values per (rows, M) block, so its scratch stays in cache:
# 128 frames at M = 512.
ROW_BLOCK_VALUES = 1 << 16

# NumPy computes float64 exp on a slow path where the result is subnormal or
# underflows to 0 (arguments below about -708.4, -inf included).  The kernel
# raises its exp arguments to this floor first; exp(-700) ~ 9.9e-305 is a
# normal double (see _exp_in_place for why the bits stay those of plain exp).
EXP_FLOOR = -700.0


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

    Scoring constants (log weights, the per-component log normalizer
    ``-D/2 log 2pi - 1/2 sum_d log var`` and the terms of the expanded
    Mahalanobis distance with its -1/2 folded in: ``half_inv_var_t`` =
    (-1/2 / var)^T, ``scaled_means_t`` = (mu/var)^T and ``half_mean_quad``
    = -1/2 sum_d mu^2/var) are cached at construction and kept consistent
    with the parameters.
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
            raise ValueError(f"weights sum to {float(weights.sum())!r}, expected 1")
        if np.any(variances <= 0.0):
            raise ValueError("variances must be strictly positive")
        self.weights = weights
        self.means = means
        self.variances = variances
        with np.errstate(divide="ignore"):
            self.log_weights = np.where(self.weights > 0.0, np.log(self.weights), -np.inf)
        self.log_norm = -0.5 * (self.dim * LOG_2PI + np.log(self.variances).sum(axis=1))
        inv_var = 1.0 / self.variances
        # transposed views, laid out as the uncached products were
        self.half_inv_var_t = (-0.5 * inv_var).T
        self.scaled_means_t = (self.means * inv_var).T
        self.half_mean_quad = -0.5 * (self.means * self.means * inv_var).sum(axis=1)

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

        Expanding the Mahalanobis term keeps this two matrix products:
        sum_d (x-mu)^2 / var = sum x^2/var - 2 sum x mu/var + sum mu^2/var.
        The -1/2 is folded into the cached terms and the rest is done in
        place on the first product.  Scaling by -1/2 or 2 is exact (barring
        subnormals), so every product and sum is -1/2 times the unscaled
        one, and this is ``log_norm - 0.5 * quad`` bit for bit.
        """
        out = self.frame_terms(frames)
        out += self.half_mean_quad
        out += self.log_norm
        return out

    def frame_terms(self, frames: np.ndarray) -> np.ndarray:
        """The frame-dependent terms of ``component_log_densities``, the two
        products -1/2 sum_d x^2/var + sum_d x mu/var; shape (T, M)."""
        frames = self._checked(frames)
        out = (frames * frames) @ self.half_inv_var_t
        out += frames @ self.scaled_means_t
        return out

    def frame_log_likelihoods(self, frames: np.ndarray) -> np.ndarray:
        """Per-frame mixture log density log sum_i w_i p_i(x_t); shape (T,).

        Taken in :func:`_row_blocks`, so the (rows, M) scratch stays in cache.
        """
        frames = self._checked(frames)
        out = np.empty(frames.shape[0])
        for rows in _row_blocks(frames.shape[0], self):
            weighted = self.component_log_densities(frames[rows])
            weighted += self.log_weights
            out[rows] = logsumexp(weighted)
        return out

    def utterance_log_likelihood(self, frames: np.ndarray) -> float:
        """Sum of per-frame mixture log densities (frames treated as independent).

        The per-frame values are summed in sorted order, which makes the
        result exactly invariant to frame permutations instead of merely
        invariant up to rounding.
        """
        frames = np.asarray(frames)
        if frames.ndim != 2 or frames.shape[0] == 0:
            raise ValueError("utterance must be a non-empty (T, D) matrix")
        return float(np.sort(self.frame_log_likelihoods(frames)).sum())

    def _checked(self, frames) -> np.ndarray:
        frames = np.asarray(frames, dtype=np.float64)
        if frames.ndim != 2 or frames.shape[1] != self.dim:
            raise ValueError(f"frames have shape {frames.shape}, expected (T, {self.dim})")
        return frames

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
            raise ValueError(f"stored weights sum to {float(total)!r}")
        return cls(w / total, mu, var)

    def save(self, path) -> None:
        tensorio.save_tensors(path, self.to_tensors())

    @classmethod
    def load(cls, path) -> "Gmm":
        with naming(path):
            return cls.from_tensors(tensorio.load_tensors(path))


def logsumexp(a: np.ndarray) -> np.ndarray:
    """Overflow-safe log(sum(exp(a))) of each row of the (T, M) ``a``.

    The exp is :func:`_exp_in_place`'s floored one.  A row that is all
    -inf would sum floors alone, so its result is set to -inf.
    """
    m = np.max(a, axis=1)
    all_neg_inf = m == -np.inf
    m = np.where(np.isfinite(m), m, 0.0)
    shifted = a - m[:, None]
    _exp_in_place(shifted)
    out = np.log(shifted.sum(axis=1)) + m
    return np.where(all_neg_inf, -np.inf, out)


def _exp_in_place(a: np.ndarray) -> None:
    """``a = exp(max(a, EXP_FLOOR))``.

    The floor keeps every result a normal double, so NumPy's exp stays on
    its fast path.  Each floored value is at most 9.9e-305 above the plain
    exp.  A sum of 1 or more absorbs that: every log-sum-exp line holds
    exp(0) = 1, so its bits are those of the plain exp.  So does a live
    component's count, 1e-10 or more; a dead component is reseeded either
    way.  The E-step's sums of r x and r x^2 over N frames keep their bits
    unless they come to within about N max|x| 1e-288 of 0: where a
    component's live frames all hold x_d = 0, say, the plain exp gives a
    mean of exactly 0 and the floored one a tiny nonzero mean.
    """
    np.maximum(a, EXP_FLOOR, out=a)
    np.exp(a, out=a)


def _row_blocks(n: int, model: Gmm) -> list[slice]:
    """``range(n)`` as the fewest consecutive slices of at most
    ``ROW_BLOCK_VALUES // max(M, D)`` rows, of near-equal length (one empty
    slice if ``n`` is 0).

    No block is much shorter than the rest, so no row of a longer input
    lands in a one-row block: NumPy takes the product of a one-row matrix
    as a matrix-vector product, which rounds differently.
    """
    count = max(1, -(-n // max(1, ROW_BLOCK_VALUES // max(model.order, model.dim))))
    bounds = [n * i // count for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def llr_score(gmm_genuine: Gmm, gmm_spoof: Gmm, frames: np.ndarray) -> float:
    """Baseline detection score log p(X|genuine) - log p(X|spoof)."""
    if gmm_genuine.dim != gmm_spoof.dim:
        raise ValueError("models disagree on feature dimension")
    return gmm_genuine.utterance_log_likelihood(frames) - gmm_spoof.utterance_log_likelihood(frames)


def _chunk_slices(frames: np.ndarray, order: int) -> list[slice]:
    """The rows of each :func:`frame_chunks` block, the largest first."""
    n, d = frames.shape
    step = max(1, CHUNK_VALUES // max(order, d))
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def frame_chunks(frames: np.ndarray, order: int):
    """The rows of ``frames`` as consecutive float64 blocks, in order.

    Yields ``(rows, block)``: the slice of ``frames`` and its float64 cast.
    A block has at most ``CHUNK_VALUES // max(order, D)`` rows (at least
    one), so a pass that makes a few (rows, order) arrays per block holds
    O(CHUNK_VALUES) values however many frames there are.
    """
    for rows in _chunk_slices(frames, order):
        yield rows, np.asarray(frames[rows], dtype=np.float64)


def pooled_mean_var(blocks) -> tuple[np.ndarray, np.ndarray]:
    """Population mean and variance of the rows of all ``blocks`` together.

    One pass: each block's mean and sum of squared deviations are merged
    into the running ones in block order by the pairwise update of Chan,
    Golub & LeVeque (1979).  A single block gives exactly ``x.mean(axis=0)``
    and ``x.var(axis=0)``.
    """
    count = 0
    for x in blocks:
        rows = x.shape[0]
        block_mean = x.mean(axis=0)
        block_m2 = ((x - block_mean) ** 2).sum(axis=0)
        if count == 0:
            mean, m2 = block_mean, block_m2
        else:
            delta = block_mean - mean
            total = count + rows
            mean = mean + delta * (rows / total)
            m2 = m2 + block_m2 + delta * delta * (count * rows / total)
        count += rows
        del x                     # free this block before the next one is made
    return mean, m2 / count


def _kmeanspp_means(frames: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++-style seeding: spread initial means over the data.

    The squared distance to a new mean c is ||x||^2 - 2 x.c + ||c||^2,
    clamped at 0, taken block by block.  If the frames hold at most
    ``CHUNK_VALUES`` values, the float64 cast of each :func:`frame_chunks`
    block is held for all M + 1 passes; otherwise each pass copies the
    blocks into one float64 buffer, so working memory stays O(CHUNK_VALUES).
    Either way the blocks and their shapes are the same, and so are the bits.
    """
    n = frames.shape[0]
    if frames.size <= CHUNK_VALUES:
        held = list(frame_chunks(frames, m))

        def blocks():
            return held
    else:
        chunks = _chunk_slices(frames, m)
        buffer = np.empty((chunks[0].stop, frames.shape[1]))

        def blocks():
            for rows in chunks:
                x = buffer[: rows.stop - rows.start]
                x[...] = frames[rows]
                yield rows, x

    sq_norms = np.empty(n)
    for rows, x in blocks():
        sq_norms[rows] = np.einsum("ij,ij->i", x, x)
    chosen = np.empty((m, frames.shape[1]))
    d2 = np.full(n, np.inf)
    pick = rng.integers(n)
    for j in range(m):
        if j:
            total = d2.sum()
            pick = rng.integers(n) if total <= 0.0 else rng.choice(n, p=d2 / total)
        chosen[j] = frames[pick]
        c = chosen[j]
        c_norm = c @ c
        for rows, x in blocks():
            dist = sq_norms[rows] - 2.0 * (x @ c) + c_norm
            np.minimum(d2[rows], np.maximum(dist, 0.0), out=d2[rows])
    return chosen


def train_em(frames: np.ndarray, m: int, cfg: EmConfig | None = None) -> tuple[Gmm, np.ndarray]:
    """Fit an ``m``-component diagonal GMM to pooled frames by EM.

    Returns the model and the per-iteration average log-likelihood trace
    (one entry per iteration, evaluated under the parameters entering that
    iteration, plus a final entry for the returned model).  The trace is
    non-decreasing up to the variance floor and degenerate-component
    reseeding, both of which only trigger on pathological data.

    Every pass walks the frames in :func:`frame_chunks` blocks, so the
    working memory is O(CHUNK_VALUES) plus a few (N,) vectors; a corpus
    that fits in one block gives the same bits as the unchunked formulas.
    """
    cfg = cfg or EmConfig()
    frames = np.asarray(frames)
    if frames.ndim != 2:
        raise ValueError("frames must be a (N, D) matrix")
    n = frames.shape[0]
    if m < 1:
        raise ValueError("component count must be >= 1")
    if n < m:
        raise ValueError(f"{n} frames cannot support {m} components")

    rng = np.random.default_rng(cfg.seed)
    _, global_var = pooled_mean_var(x for _, x in frame_chunks(frames, m))
    floor = np.maximum(VARIANCE_FLOOR_FACTOR * global_var, 1e-12)

    means = _kmeanspp_means(frames, m, rng)
    weights = np.full(m, 1.0 / m)
    variances = np.maximum(np.tile(global_var, (m, 1)), floor)
    model = Gmm(weights, means, variances)

    trace = np.empty(cfg.iterations + 1)
    for it in range(cfg.iterations):
        model, trace[it] = _em_step(model, frames, global_var, floor)

    frame_ll = np.empty(n)
    for rows, x in frame_chunks(frames, m):
        frame_ll[rows] = model.frame_log_likelihoods(x)
    trace[-1] = frame_ll.mean()
    return model, trace


def _em_step(model: Gmm, frames: np.ndarray, global_var: np.ndarray,
             floor: np.ndarray) -> tuple[Gmm, float]:
    """One EM iteration: the next model and the average log-likelihood
    under ``model``.

    The E-step sums the sufficient statistics (counts, sum r x, sum r x^2)
    block by block into zeros; only the (N,) per-frame log-likelihoods are
    kept whole, for reseeding starved components.  Each block's (rows, M)
    responsibilities are filled :func:`_row_blocks` sub-block by sub-block
    and summed whole, so the sums run in the order of the plain formulas.
    """
    n, d = frames.shape
    m = model.order
    frame_ll = np.empty(n)
    counts = np.zeros(m)
    sum_x = np.zeros((m, d))
    sum_xx = np.zeros((m, d))
    for rows, x in frame_chunks(frames, m):
        resp = np.empty((x.shape[0], m))
        ll = frame_ll[rows]
        for sub in _row_blocks(x.shape[0], model):
            weighted = model.component_log_densities(x[sub])
            weighted += model.log_weights
            ll[sub] = logsumexp(weighted)
            np.subtract(weighted, ll[sub, None], out=resp[sub])
            _exp_in_place(resp[sub])
        counts += resp.sum(axis=0)
        sum_x += resp.T @ x
        sum_xx += resp.T @ (x * x)
        del resp                  # free this block's (rows, M) array before the next

    dead = counts < 1e-10
    safe = np.where(dead, 1.0, counts)
    means = sum_x / safe[:, None]
    variances = sum_xx / safe[:, None] - means * means
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
    return Gmm(weights, means, variances), frame_ll.mean()
