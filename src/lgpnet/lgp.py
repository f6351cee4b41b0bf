"""Log Gaussian probability (LGP) features.

A frame's LGP vector stacks its per-component log densities under a trained
GMM, so the feature width equals the mixture order.  Two forms exist:

* full:  y_i = log p_i(x)
* fast:  y_i = -1/2 sum_d x_d^2 / var_id + sum_d x_d mu_id / var_id

The fast form drops a per-component constant, which mean/variance
normalization over the training set cancels exactly, so both forms yield
the same normalized feature.  The command line fits fast-form statistics;
the full form stays as the reference the fast one is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensorio
from .errors import naming
from .gmm import Gmm, frame_chunks, pooled_mean_var

STD_FLOOR = 1e-8

_FORM_CODES = {"full": 0.0, "fast": 1.0}


@dataclass
class LgpNormStats:
    """Per-component mean/std of raw LGP values over the training frames."""

    mean: np.ndarray
    std: np.ndarray
    form: str

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std = np.asarray(self.std, dtype=np.float64)
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise ValueError("mean and std must be matching vectors")
        if not (np.isfinite(self.mean).all() and np.isfinite(self.std).all()):
            raise ValueError("LGP stats mean and std must be finite")
        if np.any(self.std <= 0.0):
            raise ValueError("std must be strictly positive (floored)")
        if self.form not in _FORM_CODES:
            raise ValueError(f"unknown LGP form {self.form!r}")

    @property
    def order(self) -> int:
        return self.mean.shape[0]

    def to_tensors(self) -> dict[str, np.ndarray]:
        return {
            "lgp_mean": self.mean,
            "lgp_std": self.std,
            "form": np.array([_FORM_CODES[self.form]]),
        }

    @classmethod
    def from_tensors(cls, tensors: dict[str, np.ndarray]) -> "LgpNormStats":
        try:
            mean = tensors["lgp_mean"]
            std = tensors["lgp_std"]
            form = tensors["form"]
        except KeyError as exc:
            raise ValueError(f"stats checkpoint is missing tensor {exc}") from exc
        if form.shape != (1,):
            raise ValueError(f"stats tensor 'form' has shape {form.shape}, expected (1,)")
        code = float(form[0])
        for name, value in _FORM_CODES.items():
            if code == value:
                return cls(mean, std, name)
        raise ValueError(f"unknown form code {code!r}")

    def save(self, path) -> None:
        tensorio.save_tensors(path, self.to_tensors())

    @classmethod
    def load(cls, path) -> "LgpNormStats":
        with naming(path):
            return cls.from_tensors(tensorio.load_tensors(path))


def lgp_frames_full(gmm: Gmm, frames: np.ndarray) -> np.ndarray:
    """Raw full-form LGP rows for each frame; shape (T, M)."""
    return gmm.component_log_densities(frames)


def lgp_frames_fast(gmm: Gmm, frames: np.ndarray) -> np.ndarray:
    """Raw fast-form LGP rows; differs from the full form by a constant per component."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] != gmm.dim:
        raise ValueError(f"frames have shape {frames.shape}, expected (T, {gmm.dim})")
    return -0.5 * (frames * frames) @ gmm.inv_var_t + frames @ gmm.scaled_means_t


_RAW_FORMS = {"full": lgp_frames_full, "fast": lgp_frames_fast}


def fit_norm_stats(gmm: Gmm, frames: np.ndarray, form: str) -> LgpNormStats:
    """Population mean/std of raw LGP values over pooled training frames.

    ``frames`` is the concatenation of every training utterance, (N, D).
    The raw values are made and reduced one :func:`~lgpnet.gmm.frame_chunks`
    block at a time, so no (N, M) array exists.  Standard deviations are
    floored at ``STD_FLOOR`` so degenerate components cannot produce
    non-finite features.
    """
    if form not in _RAW_FORMS:
        raise ValueError(f"unknown LGP form {form!r}")
    frames = np.asarray(frames)
    if frames.ndim != 2 or frames.shape[0] < 2:
        raise ValueError("need at least two training frames")
    if frames.shape[1] != gmm.dim:
        raise ValueError(f"frames have shape {frames.shape}, expected (N, {gmm.dim})")
    raw_form = _RAW_FORMS[form]
    mean, var = pooled_mean_var(raw_form(gmm, x) for _, x in frame_chunks(frames, gmm.order))
    std = np.maximum(np.sqrt(var), STD_FLOOR)   # population convention (divide by N)
    return LgpNormStats(mean=mean, std=std, form=form)


def extract_lgp(gmm: Gmm, stats: LgpNormStats, frames: np.ndarray) -> np.ndarray:
    """Normalized LGP feature map for one utterance; shape (M, T).

    ``stats`` must come from the same GMM; the component count is checked,
    and the raw form is the one the stats were fitted with.
    """
    if stats.order != gmm.order:
        raise ValueError(
            f"stats cover {stats.order} components but the GMM has {gmm.order}"
        )
    raw = _RAW_FORMS[stats.form](gmm, frames)      # (T, M)
    return ((raw - stats.mean[None, :]) / stats.std[None, :]).T
