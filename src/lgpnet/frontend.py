"""Acoustic front end: WAV ingestion, LFCC extraction, feature files.

A feature file (``.lgpf``) is a tensor container (see ``tensorio``) that
holds exactly one rank-2 tensor named ``features``: (T, D) frames.
Precomputed features from other extractors (e.g. constant-Q cepstra) enter
the pipeline through it; only LFCC is computed here.
"""

from __future__ import annotations

import functools
import wave
from dataclasses import dataclass

import numpy as np

from . import tensorio
from .errors import FormatError, naming

_LOG_FLOOR = 1e-20

# LFCC settings of the common anti-spoofing baseline: 20 ms Hamming windows
# with a 10 ms hop, a 512-point FFT, 20 linear triangular filters, 20
# cepstra, and delta streams over +/- 2 frames.
LFCC_WINDOW_MS = 20.0
LFCC_HOP_MS = 10.0
LFCC_N_FFT = 512
LFCC_FILTERS = 20
LFCC_COEFFS = 20
LFCC_DELTA_WINDOW = 2


@dataclass
class Waveform:
    samples: np.ndarray           # float64 in [-1, 1]
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.sample_rate <= 0:
            raise ValueError("sample rate must be positive")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("waveform contains non-finite samples")


def read_wav(path) -> Waveform:
    """Read a mono 16-bit PCM WAV file.  Anything else, or data shorter than
    the header says, is a FormatError naming the file."""
    with naming(path):
        try:
            with wave.open(str(path), "rb") as fh:
                if fh.getnchannels() != 1:
                    raise FormatError(f"expected mono audio, got {fh.getnchannels()} channels")
                if fh.getsampwidth() != 2:
                    raise FormatError(f"expected 16-bit PCM, got {8 * fh.getsampwidth()}-bit")
                frames = fh.getnframes()
                raw = fh.readframes(frames)
                if len(raw) != 2 * frames:
                    raise FormatError(f"header says {2 * frames} bytes of samples, "
                                      f"data holds {len(raw)}")
                samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
                return Waveform(samples=samples, sample_rate=fh.getframerate())
        except (wave.Error, EOFError) as exc:
            raise FormatError(f"not a WAV file: {str(exc) or 'truncated header'}") from None


def linear_filterbank(n_filters: int, n_fft: int, sample_rate: float) -> np.ndarray:
    """Triangular filters with linearly spaced edges; shape (n_filters, n_fft//2 + 1).

    Edges run from 0 to Nyquist; consecutive triangles share edges and
    peak at 1, so interior frequency bins see filter weights summing to
    roughly 1 (partition of unity inside the passband).
    """
    n_bins = n_fft // 2 + 1
    edges_hz = np.linspace(0.0, sample_rate / 2.0, n_filters + 2)
    bin_hz = np.linspace(0.0, sample_rate / 2.0, n_bins)
    fbank = np.zeros((n_filters, n_bins))
    for i in range(n_filters):
        lo, center, hi = edges_hz[i], edges_hz[i + 1], edges_hz[i + 2]
        rising = (bin_hz - lo) / (center - lo)
        falling = (hi - bin_hz) / (hi - center)
        fbank[i] = np.clip(np.minimum(rising, falling), 0.0, 1.0)
    return fbank


def _dct2_orthonormal(n: int) -> np.ndarray:
    k = np.arange(n)[:, None]
    t = np.arange(n)[None, :]
    mat = np.cos(np.pi * k * (2 * t + 1) / (2 * n)) * np.sqrt(2.0 / n)
    mat[0] /= np.sqrt(2.0)
    return mat


def _deltas(feats: np.ndarray, window: int) -> np.ndarray:
    """Regression deltas over +/- window frames, edges replicated."""
    t = feats.shape[0]
    padded = np.concatenate(
        [np.repeat(feats[:1], window, axis=0), feats, np.repeat(feats[-1:], window, axis=0)]
    )
    denom = 2.0 * sum(w * w for w in range(1, window + 1))
    out = np.zeros_like(feats)
    for w in range(1, window + 1):
        out += w * (padded[window + w : window + w + t] - padded[window - w : window - w + t])
    return out / denom


def extract_lfcc(wav: Waveform) -> np.ndarray:
    """LFCC feature matrix (T, 3 * LFCC_COEFFS): static, delta, delta-delta.

    Pipeline: Hamming-windowed power spectrum -> linear triangular
    filterbank -> log -> orthonormal DCT-II -> first ``LFCC_COEFFS`` terms,
    with the delta and delta-delta streams appended.
    """
    win = int(round(LFCC_WINDOW_MS * wav.sample_rate / 1000.0))
    hop = int(round(LFCC_HOP_MS * wav.sample_rate / 1000.0))
    if win < 1 or hop < 1:
        raise ValueError("window/hop too short for this sample rate")
    if LFCC_N_FFT < win:
        raise ValueError(f"FFT size {LFCC_N_FFT} shorter than the {win}-sample window")
    n = wav.samples.shape[0]
    if n < win:
        raise ValueError(f"waveform has {n} samples, needs at least one {win}-sample window")

    n_frames = 1 + (n - win) // hop
    window, fbank, dct = _lfcc_matrices(wav.sample_rate, win)
    idx = np.arange(win)[None, :] + hop * np.arange(n_frames)[:, None]
    frames = wav.samples[idx] * window[None, :]
    spectrum = np.abs(np.fft.rfft(frames, n=LFCC_N_FFT, axis=1)) ** 2

    energies = np.log(np.maximum(spectrum @ fbank.T, _LOG_FLOOR))
    ceps = energies @ dct.T
    d1 = _deltas(ceps, LFCC_DELTA_WINDOW)
    d2 = _deltas(d1, LFCC_DELTA_WINDOW)
    return np.concatenate([ceps, d1, d2], axis=1)


@functools.cache
def _lfcc_matrices(sample_rate: int, win: int):
    """The Hamming window, filterbank and DCT of ``extract_lfcc`` at one
    sample rate, made once and read-only."""
    mats = (np.hamming(win), linear_filterbank(LFCC_FILTERS, LFCC_N_FFT, sample_rate),
            _dct2_orthonormal(LFCC_FILTERS)[:LFCC_COEFFS])
    for mat in mats:
        mat.setflags(write=False)
    return mats


def fix_length(feats: np.ndarray, target_t: int) -> np.ndarray:
    """Condition an utterance to exactly ``target_t`` frames.

    Longer inputs keep their first ``target_t`` frames; shorter ones are
    tiled cyclically and cut.  Every output frame is a copy of some input
    frame.
    """
    feats = np.asarray(feats)
    if feats.ndim != 2 or feats.shape[0] == 0:
        raise ValueError("features must be a non-empty (T, D) matrix")
    if target_t < 1:
        raise ValueError("target length must be >= 1")
    return feats[np.arange(target_t) % feats.shape[0]]


def store_features(path, feats: np.ndarray) -> None:
    """Write a feature matrix as the one tensor ``features`` (stored as f32);
    one that is not finite as float32 is a ValueError, and writes no file."""
    feats = np.asarray(feats)
    if feats.ndim != 2:
        raise ValueError("features must be a (T, D) matrix")
    tensorio.save_tensors(path, {"features": tensorio.finite_float32(feats, str(path))})


def load_features(path) -> np.ndarray:
    """Read a feature matrix back; bit-exact for float32 data.  Anything but
    one rank-2 tensor ``features``, or a NaN or infinite value in it, is a
    FormatError naming the file, so it cannot reach a score."""
    with naming(path):
        tensors = tensorio.load_tensors(path)
        if set(tensors) != {"features"}:
            raise FormatError(f"expected one tensor 'features', found {sorted(tensors)}")
        feats = tensors["features"]
        if feats.ndim != 2:
            raise FormatError(f"tensor 'features' has rank {feats.ndim}, expected 2")
        # min and max are finite exactly when every value is, and need no
        # (T, D) temporary
        if feats.size and not np.isfinite([feats.min(), feats.max()]).all():
            frame = int(np.argmin(np.isfinite(feats).all(axis=1)))
            raise FormatError(f"non-finite value in frame {frame}")
        return feats


def feature_rows(path) -> int:
    """The frame count a feature file's header declares, read without its
    data; 0 if the file has no such header (loading it says why)."""
    try:
        shape = tensorio.tensor_shapes(path).get("features", ())
    except (OSError, ValueError):
        return 0
    return shape[0] if len(shape) == 2 else 0
