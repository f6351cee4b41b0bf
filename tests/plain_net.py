"""Plain float64 evaluation of a model's named tensors: the oracle for ScoringPlan.

The plan folds each batch norm into the conv before it, shares the frames
of overlapping segments, and runs every conv as one GEMM per tap over a
zero-gutter buffer (``nn.gutter_conv``).  None of that is here: the
utterance is cut into its ``segment_ufm`` segments, each segment gets its
own LGP map, and every layer is its textbook formula over (B, C, N)
arrays: a conv written as a zero-padded sum of three shifted products,
batch norm from the running statistics, ReLU, the SE gate, the residual
add, max over time and the head.  Nothing is imported from ``lgpnet.nn``
but batch norm's epsilon, so a change to the conv kernel moves the plan
and not this oracle.
"""

import numpy as np

from lgpnet.lgp import extract_lgp
from lgpnet.model import BONA_FIDE, SPOOF, UfmConfig, segment_ufm
from lgpnet.nn import BatchNorm1d

EPSILON = BatchNorm1d.EPSILON


def lgp_maps(gmm, stats, segments):
    """Float64 LGP maps (B, M, N) of (B, N, D) segments, one segment at a time."""
    return np.stack([extract_lgp(gmm, stats, seg) for seg in segments]).astype(np.float64)


def conv(x, weight):
    """Kernel-3 cross-correlation of (B, I, N) by (O, I, 3) with one zero
    frame each side: y[:, :, t] = sum_j weight[:, :, j] @ x[:, :, t + j - 1]."""
    n = x.shape[2]
    padded = np.pad(x, ((0, 0), (0, 0), (1, 1)))
    return sum(weight[:, :, j] @ padded[:, :, j : j + n] for j in range(3))


def conv_bn_relu(tensors, x, conv_name, bn_name):
    gamma, beta, mean, var = (tensors[f"{bn_name}.{key}"].astype(np.float64)[:, None]
                              for key in ("gamma", "beta", "running_mean", "running_var"))
    h = conv(x, tensors[f"{conv_name}.weight"].astype(np.float64))
    return np.maximum(gamma * (h - mean) / np.sqrt(var + EPSILON) + beta, 0.0)


def se_gate(tensors, block, h):
    """Per-channel scale (B, C): sigmoid(W2 relu(W1 mean_t(h) + b1) + b2)."""
    w1, b1, w2, b2 = (tensors[f"{block}.se.{key}"].astype(np.float64)
                      for key in ("w1", "b1", "w2", "b2"))
    inner = np.maximum(h.mean(axis=2) @ w1.T + b1, 0.0)
    return 0.5 * (1.0 + np.tanh(0.5 * (inner @ w2.T + b2)))


def path_embed(tensors, cfg, k, maps):
    """Embeddings (B, C) of path ``k`` of LGP maps (B, M, N)."""
    h = conv_bn_relu(tensors, maps, f"path{k}.stem.conv", f"path{k}.stem.bn")
    for b in range(cfg.blocks):
        block = f"path{k}.block{b}"
        g = conv_bn_relu(tensors, h, f"{block}.conv1", f"{block}.bn1")
        g = conv_bn_relu(tensors, g, f"{block}.conv2", f"{block}.bn2")
        if cfg.se_enabled:
            g = g * se_gate(tensors, block, g)[:, :, None]
        h = h + g
    return h.max(axis=2)


def embed(model, feats, path_ids):
    """Head input (S, len(path_ids) * C) of an utterance's S overlap segments
    under the paths ``path_ids``, from ``model``'s named tensors."""
    tensors = model.to_tensors()
    segments = segment_ufm(np.asarray(feats, dtype=np.float64), UfmConfig(model.cfg.input_length))
    return np.concatenate([
        path_embed(tensors, model.cfg, k, lgp_maps(model.gmms[k], model.stats[k], segments))
        for k in path_ids], axis=1)


def logits(model, feats):
    """Head output (S, 2) of an utterance's S overlap segments."""
    tensors = model.to_tensors()
    emb = embed(model, feats, range(model.cfg.paths))
    return emb @ tensors["fc.weight"].astype(np.float64).T + tensors["fc.bias"]


def score_utterance(model, feats):
    """Mean detection score (bona fide minus spoof logit) over the segments."""
    out = logits(model, feats)
    return float((out[:, BONA_FIDE] - out[:, SPOOF]).mean())
