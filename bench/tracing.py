"""Span recorder and the wrappers the traced run installs around lgpnet.

Nothing under ``src/`` knows about tracing.  The recorder replaces public
functions and methods of each lgpnet module with timing wrappers, on the
name where each module looks it up (``lgpnet.model.extract_lgp``,
``lgpnet.cli.train_em``, ...), and wraps the stem convolution of every
``PathNetwork`` per instance.  Spans stay in memory; ``write`` dumps them
when the benchmark ends.  ``restore`` puts every original back.

The wrappers only observe: they call the original with the same arguments
and return its result unchanged, so traced and untraced runs write the
same bytes (the benchmark checks this).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pkgutil
import statistics
import time
from dataclasses import dataclass, field

# Module-level functions, by defining module.  Each is patched in every
# lgpnet module that holds a reference to it.
FUNCTIONS = {
    "frontend": ["extract_lfcc", "read_wav", "load_features", "store_features", "fix_length"],
    "tensorio": ["load_tensors", "save_tensors"],
    "gmm": ["train_em", "llr_score"],
    "lgp": ["fit_norm_stats", "extract_lgp"],
    "nn": ["softmax_cross_entropy"],
    "model": ["segment_ufm"],
    "training": ["load_dataset", "train_one_path"],
    "evaluation": ["eer_from_scores", "min_tdcf_from_scores", "fuse_scores",
                   "read_scores", "write_scores"],
}

# Methods, by defining module and class.
METHODS = {
    "gmm": {"Gmm": ["component_log_densities"]},
    "nn": {
        "Conv1d": ["forward", "backward"],
        "BatchNorm1d": ["forward", "backward"],
        "ReLU": ["forward", "backward"],
        "MaxOverTime": ["forward", "backward"],
        "Linear": ["forward", "backward"],
        "Adam": ["step"],
    },
    "model": {
        "PathNetwork": ["forward", "backward"],
        "SpoofModel": ["score_utterance", "load"],
    },
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int                   # index into Recorder.spans, -1 for a root
    run: int                      # pass number the span belongs to
    counts: dict = field(default_factory=dict)


class Recorder:
    """In-memory spans of one benchmark process (single-threaded callers)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def span(self, name: str, fn, *args, counts_fn=None, **kwargs):
        """Call ``fn`` inside a span; ``counts_fn(args, kwargs, result)`` adds counts."""
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, time.perf_counter(), 0.0, parent, self.run)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            result = fn(*args, **kwargs)
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
        if counts_fn is not None:
            record.counts = counts_fn(args, kwargs, result)
        return result

    def wrap(self, name: str, fn, counts_fn=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, counts_fn=counts_fn, **kwargs)
        return traced

    # -- patching --------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every function and method listed in FUNCTIONS/METHODS."""
        import lgpnet

        modules = [importlib.import_module(f"lgpnet.{info.name}")
                   for info in pkgutil.iter_modules(lgpnet.__path__)]
        for mod_name, names in FUNCTIONS.items():
            home = importlib.import_module(f"lgpnet.{mod_name}")
            for name in names:
                original = getattr(home, name)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        # a site may already hold an observer the workload put there
                        if value is original or getattr(value, "__wrapped__", None) is original:
                            self._set(mod, attr, self.wrap(f"{mod_name}.{name}", value,
                                                           COUNTS.get(name)))
        for mod_name, classes in METHODS.items():
            home = importlib.import_module(f"lgpnet.{mod_name}")
            for cls_name, names in classes.items():
                cls = getattr(home, cls_name)
                for name in names:
                    raw = cls.__dict__[name]
                    label = f"{mod_name}.{cls_name}.{name}"
                    counts_fn = COUNTS.get(f"{cls_name}.{name}")
                    if isinstance(raw, classmethod):
                        self._set(cls, name, classmethod(self.wrap(label, raw.__func__, counts_fn)))
                    else:
                        self._set(cls, name, self.wrap(label, raw, counts_fn))
        self._wrap_stem(importlib.import_module("lgpnet.model").PathNetwork)

    def _wrap_stem(self, path_cls) -> None:
        """Per-instance spans for the order-M input convolution of each path."""
        original_init = path_cls.__dict__["__init__"]
        recorder = self

        @functools.wraps(original_init)
        def init(path, *args, **kwargs):
            original_init(path, *args, **kwargs)
            conv = path.conv
            conv.forward = recorder.wrap("nn.Conv1d.stem.forward", conv.forward,
                                         lambda a, k, r: _conv_forward_counts((conv,) + a, k, r))
            conv.backward = recorder.wrap("nn.Conv1d.stem.backward", conv.backward,
                                          lambda a, k, r: _conv_backward_counts((conv,) + a, k, r))

        self._set(path_cls, "__init__", init)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "run": s.run, "counts": s.counts}) + "\n")


# -- counts computed from arguments -----------------------------------------------


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _conv_forward_counts(args, kwargs, result):
    conv, x = args[0], args[1]
    out_ch, in_ch, k = conv.weight.shape
    batch = x.shape[0] if x.ndim == 3 else 1
    t_in, t_out = x.shape[-1], result.shape[-1]
    item = result.itemsize
    return {"flops": 2 * batch * out_ch * in_ch * k * t_out,
            "bytes": item * (batch * in_ch * t_in + out_ch * in_ch * k + batch * out_ch * t_out)}


def _conv_backward_counts(args, kwargs, result):
    conv, g = args[0], args[1]
    out_ch, in_ch, k = conv.weight.shape
    batch = g.shape[0] if g.ndim == 3 else 1
    t_in, t_out = result.shape[-1], g.shape[-1]
    item = result.itemsize
    # weight gradient and input gradient, each one GEMM of the forward's size;
    # traffic: read grad_out, x and W, write grad_W and grad_x
    return {"flops": 4 * batch * out_ch * in_ch * k * t_out,
            "bytes": item * (batch * out_ch * t_out + 2 * batch * in_ch * t_in
                             + 2 * out_ch * in_ch * k)}


def _log_density_counts(args, kwargs, result):
    t, m = result.shape
    d = args[0].dim
    # two (T, D) x (D, M) products plus the per-element combine
    return {"flops": 4 * t * m * d + 4 * t * m}


COUNTS = {
    "load_tensors": _file_bytes,
    "save_tensors": _file_bytes,
    "extract_lgp": lambda a, k, r: {"frames": r.shape[1]},
    "fix_length": lambda a, k, r: {"frames": r.shape[0]},
    "segment_ufm": lambda a, k, r: {"segments": len(r)},
    "SpoofModel.score_utterance": lambda a, k, r: {"frames": a[1].shape[0]},
    "Conv1d.forward": _conv_forward_counts,
    "Conv1d.backward": _conv_backward_counts,
    "Gmm.component_log_densities": _log_density_counts,
}


# -- per-layer metrics from the spans of one pass -----------------------------------


class PassSpans:
    """Totals over the spans of one pass."""

    def __init__(self, spans: list[Span], run: int):
        self.all = spans
        self.index = [i for i, s in enumerate(spans) if s.run == run]
        self.child_time = {}
        for i in self.index:
            s = spans[i]
            if s.parent >= 0:
                self.child_time[s.parent] = self.child_time.get(s.parent, 0.0) + s.end - s.start

    def named(self, name: str) -> list[int]:
        return [i for i in self.index if self.all[i].name == name]

    def _outermost(self, name: str) -> list[int]:
        """Spans of ``name`` with no ancestor of the same name (no double counting)."""
        out = []
        for i in self.named(name):
            p = self.all[i].parent
            while p >= 0 and self.all[p].name != name:
                p = self.all[p].parent
            if p < 0:
                out.append(i)
        return out

    def total(self, name: str) -> float:
        return sum(self.all[i].end - self.all[i].start for i in self._outermost(name))

    def self_time(self, name: str) -> float:
        return sum(self.all[i].end - self.all[i].start - self.child_time.get(i, 0.0)
                   for i in self.named(name))

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def count(self, name: str, key: str) -> float:
        return sum(self.all[i].counts.get(key, 0) for i in self.named(name))

    def durations(self, name: str) -> list[float]:
        return [self.all[i].end - self.all[i].start for i in self.named(name)]

    def within(self, inner: str, outer: str) -> dict[int, list[int]]:
        """For each ``outer`` span, the ``inner`` spans below it, in start order."""
        groups = {i: [] for i in self.named(outer)}
        for j in self.named(inner):
            p = self.all[j].parent
            while p >= 0 and p not in groups:
                p = self.all[p].parent
            if p >= 0:
                groups[p].append(j)
        return groups


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for suffix, label in ((".gflops_per_s", "GFLOP/s"), ("_per_frame_scored", "ratio"), (".ms_p50", "ms"), ("bytes", "bytes"),
                          ("_share", "share"), ("_s", "s"), (".s", "s")):
        if name.endswith(suffix):
            return label
    return "count"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


CLI_COMMANDS = ("train", "score", "extract-lfcc", "train-gmm", "fit-lgp-stats",
                "score-gmm", "evaluate", "fuse")


def layer_metrics(spans: list[Span], run: int, roof_gflops: float) -> dict[str, float]:
    """Every per-layer metric for one pass; layers a workload does not use read 0."""
    p = PassSpans(spans, run)
    m: dict[str, float] = {}
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.s"] = p.total(f"cli.{cmd}")

    for name in FUNCTIONS["frontend"]:
        m[f"frontend.{name}.s"] = p.total(f"frontend.{name}")

    m["tensorio.load_tensors.s"] = p.total("tensorio.load_tensors")
    m["tensorio.save_tensors.s"] = p.total("tensorio.save_tensors")
    m["tensorio.bytes"] = (p.count("tensorio.load_tensors", "bytes")
                           + p.count("tensorio.save_tensors", "bytes"))

    # EM: seeding is train_em start -> first log-density span; an iteration
    # is the spacing between successive log-density spans inside train_em.
    init_s, spacing, iterations = 0.0, [], 0
    for em, dens in p.within("gmm.Gmm.component_log_densities", "gmm.train_em").items():
        if not dens:
            continue
        starts = [spans[j].start for j in dens]
        init_s += starts[0] - spans[em].start
        spacing += [b - a for a, b in zip(starts, starts[1:])]
        iterations += len(starts) - 1      # the last call scores the returned model
    m["gmm.train_em.s"] = p.total("gmm.train_em")
    m["gmm.em_init_s"] = init_s
    m["gmm.em_iteration_s"] = statistics.median(spacing) if spacing else 0.0
    m["gmm.em_iterations"] = iterations
    dens_s = p.total("gmm.Gmm.component_log_densities")
    m["gmm.component_log_densities.s"] = dens_s
    m["gmm.component_log_densities.calls"] = p.calls("gmm.Gmm.component_log_densities")
    m["gmm.component_log_densities.gflops_per_s"] = _ratio(
        p.count("gmm.Gmm.component_log_densities", "flops") / 1e9, dens_s)
    m["gmm.llr_score.s"] = p.total("gmm.llr_score")

    m["lgp.fit_norm_stats.s"] = p.total("lgp.fit_norm_stats")
    m["lgp.extract_lgp.s"] = p.total("lgp.extract_lgp")
    m["lgp.extract_lgp.calls"] = p.calls("lgp.extract_lgp")
    extracted = p.count("lgp.extract_lgp", "frames")
    presented = (p.count("model.SpoofModel.score_utterance", "frames")
                 + p.count("frontend.fix_length", "frames"))
    m["lgp.frames_extracted"] = extracted
    m["lgp.frames_per_frame_scored"] = _ratio(extracted, presented)

    for prefix, span in (("nn.Conv1d.stem", "nn.Conv1d.stem"), ("nn.Conv1d", "nn.Conv1d")):
        m[f"{prefix}.forward.s"] = p.total(f"{span}.forward")
        m[f"{prefix}.backward.s"] = p.total(f"{span}.backward")
    fwd_s, bwd_s = m["nn.Conv1d.forward.s"], m["nn.Conv1d.backward.s"]
    fwd_gf = p.count("nn.Conv1d.forward", "flops") / 1e9
    bwd_gf = p.count("nn.Conv1d.backward", "flops") / 1e9
    m["nn.Conv1d.forward.gflops_per_s"] = _ratio(fwd_gf, fwd_s)
    m["nn.Conv1d.backward.gflops_per_s"] = _ratio(bwd_gf, bwd_s)
    m["nn.Conv1d.roof_share"] = _ratio(_ratio(fwd_gf + bwd_gf, fwd_s + bwd_s), roof_gflops)
    m["nn.Conv1d.bytes"] = (p.count("nn.Conv1d.forward", "bytes")
                            + p.count("nn.Conv1d.backward", "bytes"))
    for layer in ("BatchNorm1d", "ReLU", "MaxOverTime", "Linear"):
        m[f"nn.{layer}.forward.s"] = p.total(f"nn.{layer}.forward")
        m[f"nn.{layer}.backward.s"] = p.total(f"nn.{layer}.backward")
    m["nn.softmax_cross_entropy.s"] = p.total("nn.softmax_cross_entropy")
    m["nn.Adam.step.s"] = p.total("nn.Adam.step")

    path_s = p.total("model.PathNetwork.forward") + p.total("model.PathNetwork.backward")
    m["nn.conv_share"] = _ratio(fwd_s + bwd_s, path_s)
    m["model.PathNetwork.forward.s"] = p.total("model.PathNetwork.forward")
    m["model.PathNetwork.backward.s"] = p.total("model.PathNetwork.backward")
    per_utt = p.durations("model.SpoofModel.score_utterance")
    m["model.SpoofModel.score_utterance.ms_p50"] = 1e3 * statistics.median(per_utt) if per_utt else 0.0
    m["model.segment_ufm.s"] = p.total("model.segment_ufm")
    m["model.segments_per_utt"] = _ratio(p.count("model.segment_ufm", "segments"),
                                         p.calls("model.segment_ufm"))
    m["model.SpoofModel.load.s"] = p.total("model.SpoofModel.load")

    m["training.load_dataset.s"] = p.total("training.load_dataset")
    m["training.train_one_path.s"] = p.total("training.train_one_path")
    m["training.train_one_path.self_s"] = p.self_time("training.train_one_path")
    m["training.steps"] = p.calls("nn.Adam.step")

    for name in ("eer_from_scores", "min_tdcf_from_scores", "fuse_scores",
                 "read_scores", "write_scores"):
        m[f"evaluation.{name}.s"] = p.total(f"evaluation.{name}")
    m["evaluation.eer_from_scores.calls"] = p.calls("evaluation.eer_from_scores")
    return m
