#!/usr/bin/env python3
"""Memory of one training step, measured in this process.

Builds the one-path model that a run config describes with one GMM and
stats pair (``RunConfig.build``; a two-path run's step-1 fits have its
shape), takes the protocol's first batch of utterances and runs one Adam
step through ``training.train_one_path`` under ``tracemalloc``.  It prints
the traced peak of the forward pass (from the model's construction to the
path's embeddings) and of the backward pass (from there to the end of
Adam's update), each with the layer kernel that was running when it was
reached (``block5.conv2.input_grad.backward``: block 5's second conv making
its input gradient, in the backward pass), then ``ru_maxrss``, the bytes
each entry of the path's step schedule holds after the train-mode forward
(``PathNetwork.held``), and the ``to_gutter`` calls, each of which copies
its input.  A cut on one side of a step whose two peaks are close moves its
peak to the other side, so both are printed.  Kernels are wrapped in this
process, so the step runs unchanged:

    python scripts/step_memory.py run.cfg data/feats data/train.txt \\
        --gmm pooled.gmm --stats pooled.stats
"""

import argparse
import dataclasses
import resource
import sys
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


from lgpnet import model as model_mod
from lgpnet import nn, training
from lgpnet.gmm import Gmm
from lgpnet.lgp import LgpNormStats
from lgpnet.runconfig import RunConfig, read_flat_config

MIB = 2.0 ** 20


class Probe:
    """Wraps kernel calls to find the one running at the traced peak of each
    phase of the step."""

    def __init__(self):
        self.stack, self.phase, self.peaks = ["step"], "forward", {"forward": (0, "step")}

    def _note(self) -> None:
        peak = tracemalloc.get_traced_memory()[1]
        if peak > self.peaks[self.phase][0]:
            self.peaks[self.phase] = (peak, self.stack[-1])

    def start(self, phase: str) -> None:
        """End the current phase and trace the next from what is held now."""
        self._note()
        tracemalloc.reset_peak()
        self.phase = phase
        self.peaks[phase] = (0, self.stack[-1])

    def wrap(self, name: str, obj, method: str) -> None:
        inner = getattr(obj, method)

        def call(*args, **kwargs):
            self._note()
            self.stack.append(f"{name}.{method}.{self.phase}")
            try:
                return inner(*args, **kwargs)
            finally:
                self._note()
                self.stack.pop()

        setattr(obj, method, call)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", type=Path)
    parser.add_argument("features", type=Path)
    parser.add_argument("protocol", type=Path)
    parser.add_argument("--gmm", required=True)
    parser.add_argument("--stats", required=True)
    args = parser.parse_args(argv)
    run = read_flat_config(RunConfig, args.config)
    gmm, stats = Gmm.load(args.gmm), LgpNormStats.load(args.stats)
    data = training.load_dataset(args.protocol, args.features, gmm.dim, "the training set")
    data = training.LabeledDataset(data.items[: run.batch_size])
    batch, full = len(data), len(data) * run.channels * run.segment_length

    probe, held, copies = Probe(), {}, []
    tracemalloc.start()
    model, train_cfg = run.build([gmm], [stats])
    cfg, path = model.cfg, model.paths[0]
    kernels = {nn.Conv1d: ("output", "weight_grad", "input_grad"),
               nn.BatchNorm1d: ("normalize", "affine", "input_grad"),
               nn.SEBlock: ("gate", "input_grad"), nn.Linear: ("forward", "backward")}
    for name, layer in list(path._named_layers()) + [("head", model.fc)]:
        for method in kernels[type(layer)]:
            probe.wrap(name, layer, method)
    probe.wrap("stem", model_mod.LgpMaps, "__call__")
    probe.wrap("adam", nn.Adam, "step")

    forward = path.forward

    def forward_and_count(lgp, is_training):
        emb = forward(lgp, is_training)
        probe.start("backward")
        seen = set()
        for name, arrays in path.held().items():
            owners = {id(a if a.base is None else a.base): a if a.base is None else a.base
                      for a in arrays}
            fresh = [arr for key, arr in owners.items() if key not in seen]
            seen.update(owners)
            held[name] = (sum(arr.nbytes for arr in fresh), [arr.shape for arr in fresh])
        return emb

    path.forward = forward_and_count
    to_gutter = nn.to_gutter

    def counted(x, width):
        copies.append((probe.stack[-1], x.shape, x.size >= full))
        return to_gutter(x, width)

    nn.to_gutter = model_mod.to_gutter = counted
    try:
        training.train_one_path(model, data, dataclasses.replace(train_cfg, epochs=1))
        probe._note()
    finally:
        tracemalloc.stop()
        nn.to_gutter = model_mod.to_gutter = to_gutter
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"shape: order {cfg.gmm_order}, {cfg.channels} channels, {cfg.blocks} blocks, "
          f"SE {'on' if cfg.se_enabled else 'off'}, N {cfg.input_length}, batch {batch}")
    for phase, (peak, where) in probe.peaks.items():
        print(f"{phase} pass: traced peak {peak / MIB:.1f} MiB, during {where}")
    print(f"ru_maxrss {maxrss:.1f} MB")
    print("held by the step schedule after the train-mode forward:")
    for name, (nbytes, shapes) in held.items():
        if nbytes:
            print(f"  {name:<14} {nbytes / MIB:9.1f} MiB  {', '.join(map(str, shapes))}")
    print(f"  {'total':<14} {sum(v[0] for v in held.values()) / MIB:9.1f} MiB")
    print(f"full-size to_gutter copies: {sum(big for *_, big in copies)}")
    for where, shape, big in copies:
        print(f"  {'full' if big else 'small'} copy of {shape} in {where}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
