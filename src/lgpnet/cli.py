"""Command-line entry point wiring the whole pipeline.

Exit codes: 0 success, 2 usage, 3 data/format problems, 4 numeric failure.
Outputs go where the command's output flag says; nothing reads the
environment.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__, tensorio
from .errors import FormatError, TrainingDivergedError, naming
from .evaluation import (
    TdcfCostModel,
    eer_from_scores,
    fuse_scores,
    min_tdcf_from_scores,
    read_protocol,
    read_scores,
    read_trials,
    write_scores,
)
from .frontend import extract_lfcc, feature_rows, load_features, read_wav, store_features
from .gmm import EmConfig, Gmm, llr_score, train_em
from .lgp import LgpNormStats, fit_norm_stats
from .model import ScoringPlan
from .runconfig import RunConfig, read_flat_config, write_flat_config
from .synthcorpus import CorpusSpec, generate
from .training import load_dataset, train_one_path, train_two_step

DATA_EXIT, NUMERIC_EXIT = 3, 4


def _pooled_frames(spec: str) -> np.ndarray:
    """The stacked frames of ``spec``: a directory of .lgpf files or a list file.
    Every file must have the first file's frame width.  The frame counts come
    from the file headers first, so the files are read into one array."""
    if Path(spec).is_dir():
        files = _files(spec, ".lgpf")
    else:
        with open(spec, "r", encoding="utf-8") as fh:
            files = [Path(line.strip()) for line in fh if line.strip()]
        if not files:
            raise FileNotFoundError(f"{spec}: empty feature list")
    total = sum(feature_rows(path) for path in files)
    pooled, start = None, 0
    for path in files:
        with naming(path):
            feats = load_features(path)
            if pooled is None:
                pooled = np.empty((total, feats.shape[1]), dtype=feats.dtype)
            elif feats.shape[1] != pooled.shape[1]:
                raise FormatError(f"{feats.shape[1]} values per frame, but {files[0]} "
                                  f"has {pooled.shape[1]}")
            pooled[start:start + feats.shape[0]] = feats
        start += feats.shape[0]
        del feats                 # free this file before the next is read
    return pooled


def _files(directory, suffix: str) -> list[Path]:
    """The ``*suffix`` files of ``directory``, sorted; finding none is an error."""
    files = sorted(Path(directory).glob(f"*{suffix}"))
    if not files:
        raise FileNotFoundError(f"{directory}: no {suffix} files found")
    return files


# -- subcommands ---------------------------------------------------------------


def _cmd_gen_corpus(args) -> int:
    spec = CorpusSpec(
        task=args.task, dim=args.dim, train_utts=args.train_utts,
        dev_utts=args.dev_utts, eval_utts=args.eval_utts,
        min_len=args.min_len, max_len=args.max_len, seed=args.seed,
    )
    generate(spec, args.out)
    write_flat_config(spec, Path(args.out) / "corpus-spec.cfg")
    print(f"wrote corpus to {args.out}")
    return 0


def _cmd_extract_lfcc(args) -> int:
    wavs = _files(args.wav_dir, ".wav")
    for path in wavs:
        with naming(path):
            store_features(Path(args.out_dir) / f"{path.stem}.lgpf", extract_lfcc(read_wav(path)))
    print(f"extracted {len(wavs)} files to {args.out_dir}")
    return 0


def _cmd_train_gmm(args) -> int:
    frames = _pooled_frames(args.features)
    cfg = EmConfig(iterations=args.iters, seed=args.seed)
    model, trace = train_em(frames, args.components, cfg)
    model.save(args.out)
    for it, value in enumerate(trace[:-1], start=1):
        print(f"em iteration {it}/{cfg.iterations}: avg log-likelihood {value:.4f}")
    print(f"trained {args.components}-component GMM on {frames.shape[0]} frames "
          f"(avg log-likelihood {trace[-1]:.4f}) -> {args.out}")
    return 0


def _cmd_fit_lgp_stats(args) -> int:
    gmm = Gmm.load(args.gmm)
    frames = _pooled_frames(args.features)
    stats = fit_norm_stats(gmm, frames, "fast")
    stats.save(args.out)
    print(f"fitted {stats.form}-form stats over {frames.shape[0]} frames -> {args.out}")
    return 0


def _load_gmms(args) -> list[Gmm]:
    """The GMMs of ``--gmm`` and, if given, ``--gmm2``, which must have the
    first one's frame width."""
    gmms = [Gmm.load(f) for f in (args.gmm, args.gmm2) if f is not None]
    if len(gmms) == 2 and gmms[1].dim != gmms[0].dim:
        raise FormatError(f"{args.gmm2}: {gmms[1].dim} values per frame, "
                          f"but {args.gmm} has {gmms[0].dim}")
    return gmms


def _load_models(args):
    """Exactly the GMM and stats files given, each second file checked
    against the first; the model checks that they fit it."""
    gmms = _load_gmms(args)
    stats = [LgpNormStats.load(f) for f in (args.stats, args.stats2) if f is not None]
    if len(stats) == 2 and stats[1].form != stats[0].form:
        raise FormatError(f"{args.stats2}: form {stats[1].form!r}, "
                          f"but {args.stats} has {stats[0].form!r}")
    return gmms, stats


def _cmd_train(args) -> int:
    run = read_flat_config(RunConfig, args.config) if args.config else RunConfig()
    gmms, stats = _load_models(args)
    # the model and the schedule check the run's values, in the config's name
    with naming(args.config or "default run config"):
        model, train_cfg = run.build(gmms, stats)
    data = load_dataset(args.protocol, args.features, gmms[0].dim, "the training set")
    dev = (load_dataset(args.dev_protocol, args.features, gmms[0].dim, "the dev set")
           if args.dev_protocol else None)

    out = Path(args.out)
    write_flat_config(run, out / "resolved-config.cfg")
    fits, labels = [], ["path 0 ", "path 1 ", "step 2 "] if len(gmms) == 2 else [""]

    def line(label, res, epoch):    # " kept" marks the fit's best epoch once the fit ends
        eer = res.dev_eer_trace[epoch] if res.dev_eer_trace else float("nan")
        return (f"{label}epoch {epoch + 1} loss {res.loss_trace[epoch]:.6f} "
                f"dev_eer {eer:.4f}" + (" kept" if epoch == res.best_epoch else ""))

    def write_log():
        text = "".join(line(label, res, e) + "\n" for label, res in zip(labels, fits)
                       for e in range(len(res.loss_trace)))
        tensorio.write_file(out / "metrics.log", text.encode("utf-8"))

    def log_epoch(epoch, result):
        if not fits or fits[-1] is not result:      # a new fit hands over its own result
            fits.append(result)
        print(line(labels[len(fits) - 1], result, epoch))
        write_log()     # the whole log, rewritten after every epoch: live, and never torn

    fit = train_one_path if len(gmms) == 1 else train_two_step
    fit(model, data, train_cfg, dev, on_epoch=log_epoch)
    write_log()         # with the last fit's kept epoch
    model.save(out / "model.lgpn")
    print(f"saved model to {out / 'model.lgpn'}")
    return 0


def _cmd_score(args) -> int:
    gmms, stats = _load_models(args)
    with naming(args.model):           # the plan holds its own float64 weights
        plan = ScoringPlan.from_tensors(tensorio.load_tensors(args.model), gmms, stats)
    return _score_protocol(args, plan.score_utterance, "")


def _cmd_score_gmm(args) -> int:
    genuine, spoof = _load_gmms(args)   # refused before any feature file is read
    return _score_protocol(args, lambda feats: llr_score(genuine, spoof, feats),
                           " (GMM baseline)")


def _score_protocol(args, score, what: str) -> int:
    """Write ``score`` of the features of every utterance of ``--protocol``,
    in protocol order, to ``--out``.  Each utterance is read and scored on
    its own, one after another."""
    ids = list(read_protocol(args.protocol))
    scores = {}
    for utt_id in ids:
        path = Path(args.features) / f"{utt_id}.lgpf"
        with naming(path):
            scores[utt_id] = score(load_features(path))
    write_scores(args.out, scores)
    print(f"scored {len(ids)} utterances{what} -> {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    bona, spoof = read_trials(args.scores, args.protocol)
    eer, threshold = eer_from_scores(bona, spoof)
    lines = [f"EER {eer:.4f}", f"threshold {threshold:.6f}"]
    if args.tdcf_config:
        cost = read_flat_config(TdcfCostModel, args.tdcf_config)
        lines.append(f"min-tDCF {min_tdcf_from_scores(bona, spoof, cost):.4f}")
    for line in lines:
        print(line)
    if args.out:
        tensorio.write_file(args.out, ("\n".join(lines) + "\n").encode("utf-8"))
    return 0


def _cmd_fuse(args) -> int:
    dev_systems = [read_scores(p) for p in args.dev]
    eval_systems = [read_scores(p) for p in args.eval] if args.eval else None
    labels = read_protocol(args.protocol)
    read_trials(args.dev[0], args.protocol)  # an unlabelled or one-class dev set names both files
    result = fuse_scores(dev_systems, labels, eval_systems)
    weights = " ".join(f"{w:.4f}" for w in result.weights)
    print(f"weights {weights}")
    print(f"dev EER {result.dev_eer:.4f}")
    if args.out:
        write_scores(args.out, result.fused_eval)
        print(f"wrote fused eval scores -> {args.out}")
    return 0


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgpnet",
        description="LGP-feature spoofing detection toolkit",
    )
    parser.add_argument("--version", action="version",
                        version=f"lgpnet {__version__} (container LGPN v1)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", help="generate a synthetic two-class corpus")
    p.add_argument("--task", choices=("order-only", "marginal-shift"), default="order-only")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--train-utts", type=int, default=400)
    p.add_argument("--dev-utts", type=int, default=200)
    p.add_argument("--eval-utts", type=int, default=200)
    p.add_argument("--min-len", type=int, default=40)
    p.add_argument("--max-len", type=int, default=96)
    p.set_defaults(fn=_cmd_gen_corpus)

    p = sub.add_parser("extract-lfcc", help="LFCC features from 16-bit mono WAV files")
    p.add_argument("--wav-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--workers", type=int, choices=(1,), default=1,
                   help="only 1: the files run one after another")
    p.set_defaults(fn=_cmd_extract_lfcc)

    p = sub.add_parser("train-gmm", help="EM-train a diagonal GMM on pooled frames")
    p.add_argument("--features", required=True, help="directory of .lgpf files or a list file")
    p.add_argument("--components", type=int, default=512)
    p.add_argument("--iters", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_train_gmm)

    p = sub.add_parser("fit-lgp-stats", help="fit LGP normalization statistics")
    p.add_argument("--gmm", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_fit_lgp_stats)

    p = sub.add_parser("train", help="train a one-path or two-path classifier")
    p.add_argument("--config", help="key=value run configuration file")
    p.add_argument("--features", required=True)
    p.add_argument("--protocol", required=True)
    p.add_argument("--dev-protocol")
    p.add_argument("--gmm", required=True)
    p.add_argument("--gmm2")
    p.add_argument("--stats", required=True)
    p.add_argument("--stats2")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("score", help="score utterances with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--protocol", required=True)
    p.add_argument("--gmm", required=True)
    p.add_argument("--gmm2")
    p.add_argument("--stats", required=True)
    p.add_argument("--stats2")
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, choices=(1,), default=1,
                   help="only 1: the files run one after another")
    p.set_defaults(fn=_cmd_score)

    p = sub.add_parser("score-gmm", help="log-likelihood-ratio baseline scores")
    p.add_argument("--gmm", required=True, help="genuine-speech GMM")
    p.add_argument("--gmm2", required=True, help="spoofed-speech GMM")
    p.add_argument("--features", required=True)
    p.add_argument("--protocol", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, choices=(1,), default=1,
                   help="only 1: the files run one after another")
    p.set_defaults(fn=_cmd_score_gmm)

    p = sub.add_parser("evaluate", help="EER and optional min t-DCF of a score file")
    p.add_argument("--scores", required=True)
    p.add_argument("--protocol", required=True)
    p.add_argument("--tdcf-config")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("fuse", help="linear score fusion fitted on the dev set")
    p.add_argument("--dev", nargs="+", required=True)
    p.add_argument("--eval", nargs="*", default=[])
    p.add_argument("--protocol", required=True, help="dev protocol with labels")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_fuse)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "fuse" and args.out and not args.eval:
            parser.error("fuse --out writes the fused eval scores, so it needs --eval")
        if args.command in ("train", "score") and (args.gmm2 is None) != (args.stats2 is None):
            parser.error(f"{args.command} takes --gmm2 and --stats2 together, or neither")
    except SystemExit as exc:          # argparse printed usage/help already
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:    # FormatError and ProtocolError included
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT
    except (TrainingDivergedError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return NUMERIC_EXIT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
