"""Command-line entry point wiring the whole pipeline.

Exit codes: 0 success, 2 usage, 3 data/format problems, 4 numeric failure.
Outputs go where the command's output flag says; nothing reads the
environment.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ThreadPoolExecutor
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
from .frontend import extract_lfcc, load_features, read_wav, store_features
from .gmm import EmConfig, Gmm, llr_score, train_em
from .lgp import LgpNormStats, extract_lgp, fit_norm_stats
from .model import ClassifierConfig, ScoringPlan, SpoofModel
from .runconfig import RunConfig, read_flat_config
from .synthcorpus import CorpusSpec, generate
from .training import TrainConfig, load_dataset, train_one_path, train_two_step

DATA_EXIT, NUMERIC_EXIT = 3, 4


def _out_path(raw, *, directory: bool) -> Path:
    """The output path ``raw`` names; makes it (``directory``) or its parent."""
    path = Path(raw)
    (path if directory else path.parent).mkdir(parents=True, exist_ok=True)
    return path


def _pooled_frames(spec: str) -> np.ndarray:
    """The stacked frames of ``spec``: a directory of .lgpf files or a list file.
    Every file must have the first file's frame width."""
    if Path(spec).is_dir():
        files = _files(spec, ".lgpf")
    else:
        with open(spec, "r", encoding="utf-8") as fh:
            files = [Path(line.strip()) for line in fh if line.strip()]
        if not files:
            raise FileNotFoundError(f"{spec}: empty feature list")
    arrays = []
    for path in files:
        with naming(path):
            feats = load_features(path)
            if arrays and feats.shape[1] != arrays[0].shape[1]:
                raise FormatError(f"{feats.shape[1]} values per frame, but {files[0]} "
                                  f"has {arrays[0].shape[1]}")
        arrays.append(feats)
    return np.concatenate(arrays, axis=0)


def _worker_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _files(directory, suffix: str) -> list[Path]:
    """The ``*suffix`` files of ``directory``, sorted; finding none is an error."""
    files = sorted(Path(directory).glob(f"*{suffix}"))
    if not files:
        raise FileNotFoundError(f"{directory}: no {suffix} files found")
    return files


def _each_file(workers: int, step, paths):
    """``step(path)`` of every path, in order whatever ``workers`` is; a
    ValueError of a step names its file."""
    def named(path):
        with naming(path):
            return step(path)

    if workers <= 1:
        return [named(path) for path in paths]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(named, paths))   # order preserved -> deterministic


# -- subcommands ---------------------------------------------------------------


def _cmd_gen_corpus(args) -> int:
    spec = CorpusSpec(
        task=args.task, dim=args.dim, train_utts=args.train_utts,
        dev_utts=args.dev_utts, eval_utts=args.eval_utts,
        min_len=args.min_len, max_len=args.max_len, seed=args.seed,
    )
    out = _out_path(args.out, directory=True)
    generate(spec, out)
    with open(out / "corpus-spec.cfg", "w", encoding="utf-8") as fh:
        for key, value in vars(spec).items():
            fh.write(f"{key} = {value}\n")
    print(f"wrote corpus to {out}")
    return 0


def _cmd_extract_lfcc(args) -> int:
    wavs = _files(args.wav_dir, ".wav")
    out_dir = _out_path(args.out_dir, directory=True)

    def one(path: Path):
        store_features(out_dir / (path.stem + ".lgpf"), extract_lfcc(read_wav(path)))

    _each_file(args.workers, one, wavs)
    print(f"extracted {len(wavs)} files to {out_dir}")
    return 0


def _cmd_train_gmm(args) -> int:
    frames = _pooled_frames(args.features)
    cfg = EmConfig(iterations=args.iters, seed=args.seed)
    model, trace = train_em(frames, args.components, cfg)
    out = _out_path(args.out, directory=False)
    model.save(out)
    for it, value in enumerate(trace[:-1], start=1):
        print(f"em iteration {it}/{cfg.iterations}: avg log-likelihood {value:.4f}")
    print(f"trained {args.components}-component GMM on {frames.shape[0]} frames "
          f"(avg log-likelihood {trace[-1]:.4f}) -> {out}")
    return 0


def _cmd_fit_lgp_stats(args) -> int:
    gmm = Gmm.load(args.gmm)
    frames = _pooled_frames(args.features)
    stats = fit_norm_stats(gmm, frames, "fast")
    out = _out_path(args.out, directory=False)
    stats.save(out)
    print(f"fitted {stats.form}-form stats over {frames.shape[0]} frames -> {out}")
    return 0


def _cmd_extract_lgp(args) -> int:
    gmm = Gmm.load(args.gmm)
    stats = LgpNormStats.load(args.stats)
    files = _files(args.in_dir, ".lgpf")
    out_dir = _out_path(args.out, directory=True)

    def one(path: Path):
        store_features(out_dir / path.name, extract_lgp(gmm, stats, load_features(path)))

    _each_file(args.workers, one, files)
    print(f"extracted LGP maps for {len(files)} files to {out_dir}")
    return 0


def _load_models(args):
    """Exactly the GMM and stats files given; the model checks that they fit it."""
    gmms = [Gmm.load(f) for f in (args.gmm, args.gmm2) if f is not None]
    stats = [LgpNormStats.load(f) for f in (args.stats, args.stats2) if f is not None]
    return gmms, stats


def _cmd_train(args) -> int:
    run = RunConfig.from_file(args.config) if args.config else RunConfig()
    gmms, stats = _load_models(args)
    # the model and the schedule check the run's values, in the config's name
    with naming(args.config or "default run config"):
        cfg = ClassifierConfig(
            gmm_order=run.gmm_order, channels=run.channels, blocks=run.blocks,
            se_enabled=run.se_enabled, se_reduction=run.se_reduction,
            input_length=run.segment_length, paths=run.paths, lgp_form=stats[0].form,
        )
        model = SpoofModel(cfg, gmms, stats, seed=run.seed)
        train_cfg = TrainConfig(
            batch_size=run.batch_size, epochs=run.epochs, lr=run.lr, seed=run.seed,
            target_length=run.segment_length,
            step1_epochs=run.step1_epochs, step2_epochs=run.step2_epochs,
        )
    data = load_dataset(args.protocol, args.features)
    dev = load_dataset(args.dev_protocol, args.features) if args.dev_protocol else None

    out = _out_path(args.out, directory=True)
    run.write(out / "resolved-config.cfg")
    metrics = open(out / "metrics.log", "w", encoding="utf-8")

    def log_epoch(epoch, result):
        eer = result.dev_eer_trace[-1] if result.dev_eer_trace else float("nan")
        line = f"epoch {epoch + 1} loss {result.loss_trace[-1]:.6f} dev_eer {eer:.4f}"
        print(line)
        metrics.write(line + "\n")

    try:
        if run.paths == 1:
            train_one_path(model, data, train_cfg, dev, on_epoch=log_epoch)
        else:
            train_two_step(model, data, train_cfg, dev, on_epoch=log_epoch)
    finally:
        metrics.close()
    model.save(out / "model.lgpn")
    print(f"saved model to {out / 'model.lgpn'}")
    return 0


def _cmd_score(args) -> int:
    gmms, stats = _load_models(args)
    with naming(args.model):           # the plan holds its own float64 weights
        plan = ScoringPlan.from_tensors(tensorio.load_tensors(args.model), gmms, stats)
    return _score_protocol(args, plan.score_utterance, "")


def _cmd_score_gmm(args) -> int:
    genuine = Gmm.load(args.gmm)
    spoof = Gmm.load(args.gmm2)
    return _score_protocol(args, lambda feats: llr_score(genuine, spoof, feats),
                           " (GMM baseline)")


def _score_protocol(args, score, what: str) -> int:
    """Write ``score`` of the features of every utterance of ``--protocol``,
    in protocol order whatever ``--workers`` is, to ``--out``."""
    ids = list(read_protocol(args.protocol))
    paths = [Path(args.features) / f"{utt_id}.lgpf" for utt_id in ids]
    values = _each_file(args.workers, lambda path: score(load_features(path)), paths)
    out = _out_path(args.out, directory=False)
    write_scores(out, dict(zip(ids, values)))
    print(f"scored {len(ids)} utterances{what} -> {out}")
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
        out = _out_path(args.out, directory=False)
        with open(out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0


def _cmd_fuse(args) -> int:
    dev_systems = [read_scores(p) for p in args.dev]
    eval_systems = [read_scores(p) for p in args.eval] if args.eval else None
    labels = read_protocol(args.protocol)
    result = fuse_scores(dev_systems, labels, eval_systems)
    weights = " ".join(f"{w:.4f}" for w in result.weights)
    print(f"weights {weights}")
    print(f"dev EER {result.dev_eer:.4f}")
    if args.out:
        out = _out_path(args.out, directory=False)
        write_scores(out, result.fused_eval)
        print(f"wrote fused eval scores -> {out}")
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
    p.add_argument("--workers", type=_worker_count, default=1)
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

    p = sub.add_parser("extract-lgp", help="export normalized LGP feature maps")
    p.add_argument("--gmm", required=True)
    p.add_argument("--stats", required=True)
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=_worker_count, default=1)
    p.set_defaults(fn=_cmd_extract_lgp)

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
    p.add_argument("--workers", type=_worker_count, default=1)
    p.set_defaults(fn=_cmd_score)

    p = sub.add_parser("score-gmm", help="log-likelihood-ratio baseline scores")
    p.add_argument("--gmm", required=True, help="genuine-speech GMM")
    p.add_argument("--gmm2", required=True, help="spoofed-speech GMM")
    p.add_argument("--features", required=True)
    p.add_argument("--protocol", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=_worker_count, default=1)
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
