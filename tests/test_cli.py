import hashlib
from pathlib import Path

import numpy as np
import pytest

from lgpnet.cli import main
from lgpnet.evaluation import read_scores, write_scores, write_protocol
from lgpnet.runconfig import RunConfig
from lgpnet.errors import ProtocolError


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def perfect_fixture(tmp_path):
    scores = {"b1": 2.0, "b2": 3.0, "s1": -1.0, "s2": -2.0}
    labels = {"b1": "bonafide", "b2": "bonafide", "s1": "spoof", "s2": "spoof"}
    score_path = tmp_path / "scores.txt"
    proto_path = tmp_path / "proto.txt"
    write_scores(score_path, scores)
    write_protocol(proto_path, labels)
    return score_path, proto_path


class TestDispatch:
    def test_evaluate_perfect_fixture_prints_zero(self, perfect_fixture, capsys):
        scores, proto = perfect_fixture
        assert run("evaluate", "--scores", scores, "--protocol", proto) == 0
        out = capsys.readouterr().out
        assert "EER 0.0000" in out

    def test_missing_required_flag_exits_2_with_usage(self, capsys):
        assert run("evaluate") == 2
        err = capsys.readouterr().err
        assert "usage" in err.lower()

    def test_unknown_subcommand_exits_2(self, capsys):
        assert run("frobnicate") == 2

    def test_version(self, capsys):
        assert run("--version") == 0
        assert "lgpnet" in capsys.readouterr().out

    def test_missing_file_exits_3(self, tmp_path, capsys):
        proto = tmp_path / "p.txt"
        write_protocol(proto, {"a": "bonafide", "b": "spoof"})
        code = run("evaluate", "--scores", tmp_path / "absent.txt", "--protocol", proto)
        assert code == 3
        assert "error" in capsys.readouterr().err

    def test_corrupt_feature_file_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "feats"
        bad.mkdir()
        (bad / "x.lgpf").write_bytes(b"garbage")
        assert run("train-gmm", "--features", bad, "--components", 2, "--out", tmp_path / "m.gmm") == 3

    def test_unwritable_output_exits_3(self, tmp_path, capsys):
        # A regular file where a directory is needed fails even as root.
        blocked = tmp_path / "blocked"
        blocked.write_text("occupied")
        code = run("gen-corpus", "--task", "order-only", "--out", blocked / "corpus",
                   "--train-utts", 2, "--dev-utts", 2, "--eval-utts", 2)
        assert code == 3
        assert "error" in capsys.readouterr().err

    def test_unknown_config_key_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("not_a_key = 1\n")
        code = run(
            "train", "--config", cfg, "--features", tmp_path, "--protocol", tmp_path / "p",
            "--gmm", tmp_path / "g", "--stats", tmp_path / "s", "--out", tmp_path / "o",
        )
        assert code == 3
        assert "unknown key" in capsys.readouterr().err


@pytest.fixture
def score_fixture(tmp_path):
    """A tiny one-path checkpoint with its GMM, stats, features and protocol."""
    from lgpnet.frontend import store_features
    from lgpnet.gmm import Gmm
    from lgpnet.lgp import fit_norm_stats
    from lgpnet.model import ClassifierConfig, SpoofModel

    rng = np.random.default_rng(3)
    gmm = Gmm(np.full(4, 0.25), rng.normal(size=(4, 2)), rng.uniform(0.5, 1.5, size=(4, 2)))
    stats = fit_norm_stats(gmm, rng.normal(size=(200, 2)), "fast")
    cfg = ClassifierConfig(gmm_order=4, channels=8, blocks=1, input_length=16)
    gmm.save(tmp_path / "m.gmm")
    stats.save(tmp_path / "m.stats")
    SpoofModel(cfg, [gmm], [stats]).save(tmp_path / "model.lgpn")
    (tmp_path / "feats").mkdir()
    store_features(tmp_path / "feats" / "u1.lgpf", rng.normal(size=(20, 2)))
    write_protocol(tmp_path / "eval.txt", {"u1": "bonafide"})
    return tmp_path


def score_with(root, model):
    return run("score", "--model", model, "--features", root / "feats",
               "--protocol", root / "eval.txt", "--gmm", root / "m.gmm",
               "--stats", root / "m.stats", "--out", root / "scores.eval")


def score_gmm_with(root):
    return run("score-gmm", "--gmm", root / "m.gmm", "--gmm2", root / "m.gmm",
               "--features", root / "feats", "--protocol", root / "eval.txt",
               "--out", root / "scores.eval")


class TestScoreCheckpoint:
    def test_valid_checkpoint_scores(self, score_fixture):
        assert score_with(score_fixture, score_fixture / "model.lgpn") == 0
        assert list(read_scores(score_fixture / "scores.eval")) == ["u1"]

    def test_gmm_file_as_model_exits_3(self, score_fixture, capsys):
        assert score_with(score_fixture, score_fixture / "m.gmm") == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "cfg." in err and "Traceback" not in err

    def test_checkpoint_missing_a_tensor_exits_3(self, score_fixture, capsys):
        from lgpnet import tensorio

        tensors = tensorio.load_tensors(score_fixture / "model.lgpn")
        del tensors["path0.block0.conv2.bias"]
        tensorio.save_tensors(score_fixture / "cut.lgpn", tensors)
        assert score_with(score_fixture, score_fixture / "cut.lgpn") == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "path0.block0.conv2.bias" in err
        assert "Traceback" not in err

    def test_oversized_channel_count_exits_3(self, score_fixture, capsys):
        from lgpnet import tensorio

        tensors = tensorio.load_tensors(score_fixture / "model.lgpn")
        tensors["cfg.channels"] = np.array([2.0**20], dtype=np.float32)
        tensorio.save_tensors(score_fixture / "wide.lgpn", tensors)
        assert score_with(score_fixture, score_fixture / "wide.lgpn") == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "cfg.channels" in err
        assert "Traceback" not in err
        assert not (score_fixture / "scores.eval").exists()


class TestNonFiniteFeatures:
    @pytest.fixture
    def nan_fixture(self, score_fixture):
        from lgpnet.frontend import store_features

        feats = np.random.default_rng(4).normal(size=(20, 2))
        feats[7, 1] = np.nan
        store_features(score_fixture / "feats" / "u1.lgpf", feats)
        return score_fixture

    @pytest.mark.parametrize("score", [
        lambda root: score_with(root, root / "model.lgpn"), score_gmm_with,
    ], ids=["score", "score-gmm"])
    def test_nan_frame_exits_3_without_scores(self, nan_fixture, capsys, score):
        assert score(nan_fixture) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "u1.lgpf" in err and "non-finite" in err
        assert "Traceback" not in err
        assert not (nan_fixture / "scores.eval").exists()


def extract_lgp_with(root):
    return run("extract-lgp", "--gmm", root / "m.gmm", "--stats", root / "m.stats",
               "--in", root / "feats", "--out", root / "lgp")


class TestBadModelFiles:
    @staticmethod
    def rewrite(path, name, value):
        from lgpnet import tensorio

        tensors = tensorio.load_tensors(path)
        tensors[name] = value(tensors[name].copy())
        tensorio.save_tensors(path, tensors)

    @staticmethod
    def nan_at_1(array):
        array.flat[1] = np.nan
        return array

    @pytest.mark.parametrize("file, tensor, command, output", [
        ("m.gmm", "means", score_gmm_with, "scores.eval"),
        ("m.gmm", "means", extract_lgp_with, "lgp"),
        ("m.stats", "lgp_mean", extract_lgp_with, "lgp"),
    ], ids=["score-gmm-gmm", "extract-lgp-gmm", "extract-lgp-stats"])
    def test_nan_entry_exits_3_without_output(self, score_fixture, capsys,
                                              file, tensor, command, output):
        self.rewrite(score_fixture / file, tensor, self.nan_at_1)
        assert command(score_fixture) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "must be finite" in err
        assert "Traceback" not in err
        assert not (score_fixture / output).exists()

    @pytest.mark.parametrize("tensor, corrupt, message", [
        ("path0.block0.conv1.weight", nan_at_1, "non-finite value"),
        ("path0.block0.bn1.running_var", lambda v: -v, "negative variance"),
    ], ids=["nan-weight", "negative-running-var"])
    def test_corrupt_checkpoint_exits_3_without_scores(self, score_fixture, capsys,
                                                       tensor, corrupt, message):
        self.rewrite(score_fixture / "model.lgpn", tensor, corrupt)
        assert score_with(score_fixture, score_fixture / "model.lgpn") == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and tensor in err and message in err
        assert "Traceback" not in err
        assert not (score_fixture / "scores.eval").exists()

    def test_empty_stats_form_exits_3(self, score_fixture, capsys):
        self.rewrite(score_fixture / "m.stats", "form", lambda form: form[:0])
        assert extract_lgp_with(score_fixture) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'form' has shape (0,)" in err
        assert "Traceback" not in err
        assert not (score_fixture / "lgp").exists()


class TestRunConfig:
    def test_defaults_round_trip(self, tmp_path):
        cfg = RunConfig()
        path = tmp_path / "run.cfg"
        cfg.write(path)
        assert RunConfig.from_file(path) == cfg

    def test_values_parsed_with_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("channels = 32  # small\nse_enabled = true\nlr = 5e-4\n")
        cfg = RunConfig.from_file(path)
        assert cfg.channels == 32 and cfg.se_enabled is True and cfg.lr == 5e-4

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("channels = 32\nchannels = 64\n")
        with pytest.raises(ProtocolError):
            RunConfig.from_file(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("channels = many\n")
        with pytest.raises(ProtocolError):
            RunConfig.from_file(path)


    def test_removed_gmm_keys_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        for removed in ("em_iterations = 30\n", "lgp_form = fast\n"):
            path.write_text(removed)
            with pytest.raises(ProtocolError, match="unknown key"):
                RunConfig.from_file(path)


class TestTrainConfigChecks:
    """A run config the model or the schedule cannot honour stops ``train``
    before anything is written."""

    @pytest.mark.parametrize("line,message", [
        ("segment_length = 33", "input length must be even"),
        ("step1_epochs = -3", "step1_epochs and step2_epochs must be >= 0"),
        ("step2_epochs = -1", "step1_epochs and step2_epochs must be >= 0"),
    ])
    def test_train_exits_3_without_model(self, score_fixture, capsys, line, message):
        cfg = score_fixture / "run.cfg"
        cfg.write_text(f"gmm_order = 4\nchannels = 8\nblocks = 1\n{line}\n")
        code = run("train", "--config", cfg, "--features", score_fixture / "feats",
                   "--protocol", score_fixture / "eval.txt", "--gmm", score_fixture / "m.gmm",
                   "--stats", score_fixture / "m.stats", "--out", score_fixture / "ckpt")
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err
        assert not (score_fixture / "ckpt" / "model.lgpn").exists()


class TestTdcfConfig:
    def test_duplicate_key_exits_3(self, perfect_fixture, tmp_path, capsys):
        scores, proto = perfect_fixture
        cfg = tmp_path / "tdcf.cfg"
        cfg.write_text("p_fa_asv = 0.01\np_fa_asv = 0.02\n")
        code = run("evaluate", "--scores", scores, "--protocol", proto, "--tdcf-config", cfg)
        assert code == 3
        assert "duplicate key 'p_fa_asv' (line 2)" in capsys.readouterr().err


def tree_hashes(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestDeterminism:
    def test_gen_corpus_artifacts_reproducible(self, tmp_path):
        for sub in ("a", "b"):
            assert run(
                "gen-corpus", "--task", "order-only", "--out", tmp_path / sub,
                "--seed", 3, "--train-utts", 8, "--dev-utts", 4, "--eval-utts", 4,
            ) == 0
        assert tree_hashes(tmp_path / "a") == tree_hashes(tmp_path / "b")

    @pytest.mark.slow
    def test_train_checkpoints_bit_identical(self, tmp_path):
        corpus = tmp_path / "corpus"
        assert run(
            "gen-corpus", "--task", "order-only", "--out", corpus, "--seed", 8,
            "--train-utts", 24, "--dev-utts", 8, "--eval-utts", 8,
            "--min-len", 20, "--max-len", 30,
        ) == 0
        assert run("train-gmm", "--features", corpus / "feats", "--components", 4,
                   "--iters", 3, "--out", tmp_path / "m.gmm") == 0
        assert run("fit-lgp-stats", "--gmm", tmp_path / "m.gmm",
                   "--features", corpus / "feats", "--out", tmp_path / "m.stats") == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "gmm_order = 4\nchannels = 8\nblocks = 1\nsegment_length = 16\n"
            "batch_size = 8\nepochs = 2\nlr = 0.001\nseed = 5\n"
        )
        digests = []
        for sub in ("a", "b"):
            assert run(
                "train", "--config", cfg, "--features", corpus / "feats",
                "--protocol", corpus / "train.txt", "--dev-protocol", corpus / "dev.txt",
                "--gmm", tmp_path / "m.gmm", "--stats", tmp_path / "m.stats",
                "--out", tmp_path / sub,
            ) == 0
            digests.append(hashlib.sha256((tmp_path / sub / "model.lgpn").read_bytes()).hexdigest())
        assert digests[0] == digests[1]


class TestWorkers:
    def test_parallel_scoring_matches_serial(self, tmp_path):
        corpus = tmp_path / "corpus"
        assert run(
            "gen-corpus", "--task", "marginal-shift", "--out", corpus, "--seed", 6,
            "--train-utts", 20, "--dev-utts", 4, "--eval-utts", 12,
            "--min-len", 20, "--max-len", 30,
        ) == 0
        assert run("train-gmm", "--features", corpus / "feats", "--components", 2,
                   "--iters", 3, "--out", tmp_path / "a.gmm") == 0
        assert run("train-gmm", "--features", corpus / "feats", "--components", 3,
                   "--iters", 3, "--seed", 9, "--out", tmp_path / "b.gmm") == 0
        for workers in (1, 2):
            assert run(
                "score-gmm", "--gmm", tmp_path / "a.gmm", "--gmm2", tmp_path / "b.gmm",
                "--features", corpus / "feats", "--protocol", corpus / "eval.txt",
                "--workers", workers, "--out", tmp_path / f"w{workers}.eval",
            ) == 0
        assert (tmp_path / "w1.eval").read_bytes() == (tmp_path / "w2.eval").read_bytes()


    def test_parallel_network_scoring_matches_serial(self, tmp_path):
        from lgpnet.frontend import store_features
        from lgpnet.gmm import Gmm
        from lgpnet.lgp import fit_norm_stats
        from lgpnet.model import ClassifierConfig, SpoofModel

        rng = np.random.default_rng(11)
        gmm = Gmm(np.full(4, 0.25), rng.normal(size=(4, 2)), rng.uniform(0.5, 1.5, size=(4, 2)))
        stats = fit_norm_stats(gmm, rng.normal(size=(200, 2)), "fast")
        gmm.save(tmp_path / "m.gmm")
        stats.save(tmp_path / "m.stats")
        model = SpoofModel(ClassifierConfig(gmm_order=4, channels=8, blocks=2, se_enabled=True,
                                            se_reduction=2, input_length=16), [gmm], [stats])
        model.fc.weight.data[...] = rng.normal(size=model.fc.weight.shape)
        model.save(tmp_path / "model.lgpn")
        (tmp_path / "feats").mkdir()
        labels = {}
        for i, length in enumerate(rng.integers(5, 60, size=16)):
            store_features(tmp_path / "feats" / f"u{i}.lgpf", rng.normal(size=(length, 2)))
            labels[f"u{i}"] = "bonafide" if i % 2 else "spoof"
        write_protocol(tmp_path / "eval.txt", labels)
        for workers in (1, 2):
            assert run("score", "--model", tmp_path / "model.lgpn", "--features", tmp_path / "feats",
                       "--protocol", tmp_path / "eval.txt", "--gmm", tmp_path / "m.gmm",
                       "--stats", tmp_path / "m.stats", "--workers", workers,
                       "--out", tmp_path / f"w{workers}.eval") == 0
        serial = read_scores(tmp_path / "w1.eval")
        assert len(set(serial.values())) == len(labels)
        assert (tmp_path / "w1.eval").read_bytes() == (tmp_path / "w2.eval").read_bytes()

    @pytest.mark.parametrize("command", [
        ["extract-lfcc", "--wav-dir", "w", "--out-dir", "o"],
        ["extract-lgp", "--gmm", "g", "--stats", "s", "--in", "i", "--out", "o"],
        ["score", "--model", "m", "--features", "f", "--protocol", "p", "--gmm", "g",
         "--stats", "s", "--out", "o"],
        ["score-gmm", "--gmm", "g", "--gmm2", "h", "--features", "f", "--protocol", "p",
         "--out", "o"],
    ], ids=lambda argv: argv[0])
    def test_fewer_than_one_worker_is_a_usage_error(self, command, capsys):
        assert run(*command, "--workers", "0") == 2
        assert "--workers: must be >= 1, got 0" in capsys.readouterr().err


class TestFuse:
    def test_out_without_eval_is_a_usage_error(self, perfect_fixture, tmp_path, capsys):
        scores, proto = perfect_fixture
        out = tmp_path / "fused.eval"
        assert run("fuse", "--dev", scores, "--protocol", proto, "--out", out) == 2
        assert "--out writes the fused eval scores, so it needs --eval" in capsys.readouterr().err
        assert not out.exists()


class TestOutDirOverride:
    def test_relative_out_redirected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LGPNET_OUT_DIR", str(tmp_path / "redirected"))
        assert run(
            "gen-corpus", "--task", "order-only", "--out", "corpus",
            "--train-utts", 4, "--dev-utts", 2, "--eval-utts", 2,
        ) == 0
        assert (tmp_path / "redirected" / "corpus" / "train.txt").exists()


class TestPipeline:
    @pytest.mark.slow
    def test_end_to_end_synthetic_pipeline(self, tmp_path, capsys):
        """gen-corpus -> train-gmm -> stats -> train -> score -> evaluate -> fuse."""
        corpus = tmp_path / "corpus"
        assert run(
            "gen-corpus", "--task", "order-only", "--out", corpus, "--seed", 5,
            "--train-utts", 60, "--dev-utts", 24, "--eval-utts", 24,
            "--min-len", 20, "--max-len", 40,
        ) == 0

        # per-class feature list files from the train protocol
        from lgpnet.evaluation import read_protocol

        labels = read_protocol(corpus / "train.txt")
        lists = {}
        for cls in ("bonafide", "spoof"):
            lst = tmp_path / f"{cls}.list"
            lst.write_text(
                "".join(f"{corpus / 'feats' / (u + '.lgpf')}\n"
                        for u, lab in labels.items() if lab == cls)
            )
            lists[cls] = lst

        assert run("train-gmm", "--features", corpus / "feats", "--components", 4,
                   "--iters", 5, "--out", tmp_path / "pooled.gmm") == 0
        assert run("train-gmm", "--features", lists["bonafide"], "--components", 4,
                   "--iters", 5, "--out", tmp_path / "bona.gmm") == 0
        assert run("train-gmm", "--features", lists["spoof"], "--components", 4,
                   "--iters", 5, "--out", tmp_path / "spoof.gmm") == 0
        assert run("fit-lgp-stats", "--gmm", tmp_path / "pooled.gmm",
                   "--features", corpus / "feats",
                   "--out", tmp_path / "pooled.stats") == 0

        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "gmm_order = 4\nchannels = 8\nblocks = 1\nsegment_length = 16\n"
            "batch_size = 8\nepochs = 3\nlr = 0.001\nseed = 1\n"
        )
        assert run(
            "train", "--config", cfg, "--features", corpus / "feats",
            "--protocol", corpus / "train.txt", "--dev-protocol", corpus / "dev.txt",
            "--gmm", tmp_path / "pooled.gmm", "--stats", tmp_path / "pooled.stats",
            "--out", tmp_path / "ckpt",
        ) == 0
        assert (tmp_path / "ckpt" / "model.lgpn").exists()
        assert (tmp_path / "ckpt" / "resolved-config.cfg").exists()
        metrics = (tmp_path / "ckpt" / "metrics.log").read_text().splitlines()
        assert len(metrics) == 3 and all("dev_eer" in line for line in metrics)

        assert run(
            "score", "--model", tmp_path / "ckpt" / "model.lgpn",
            "--features", corpus / "feats", "--protocol", corpus / "eval.txt",
            "--gmm", tmp_path / "pooled.gmm", "--stats", tmp_path / "pooled.stats",
            "--out", tmp_path / "net.eval",
        ) == 0
        assert run(
            "score-gmm", "--gmm", tmp_path / "bona.gmm", "--gmm2", tmp_path / "spoof.gmm",
            "--features", corpus / "feats", "--protocol", corpus / "eval.txt",
            "--out", tmp_path / "gmm.eval",
        ) == 0
        assert len(read_scores(tmp_path / "net.eval")) == 24

        tdcf_cfg = tmp_path / "tdcf.cfg"
        tdcf_cfg.write_text("p_miss_asv = 0.01\np_fa_asv = 0.01\np_miss_spoof_asv = 0.05\n")
        assert run("evaluate", "--scores", tmp_path / "net.eval",
                   "--protocol", corpus / "eval.txt", "--tdcf-config", tdcf_cfg,
                   "--out", tmp_path / "metrics.txt") == 0
        metrics_text = (tmp_path / "metrics.txt").read_text()
        assert "EER" in metrics_text and "min-tDCF" in metrics_text

        # fuse the network with the baseline on dev, apply to eval
        for part in ("dev",):
            assert run(
                "score", "--model", tmp_path / "ckpt" / "model.lgpn",
                "--features", corpus / "feats", "--protocol", corpus / f"{part}.txt",
                "--gmm", tmp_path / "pooled.gmm", "--stats", tmp_path / "pooled.stats",
                "--out", tmp_path / f"net.{part}",
            ) == 0
            assert run(
                "score-gmm", "--gmm", tmp_path / "bona.gmm", "--gmm2", tmp_path / "spoof.gmm",
                "--features", corpus / "feats", "--protocol", corpus / f"{part}.txt",
                "--out", tmp_path / f"gmm.{part}",
            ) == 0
        assert run(
            "fuse", "--dev", tmp_path / "net.dev", tmp_path / "gmm.dev",
            "--eval", tmp_path / "net.eval", tmp_path / "gmm.eval",
            "--protocol", corpus / "dev.txt", "--out", tmp_path / "fused.eval",
        ) == 0
        assert len(read_scores(tmp_path / "fused.eval")) == 24
        out = capsys.readouterr().out
        assert "weights" in out

    @pytest.mark.slow
    def test_two_path_train_and_score(self, tmp_path):
        corpus = tmp_path / "corpus"
        assert run(
            "gen-corpus", "--task", "order-only", "--out", corpus, "--seed", 2,
            "--train-utts", 40, "--dev-utts", 16, "--eval-utts", 16,
            "--min-len", 20, "--max-len", 40,
        ) == 0
        from lgpnet.evaluation import read_protocol

        labels = read_protocol(corpus / "train.txt")
        for cls, name in (("bonafide", "bona"), ("spoof", "spoof")):
            lst = tmp_path / f"{name}.list"
            lst.write_text(
                "".join(f"{corpus / 'feats' / (u + '.lgpf')}\n"
                        for u, lab in labels.items() if lab == cls)
            )
            assert run("train-gmm", "--features", lst, "--components", 4,
                       "--iters", 4, "--out", tmp_path / f"{name}.gmm") == 0
            assert run("fit-lgp-stats", "--gmm", tmp_path / f"{name}.gmm",
                       "--features", corpus / "feats",
                       "--out", tmp_path / f"{name}.stats") == 0

        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "gmm_order = 4\nchannels = 8\nblocks = 1\npaths = 2\n"
            "segment_length = 16\nbatch_size = 8\nepochs = 2\nlr = 0.001\nseed = 4\n"
        )
        two_path_args = [
            "--gmm", tmp_path / "bona.gmm", "--gmm2", tmp_path / "spoof.gmm",
            "--stats", tmp_path / "bona.stats", "--stats2", tmp_path / "spoof.stats",
        ]
        assert run(
            "train", "--config", cfg, "--features", corpus / "feats",
            "--protocol", corpus / "train.txt", "--dev-protocol", corpus / "dev.txt",
            *two_path_args, "--out", tmp_path / "ckpt",
        ) == 0
        assert run(
            "score", "--model", tmp_path / "ckpt" / "model.lgpn",
            "--features", corpus / "feats", "--protocol", corpus / "eval.txt",
            *two_path_args, "--out", tmp_path / "two.eval",
        ) == 0
        assert len(read_scores(tmp_path / "two.eval")) == 16

        # hash verification: swapping the path GMMs must be refused
        swapped = [
            "--gmm", tmp_path / "spoof.gmm", "--gmm2", tmp_path / "bona.gmm",
            "--stats", tmp_path / "bona.stats", "--stats2", tmp_path / "spoof.stats",
        ]
        assert run(
            "score", "--model", tmp_path / "ckpt" / "model.lgpn",
            "--features", corpus / "feats", "--protocol", corpus / "eval.txt",
            *swapped, "--out", tmp_path / "swapped.eval",
        ) == 3

    def test_extract_lfcc_and_lgp_roundabout(self, tmp_path):
        import wave

        wav_dir = tmp_path / "wavs"
        wav_dir.mkdir()
        rng = np.random.default_rng(0)
        for name in ("u1", "u2"):
            samples = (rng.normal(0, 0.1, size=8000) * 32767).clip(-32768, 32767).astype("<i2")
            with wave.open(str(wav_dir / f"{name}.wav"), "wb") as fh:
                fh.setnchannels(1)
                fh.setsampwidth(2)
                fh.setframerate(16000)
                fh.writeframes(samples.tobytes())
        assert run("extract-lfcc", "--wav-dir", wav_dir, "--out-dir", tmp_path / "feats") == 0
        feats_files = list((tmp_path / "feats").glob("*.lgpf"))
        assert len(feats_files) == 2

        from lgpnet.frontend import load_features

        feats = load_features(feats_files[0])
        assert feats.shape[1] == 60

        # train a small GMM on the LFCCs and export LGP maps
        assert run("train-gmm", "--features", tmp_path / "feats", "--components", 2,
                   "--iters", 3, "--out", tmp_path / "m.gmm") == 0
        assert run("fit-lgp-stats", "--gmm", tmp_path / "m.gmm",
                   "--features", tmp_path / "feats", "--out", tmp_path / "m.stats") == 0
        assert run("extract-lgp", "--gmm", tmp_path / "m.gmm", "--stats", tmp_path / "m.stats",
                   "--in", tmp_path / "feats", "--out", tmp_path / "lgp") == 0
        lgp_map = load_features(tmp_path / "lgp" / feats_files[0].name)
        assert lgp_map.shape[0] == 2   # order x time orientation
