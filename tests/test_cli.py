import hashlib
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from handbuilt import container_bytes
from lgpnet import tensorio
from lgpnet.cli import main
from lgpnet.evaluation import read_scores, write_scores, write_protocol
from lgpnet.runconfig import RunConfig, read_flat_config, write_flat_config
from lgpnet.errors import ProtocolError
from lgpnet.model import ClassifierConfig
from lgpnet.training import TrainConfig


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

    def test_help_lists_the_nine_subcommands(self, capsys):
        assert run("--help") == 0
        assert ("{gen-corpus,extract-lfcc,train-gmm,fit-lgp-stats,train,score,score-gmm,"
                "evaluate,fuse}") in capsys.readouterr().out
        assert run("extract-lgp") == 2
        assert "invalid choice: 'extract-lgp'" in capsys.readouterr().err

    def test_version(self, capsys):
        assert run("--version") == 0
        out = capsys.readouterr().out
        assert "lgpnet" in out and "LGPN" in out and "LGPF" not in out

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


def score_with(root, model, *files):
    """``lgpnet score`` into the new directory ``root/out``; ``files``
    replaces the default --gmm/--stats flags."""
    files = files or ("--gmm", root / "m.gmm", "--stats", root / "m.stats")
    return run("score", "--model", model, "--features", root / "feats",
               "--protocol", root / "eval.txt", *files,
               "--out", root / "out" / "scores.eval")


def train_with(root, config, *files, protocol="eval.txt", sizes="channels = 8\nblocks = 1\n"):
    """``lgpnet train`` of a tiny one-path run into ``root/ckpt``: ``config``
    adds run keys, ``sizes`` replaces the width and depth, and ``files``
    replaces the default --gmm/--stats flags."""
    cfg = root / "run.cfg"
    cfg.write_text(f"gmm_order = 4\n{sizes}{config}")
    files = files or ("--gmm", root / "m.gmm", "--stats", root / "m.stats")
    return run("train", "--config", cfg, "--features", root / "feats",
               "--protocol", root / protocol, *files, "--out", root / "ckpt")


def score_gmm_with(root, genuine="m.gmm", spoof="m.gmm"):
    return run("score-gmm", "--gmm", root / genuine, "--gmm2", root / spoof,
               "--features", root / "feats", "--protocol", root / "eval.txt",
               "--out", root / "out" / "scores.eval")


class TestScoreCheckpoint:
    def test_valid_checkpoint_scores(self, score_fixture):
        assert score_with(score_fixture, score_fixture / "model.lgpn") == 0
        assert list(read_scores(score_fixture / "out" / "scores.eval")) == ["u1"]

    def test_gmm_file_as_model_exits_3(self, score_fixture, capsys):
        assert score_with(score_fixture, score_fixture / "m.gmm") == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {score_fixture / 'm.gmm'}: ")
        assert "cfg." in err and "Traceback" not in err

    def test_checkpoint_missing_a_tensor_exits_3(self, score_fixture, capsys):
        from lgpnet import tensorio

        tensors = tensorio.load_tensors(score_fixture / "model.lgpn")
        del tensors["path0.block0.bn2.beta"]
        tensorio.save_tensors(score_fixture / "cut.lgpn", tensors)
        assert score_with(score_fixture, score_fixture / "cut.lgpn") == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {score_fixture / 'cut.lgpn'}: ")
        assert "path0.block0.bn2.beta" in err
        assert "Traceback" not in err

    def test_checkpoint_with_a_conv_bias_exits_3(self, score_fixture, capsys):
        # convs have no bias, so a checkpoint that stores one is refused
        from lgpnet import tensorio

        tensors = tensorio.load_tensors(score_fixture / "model.lgpn")
        channels = tensors["path0.stem.conv.weight"].shape[0]
        tensors["path0.stem.conv.bias"] = np.zeros(channels, dtype=np.float32)
        tensorio.save_tensors(score_fixture / "biased.lgpn", tensors)
        assert score_with(score_fixture, score_fixture / "biased.lgpn") == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {score_fixture / 'biased.lgpn'}: checkpoint has "
                              "unexpected tensor 'path0.stem.conv.bias'")
        assert "Traceback" not in err

    def test_oversized_channel_count_exits_3(self, score_fixture, capsys):
        from lgpnet import tensorio

        tensors = tensorio.load_tensors(score_fixture / "model.lgpn")
        tensors["cfg.channels"] = np.array([2.0**20], dtype=np.float32)
        tensorio.save_tensors(score_fixture / "wide.lgpn", tensors)
        assert score_with(score_fixture, score_fixture / "wide.lgpn") == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {score_fixture / 'wide.lgpn'}: tensor "
                              "'path0.stem.conv.weight' has shape")
        assert "Traceback" not in err
        assert not (score_fixture / "out").exists()

    def test_oversized_input_length_exits_3(self, score_fixture, capsys):
        """No stored tensor bounds N, so the config refuses it itself, before
        anything it sizes is allocated."""
        from lgpnet import tensorio

        tensors = tensorio.load_tensors(score_fixture / "model.lgpn")
        tensors["cfg.input_length"] = np.array([2.0**30], dtype=np.float32)
        tensorio.save_tensors(score_fixture / "long.lgpn", tensors)
        tracemalloc.start()
        try:
            code = score_with(score_fixture, score_fixture / "long.lgpn")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        err = capsys.readouterr().err
        assert err == (f"error: {score_fixture / 'long.lgpn'}: checkpoint config: "
                       "input length 1073741824 is more than 65536\n")
        assert not (score_fixture / "out").exists()
        assert peak < 4 * 2**20, f"traced peak {peak} bytes"


class TestNonFiniteFeatures:
    @pytest.fixture
    def nan_fixture(self, score_fixture):
        # built by hand: store_features refuses to write a NaN
        feats = np.random.default_rng(4).normal(size=(20, 2))
        feats[7, 1] = np.nan
        (score_fixture / "feats" / "u1.lgpf").write_bytes(container_bytes({"features": feats}))
        return score_fixture

    @pytest.mark.parametrize("score", [
        lambda root: score_with(root, root / "model.lgpn"), score_gmm_with,
    ], ids=["score", "score-gmm"])
    def test_nan_frame_exits_3_without_scores(self, nan_fixture, capsys, score):
        assert score(nan_fixture) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "u1.lgpf" in err and "non-finite" in err
        assert "Traceback" not in err
        assert not (nan_fixture / "out").exists()


class TestBadFeatureFiles:
    """A feature file is a tensor container holding one (T, D) tensor
    ``features``; anything else exits 3 with the file's name."""

    @pytest.mark.parametrize("blob, message", [
        # the retired LGPF layout: magic, version u16, rows u32, cols u32, f32 data
        (b"LGPF" + struct.pack("<HII", 1, 20, 2) + np.ones(40, "<f4").tobytes(),
         "bad magic bytes"),
        (container_bytes({"features": np.ones((20, 2)), "extra": np.ones(1)}),
         "expected one tensor 'features'"),
        (container_bytes({"frames": np.ones((20, 2))}), "expected one tensor 'features'"),
        (container_bytes({"features": np.ones(40)}), "has rank 1, expected 2"),
    ], ids=["old-layout", "second-tensor", "wrong-name", "rank-1"])
    def test_exits_3_naming_the_file(self, score_fixture, capsys, blob, message):
        (score_fixture / "feats" / "u1.lgpf").write_bytes(blob)
        assert score_gmm_with(score_fixture) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "u1.lgpf" in err and message in err
        assert "Traceback" not in err
        assert not (score_fixture / "out").exists()


class TestBadGmmFiles:
    def test_corrupt_second_gmm_is_named(self, score_fixture, capsys):
        root = score_fixture
        (root / "bad.gmm").write_bytes(b"XXXX" + (root / "m.gmm").read_bytes()[4:])
        assert score_gmm_with(root, spoof="bad.gmm") == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {root / 'bad.gmm'}: bad magic bytes")
        assert "Traceback" not in err
        assert not (root / "out").exists()

    def test_gmm_with_a_missing_tensor_is_named(self, score_fixture, capsys):
        from lgpnet import tensorio

        root = score_fixture
        tensors = tensorio.load_tensors(root / "m.gmm")
        del tensors["vars"]
        tensorio.save_tensors(root / "cut.gmm", tensors)
        assert score_gmm_with(root, genuine="cut.gmm") == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {root / 'cut.gmm'}: GMM checkpoint is missing tensor")

    def test_gmms_of_different_widths_are_refused_before_any_feature_file(
            self, score_fixture, capsys):
        from lgpnet.gmm import Gmm

        root = score_fixture
        Gmm(np.full(4, 0.25), np.zeros((4, 3)), np.ones((4, 3))).save(root / "wide.gmm")
        (root / "feats" / "u1.lgpf").write_bytes(b"garbage")   # never read
        assert score_gmm_with(root, spoof="wide.gmm") == 3
        assert capsys.readouterr().err == (f"error: {root / 'wide.gmm'}: 3 values per frame, "
                                           f"but {root / 'm.gmm'} has 2\n")
        assert not (root / "out").exists()

    @pytest.mark.parametrize("pairs, message", [
        ([("weights", np.ones(2)), ("weights", np.ones(2))], "duplicate tensor name 'weights'"),
        ([("weights", np.ones((1,) * 9))], "tensor 'weights' has invalid rank 9"),
    ], ids=["duplicate-name", "rank-9"])
    def test_malformed_container_is_named(self, score_fixture, capsys, pairs, message):
        root = score_fixture
        (root / "bad.gmm").write_bytes(container_bytes(pairs))
        assert score_gmm_with(root, genuine="bad.gmm") == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {root / 'bad.gmm'}: {message}")
        assert "Traceback" not in err
        assert not (root / "out").exists()


class TestPerFileErrorsNameTheFile:
    """An error in one file's step of a per-file command names that file."""

    @pytest.fixture
    def wide(self, score_fixture):
        from lgpnet.frontend import store_features

        store_features(score_fixture / "feats" / "u1.lgpf", np.ones((20, 3)))
        return score_fixture / "feats" / "u1.lgpf"

    @pytest.mark.parametrize("command", [
        lambda root: score_with(root, root / "model.lgpn"), score_gmm_with,
    ], ids=["score", "score-gmm"])
    def test_feature_width_mismatch(self, score_fixture, wide, capsys, command):
        assert command(score_fixture) == 3
        assert capsys.readouterr().err == (f"error: {wide}: "
                                           "frames have shape (20, 3), expected (T, 2)\n")
        assert not (score_fixture / "out").exists()

    def test_extract_lfcc_of_a_file_that_is_not_wav(self, tmp_path, capsys):
        (tmp_path / "wavs").mkdir()
        (tmp_path / "wavs" / "x.wav").write_bytes(b"ID3 mp3 data, not RIFF")
        assert run("extract-lfcc", "--wav-dir", tmp_path / "wavs", "--out-dir",
                   tmp_path / "feats") == 3
        assert capsys.readouterr().err == (f"error: {tmp_path / 'wavs' / 'x.wav'}: not a WAV file: "
                                           "file does not start with RIFF id\n")
        assert not (tmp_path / "feats" / "x.lgpf").exists()


class TestBadModelFiles:
    @staticmethod
    def rewrite(path, name, value):
        # the container is built by hand: save_tensors refuses to write a NaN
        from lgpnet import tensorio

        tensors = tensorio.load_tensors(path)
        tensors[name] = value(tensors[name].copy())
        path.write_bytes(container_bytes(tensors))

    @staticmethod
    def nan_at_1(array):
        array.flat[1] = np.nan
        return array

    @pytest.mark.parametrize("file, tensor, command", [
        ("m.gmm", "means", score_gmm_with),
        ("m.gmm", "means", lambda root: score_with(root, root / "model.lgpn")),
        ("m.stats", "lgp_mean", lambda root: score_with(root, root / "model.lgpn")),
    ], ids=["score-gmm-gmm", "score-gmm", "score-stats"])
    def test_nan_entry_exits_3_without_output(self, score_fixture, capsys, file, tensor, command):
        self.rewrite(score_fixture / file, tensor, self.nan_at_1)
        assert command(score_fixture) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {score_fixture / file}: ") and "must be finite" in err
        assert "Traceback" not in err
        assert not (score_fixture / "out").exists()

    @pytest.mark.parametrize("tensor, corrupt, message", [
        ("path0.block0.conv1.weight", nan_at_1, "non-finite value"),
        ("path0.block0.bn1.running_var", lambda v: -v, "negative variance"),
    ], ids=["nan-weight", "negative-running-var"])
    def test_corrupt_checkpoint_exits_3_without_scores(self, score_fixture, capsys,
                                                       tensor, corrupt, message):
        self.rewrite(score_fixture / "model.lgpn", tensor, corrupt)
        assert score_with(score_fixture, score_fixture / "model.lgpn") == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {score_fixture / 'model.lgpn'}: ")
        assert tensor in err and message in err
        assert "Traceback" not in err
        assert not (score_fixture / "out").exists()

    def test_empty_stats_form_exits_3(self, score_fixture, capsys):
        self.rewrite(score_fixture / "m.stats", "form", lambda form: form[:0])
        assert score_with(score_fixture, score_fixture / "model.lgpn") == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {score_fixture / 'm.stats'}: ")
        assert "'form' has shape (0,)" in err
        assert "Traceback" not in err
        assert not (score_fixture / "out").exists()


class TestPooledFrames:
    """``train-gmm`` and ``fit-lgp-stats`` pool frames of one width only."""

    def test_directory_with_a_wider_file_exits_3_naming_it(self, tmp_path, capsys):
        from lgpnet.frontend import store_features

        store_features(tmp_path / "feats" / "u1.lgpf", np.ones((4, 20)))
        store_features(tmp_path / "feats" / "u2.lgpf", np.ones((4, 31)))
        code = run("train-gmm", "--features", tmp_path / "feats", "--components", 2,
                   "--out", tmp_path / "new" / "m.gmm")
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith(f"error: {tmp_path / 'feats' / 'u2.lgpf'}: 31 values per frame, "
                              f"but {tmp_path / 'feats' / 'u1.lgpf'} has 20")
        assert "Traceback" not in err
        assert not (tmp_path / "new").exists()

    def test_list_with_a_wider_file_exits_3_naming_it(self, score_fixture, capsys):
        from lgpnet.frontend import store_features

        root = score_fixture
        store_features(root / "wide.lgpf", np.ones((20, 3)))
        listing = root / "feats.list"
        listing.write_text(f"{root / 'feats' / 'u1.lgpf'}\n{root / 'wide.lgpf'}\n")
        code = run("fit-lgp-stats", "--gmm", root / "m.gmm", "--features", listing,
                   "--out", root / "new" / "m.stats")
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith(f"error: {root / 'wide.lgpf'}: 3 values per frame, "
                              f"but {root / 'feats' / 'u1.lgpf'} has 2")
        assert not (root / "new").exists()

    def test_frames_wider_than_the_gmm_refused_by_fit_lgp_stats(self, score_fixture, capsys):
        from lgpnet.frontend import store_features

        root = score_fixture
        for name in ("a", "b"):
            store_features(root / "wide" / f"{name}.lgpf", np.ones((4, 20)))
        code = run("fit-lgp-stats", "--gmm", root / "m.gmm", "--features", root / "wide",
                   "--out", root / "new" / "m.stats")
        err = capsys.readouterr().err
        assert code == 3 and "frames have shape (8, 20), expected (N, 2)" in err
        assert not (root / "new").exists()


class TestPooledFramesMemory:
    def test_peak_is_the_result_and_one_file(self, tmp_path):
        """Pooling holds the pooled array and one file's data at a time."""
        import tracemalloc

        from lgpnet.cli import _pooled_frames
        from lgpnet.frontend import store_features

        rng = np.random.default_rng(5)
        for i in range(40):
            store_features(tmp_path / f"u{i:02d}.lgpf", rng.normal(size=(1000, 60)))
        one_file = (tmp_path / "u00.lgpf").stat().st_size
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            pooled = _pooled_frames(str(tmp_path))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        print(f"pooled {pooled.nbytes / 2**20:.2f} MiB, peak {peak / 2**20:.2f} MiB, "
              f"one file {one_file / 2**20:.2f} MiB")
        assert pooled.shape == (40_000, 60) and pooled.dtype == np.float32
        # 64 KiB for the file list, the read buffer and other small objects
        assert peak <= pooled.nbytes + one_file + 64 * 2**10


class TestTrainGmmTrace:
    def test_prints_one_line_per_iteration(self, score_fixture, capsys):
        from lgpnet.frontend import load_features
        from lgpnet.gmm import EmConfig, train_em

        root = score_fixture
        assert run("train-gmm", "--features", root / "feats", "--components", 2,
                   "--iters", 4, "--seed", 3, "--out", root / "t.gmm") == 0
        lines = capsys.readouterr().out.splitlines()
        _, trace = train_em(load_features(root / "feats" / "u1.lgpf"), 2,
                            EmConfig(iterations=4, seed=3))
        assert lines[:4] == [f"em iteration {i + 1}/4: avg log-likelihood {trace[i]:.4f}"
                             for i in range(4)]
        assert lines[4].startswith("trained 2-component GMM on 20 frames "
                                   f"(avg log-likelihood {trace[4]:.4f})")
        assert len(lines) == 5


def write_silent_wav(path, sample_width, rate, frames):
    import wave

    path.parent.mkdir(exist_ok=True)
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(sample_width)
        fh.setframerate(rate)
        fh.writeframes(bytes(sample_width * frames))


class TestRefusedInputs:
    """A value or input file a command cannot use exits 3 with its message,
    and nothing is written under ``new/``."""

    CASES = {
        "gen-corpus-dim-0": (
            lambda root: ("gen-corpus", "--dim", 0, "--out", root / "new"),
            "dim must be >= 1"),
        "train-gmm-components-0": (
            lambda root: ("train-gmm", "--features", root / "feats", "--components", 0,
                          "--out", root / "new" / "m.gmm"),
            "component count must be >= 1"),
        "train-gmm-iters-0": (
            lambda root: ("train-gmm", "--features", root / "feats", "--components", 2,
                          "--iters", 0, "--out", root / "new" / "m.gmm"),
            "iterations must be >= 1"),
        "train-gmm-empty-list": (
            lambda root: ("train-gmm", "--features", root / "empty.list", "--components", 2,
                          "--out", root / "new" / "m.gmm"),
            "{root}/empty.list: empty feature list"),
        "extract-lfcc-no-wav": (
            lambda root: ("extract-lfcc", "--wav-dir", root / "no-wavs", "--out-dir", root / "new"),
            "{root}/no-wavs: no .wav files found"),
        "extract-lfcc-8-bit": (
            lambda root: ("extract-lfcc", "--wav-dir", root / "wav8", "--out-dir", root / "new"),
            "{root}/wav8/a.wav: expected 16-bit PCM, got 8-bit"),
        "extract-lfcc-48-khz": (
            lambda root: ("extract-lfcc", "--wav-dir", root / "wav48", "--out-dir", root / "new"),
            "{root}/wav48/a.wav: FFT size 512 shorter than the 960-sample window"),
        "evaluate-empty-scores": (
            lambda root: ("evaluate", "--scores", root / "empty.scores", "--protocol",
                          root / "eval.txt", "--out", root / "new" / "metrics.txt"),
            "{root}/empty.scores: empty score file"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_exits_3_writing_nothing(self, score_fixture, capsys, case):
        root = score_fixture
        (root / "empty.list").write_text("\n")
        (root / "no-wavs").mkdir()
        write_silent_wav(root / "wav8" / "a.wav", 1, 16000, 3200)
        write_silent_wav(root / "wav48" / "a.wav", 2, 48000, 9600)
        (root / "empty.scores").write_text("")
        argv, message = self.CASES[case]
        assert run(*argv(root)) == 3
        captured = capsys.readouterr()
        assert captured.err == f"error: {message.format(root=root)}\n"
        assert "Traceback" not in captured.err
        assert captured.out == "" and not (root / "new").exists()


class TestWritersRefuseNonFinite:
    """A value that overflows float32 is refused before its file is opened,
    since the file's reader would refuse it."""

    def test_fit_lgp_stats_writes_no_overflowed_stats(self, tmp_path, capsys):
        from lgpnet.frontend import store_features
        from lgpnet.gmm import Gmm

        # raw LGP of x = 1e10 under variance 1e-30 is -5e49, beyond float32
        Gmm(np.full(2, 0.5), np.zeros((2, 1)), np.array([[1.0], [1e-30]])).save(tmp_path / "m.gmm")
        store_features(tmp_path / "feats" / "u1.lgpf", np.array([[1e10], [0.5], [-0.5]]))
        code = run("fit-lgp-stats", "--gmm", tmp_path / "m.gmm", "--features", tmp_path / "feats",
                   "--out", tmp_path / "new" / "m.stats")
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error:") and "'lgp_mean'" in err and "not finite as float32" in err
        assert "Traceback" not in err
        assert not (tmp_path / "new").exists()

    def test_train_gmm_writes_no_overflowed_gmm(self, tmp_path, capsys):
        from lgpnet.frontend import store_features

        # a component over frames at +-1e20 has a variance near 1e40, beyond float32
        store_features(tmp_path / "feats" / "u1.lgpf",
                       np.array([[1e20], [-1e20], [1e20], [-1e20], [0.0]]))
        code = run("train-gmm", "--features", tmp_path / "feats", "--components", 2,
                   "--out", tmp_path / "new" / "m.gmm")
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error:") and "'vars'" in err and "not finite as float32" in err
        assert "Traceback" not in err
        assert not (tmp_path / "new").exists()


class TestRunConfig:
    def test_defaults_round_trip(self, tmp_path):
        cfg = RunConfig()
        path = tmp_path / "run.cfg"
        write_flat_config(cfg, path)
        assert read_flat_config(RunConfig, path) == cfg

    def test_values_parsed_with_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("channels = 32  # small\nse_enabled = true\nlr = 5e-4\n")
        cfg = read_flat_config(RunConfig, path)
        assert cfg.channels == 32 and cfg.se_enabled is True and cfg.lr == 5e-4

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("channels = 32\nchannels = 64\n")
        with pytest.raises(ProtocolError):
            read_flat_config(RunConfig, path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("channels = many\n")
        with pytest.raises(ProtocolError):
            read_flat_config(RunConfig, path)

    @pytest.mark.parametrize("pairs", [1, 2])
    def test_build_maps_the_run_keys(self, pairs):
        """One path per GMM and stats pair, the stats' LGP form, and
        ``segment_length`` as both the model input and the training length."""
        from lgpnet.gmm import Gmm
        from lgpnet.lgp import fit_norm_stats

        rng = np.random.default_rng(2)
        gmm = Gmm(np.full(4, 0.25), rng.normal(size=(4, 2)), np.ones((4, 2)))
        stats = fit_norm_stats(gmm, rng.normal(size=(50, 2)), "full")
        run = RunConfig(gmm_order=4, channels=8, blocks=1, se_enabled=True, se_reduction=4,
                        segment_length=16, batch_size=3, epochs=2, lr=0.01, seed=5)
        model, train_cfg = run.build([gmm] * pairs, [stats] * pairs)
        assert model.cfg == ClassifierConfig(gmm_order=4, channels=8, blocks=1,
                                             se_enabled=True, se_reduction=4, input_length=16,
                                             paths=pairs, lgp_form="full")
        assert train_cfg == TrainConfig(batch_size=3, epochs=2, lr=0.01, seed=5,
                                        target_length=16)
        assert len(model.paths) == pairs

    def test_removed_gmm_keys_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        for removed in ("em_iterations = 30\n", "lgp_form = fast\n"):
            path.write_text(removed)
            with pytest.raises(ProtocolError, match="unknown key"):
                read_flat_config(RunConfig, path)


class TestTrainConfigChecks:
    """A run config line that the parser, the model or the schedule refuses
    stops ``train`` before anything is written."""

    @pytest.mark.parametrize("line,message", [
        ("segment_length = 33", "input length must be even"),
        ("segment_length = 65538", "input length 65538 is more than 65536"),
        ("step1_epochs = 2", "unknown key 'step1_epochs' (line 4)"),
        ("step2_epochs = 2", "unknown key 'step2_epochs' (line 4)"),
        ("epochs", "expected 'key = value' (line 4)"),
        ("se_enabled = maybe", "bad value for 'se_enabled': not a boolean: 'maybe' (line 4)"),
        ("workers = 0", "workers must be >= 1"),
        ("paths = 2", "unknown key 'paths' (line 4)"),
    ])
    def test_train_exits_3_without_model(self, score_fixture, capsys, line, message):
        code = train_with(score_fixture, f"{line}\n")
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {score_fixture / 'run.cfg'}: ") and message in err
        assert "Traceback" not in err
        assert not (score_fixture / "ckpt").exists()

    @pytest.mark.parametrize("sizes", [
        "channels = 1099511627776\nblocks = 1\n", "channels = 8\nblocks = 1099511627776\n",
    ], ids=["channels", "blocks"])
    def test_oversized_model_exits_3_writing_nothing(self, score_fixture, capsys, sizes):
        """The conv weights are counted before any layer is built."""
        assert train_with(score_fixture, "", sizes=sizes) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {score_fixture / 'run.cfg'}: channels and blocks make ")
        assert "conv weights, more than 134217728\n" in err and "Traceback" not in err
        assert not (score_fixture / "ckpt").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_learning_rate_exits_3_writing_nothing(self, score_fixture, capsys,
                                                              value):
        assert train_with(score_fixture, f"lr = {value}\n") == 3
        assert capsys.readouterr().err == (f"error: {score_fixture / 'run.cfg'}: "
                                           "learning rate must be positive and finite\n")
        assert not (score_fixture / "ckpt").exists()


@pytest.fixture
def train_fixture(score_fixture):
    """``score_fixture`` plus ``train.txt``, four utterances of both classes."""
    from lgpnet.frontend import store_features

    rng = np.random.default_rng(8)
    labels = {}
    for i in range(4):
        store_features(score_fixture / "feats" / f"t{i}.lgpf", rng.normal(size=(20, 2)) + i % 2)
        labels[f"t{i}"] = "bonafide" if i % 2 else "spoof"
    write_protocol(score_fixture / "train.txt", labels)
    return score_fixture


class TestDivergedTraining:
    """A run whose state leaves float32 stops at that epoch: exit 4 with
    ``numeric failure:``, no traceback and no model file."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("lr, tensor", [
        ("1e300", "head.weight"),
        # parameters stay finite, a batch-norm running variance does not
        # (from lr 1e18 on, float32 steps overflow the stem conv's weight)
        ("1e12", "path0.block0.bn1.running_var"),
    ])
    def test_exits_4_without_a_model(self, train_fixture, capsys, lr, tensor):
        code = train_with(train_fixture, f"segment_length = 16\nbatch_size = 2\nepochs = 2\n"
                          f"lr = {lr}\n", protocol="train.txt")
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("numeric failure: after epoch ")
        assert f"tensor '{tensor}' has a value that is not finite as float32" in err
        assert "Traceback" not in err
        assert not (train_fixture / "ckpt" / "model.lgpn").exists()


class TestMetricsLog:
    """``metrics.log`` names the fit of each epoch with two paths, and marks
    the epoch of each fit whose state ``model.lgpn`` holds."""

    @pytest.mark.parametrize("paths, fits", [
        (1, [""]), (2, ["path 0 ", "path 1 ", "step 2 "]),
    ], ids=["one-path", "two-path"])
    def test_fits_in_order_each_with_one_kept_epoch(self, train_fixture, capsys, paths, fits):
        root = train_fixture
        write_protocol(root / "dev.txt", {"t0": "spoof", "t1": "bonafide", "t2": "spoof",
                                          "t3": "bonafide"})
        files = ["--gmm", root / "m.gmm", "--stats", root / "m.stats"]
        if paths == 2:
            files += ["--gmm2", root / "m.gmm", "--stats2", root / "m.stats"]
        code = train_with(root, "segment_length = 16\nbatch_size = 2\nepochs = 3\n", *files,
                          "--dev-protocol", root / "dev.txt", protocol="train.txt")
        assert code == 0
        # the pairs given set the path count; the resolved config has no such key
        cfg = tensorio.load_tensors(root / "ckpt" / "model.lgpn")["cfg.paths"]
        assert cfg.tolist() == [paths]
        assert "paths" not in (root / "ckpt" / "resolved-config.cfg").read_text()
        lines = (root / "ckpt" / "metrics.log").read_text().splitlines()
        assert len(lines) == 3 * len(fits)
        printed = [line for line in capsys.readouterr().out.splitlines() if " loss " in line]
        assert printed == [line.removesuffix(" kept") for line in lines]
        for k, fit in enumerate(fits):
            own = lines[3 * k : 3 * k + 3]
            assert [line.split(" loss ")[0] for line in printed[3 * k : 3 * k + 3]] == [
                f"{fit}epoch {e}" for e in (1, 2, 3)]
            eers = [float(line.split("dev_eer ")[1].split()[0]) for line in own]
            assert [line.endswith(" kept") for line in own] == [
                e == eers.index(min(eers)) for e in range(3)]


class TestBadTrainingFeatures:
    """A train or dev feature file with no frames, or with frames not as wide
    as the GMM's, is refused when the datasets load: exit 3 naming the
    file, before anything is written."""

    @pytest.mark.parametrize("shape", [(0, 2), (20, 3)], ids=["no-frames", "too-wide"])
    @pytest.mark.parametrize("partition", ["train", "dev"])
    def test_exits_3_naming_the_file(self, train_fixture, capsys, partition, shape):
        from lgpnet.frontend import store_features

        root = train_fixture
        bad = root / "feats" / f"{partition}-bad.lgpf"
        store_features(bad, np.ones(shape))
        labels = {"t0": "spoof", "t1": "bonafide", f"{partition}-bad": "bonafide"}
        write_protocol(root / f"{partition}.txt", labels)
        write_protocol(root / "dev-ok.txt", {"t2": "spoof", "t3": "bonafide"})
        dev = root / ("dev.txt" if partition == "dev" else "dev-ok.txt")
        code = train_with(root, "segment_length = 16\n", "--gmm", root / "m.gmm",
                          "--stats", root / "m.stats", "--dev-protocol", dev,
                          protocol="train.txt")
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: {bad}: frames have shape {shape}, expected (T >= 1, 2)\n")
        assert not (root / "ckpt").exists()


class TestOneClassTrials:
    """A dev set or a score file whose trials are all of one class has no
    EER: each command refuses it naming its files, before writing anything."""

    MESSAGE = "is bonafide; need at least one trial of each class\n"

    def test_train_refuses_the_dev_protocol(self, train_fixture, capsys):
        root = train_fixture
        write_protocol(root / "dev.txt", {"t1": "bonafide", "t3": "bonafide"})
        code = train_with(root, "segment_length = 16\n", "--gmm", root / "m.gmm",
                          "--stats", root / "m.stats", "--dev-protocol", root / "dev.txt",
                          protocol="train.txt")
        assert code == 3
        assert capsys.readouterr().err == (f"error: {root / 'dev.txt'}: every trial of the "
                                           f"dev set {self.MESSAGE}")
        assert not (root / "ckpt").exists()

    def test_train_refuses_a_one_class_training_protocol(self, train_fixture, capsys):
        root = train_fixture
        write_protocol(root / "bona.txt", {"t1": "bonafide", "t3": "bonafide"})
        code = train_with(root, "segment_length = 16\n", protocol="bona.txt")
        assert code == 3
        assert capsys.readouterr().err == (f"error: {root / 'bona.txt'}: every trial of the "
                                           f"training set {self.MESSAGE}")
        assert not (root / "ckpt").exists()

    @pytest.fixture
    def one_class(self, tmp_path):
        write_scores(tmp_path / "a.dev", {"b1": 2.0, "b2": 3.0})
        write_protocol(tmp_path / "dev.txt", {"b1": "bonafide", "b2": "bonafide"})
        return tmp_path

    def test_evaluate_names_the_protocol_and_the_scores(self, one_class, capsys):
        root = one_class
        code = run("evaluate", "--scores", root / "a.dev", "--protocol", root / "dev.txt",
                   "--out", root / "new" / "metrics.txt")
        assert code == 3
        assert capsys.readouterr().err == (f"error: {root / 'dev.txt'}: every trial of "
                                           f"{root / 'a.dev'} {self.MESSAGE}")
        assert not (root / "new").exists()

    def test_fuse_names_the_dev_protocol_and_the_scores(self, one_class, capsys):
        root = one_class
        code = run("fuse", "--dev", root / "a.dev", root / "a.dev", "--eval", root / "a.dev",
                   root / "a.dev", "--protocol", root / "dev.txt",
                   "--out", root / "new" / "fused.eval")
        assert code == 3
        assert capsys.readouterr().err == (f"error: {root / 'dev.txt'}: every trial of "
                                           f"{root / 'a.dev'} {self.MESSAGE}")
        assert not (root / "new").exists()


class TestModelFrontEnds:
    """The model's own check decides whether the --gmm/--gmm2/--stats/--stats2
    files fit it: the run config's model for ``train``, the checkpoint's for
    ``score``.  A misfit exits 3, names the file that defines the model and
    writes nothing.  Before that, a second GMM or stats file unlike the first
    exits 3 naming the second file."""

    @pytest.fixture
    def root(self, score_fixture):
        from lgpnet.gmm import Gmm
        from lgpnet.lgp import LgpNormStats, fit_norm_stats
        from lgpnet.model import ClassifierConfig, SpoofModel

        rng = np.random.default_rng(5)
        small = Gmm(np.full(2, 0.5), rng.normal(size=(2, 2)), rng.uniform(0.5, 1.5, size=(2, 2)))
        small.save(score_fixture / "small.gmm")
        fit_norm_stats(small, rng.normal(size=(200, 2)), "fast").save(score_fixture / "small.stats")
        gmm, stats = Gmm.load(score_fixture / "m.gmm"), LgpNormStats.load(score_fixture / "m.stats")
        cfg = ClassifierConfig(gmm_order=4, channels=8, blocks=1, input_length=16, paths=2)
        SpoofModel(cfg, [gmm, gmm], [stats, stats]).save(score_fixture / "two.lgpn")
        return score_fixture

    MISFITS = {
        "gmm-of-another-order": (("--gmm", "small.gmm", "--stats", "small.stats"),
                                 "GMM order 2 != configured 4"),
        "stats-under-another-gmm": (("--gmm", "m.gmm", "--stats", "small.stats"),
                                    "stats cover 2 components but their GMM has 4"),
    }

    @pytest.mark.parametrize("misfit", MISFITS)
    @pytest.mark.parametrize("command", ["train", "score"])
    def test_misfit_exits_3_writing_nothing(self, root, capsys, command, misfit):
        flags, message = self.MISFITS[misfit]
        files = [root / f if f.endswith((".gmm", ".stats")) else f for f in flags]
        if command == "train":
            code, named, output = train_with(root, "", *files), root / "run.cfg", root / "ckpt"
        else:
            code = score_with(root, root / "model.lgpn", *files)
            named, output = root / "model.lgpn", root / "out"
        assert code == 3
        assert capsys.readouterr().err == f"error: {named}: {message}\n"
        assert not output.exists()

    @pytest.mark.parametrize("second, message", [
        ("--gmm2", "{root}/wide.gmm: 3 values per frame, but {root}/m.gmm has 2"),
        ("--stats2", "{root}/full.stats: form 'full', but {root}/m.stats has 'fast'"),
    ], ids=["gmm-width", "stats-form"])
    @pytest.mark.parametrize("command", ["train", "score"])
    def test_second_file_unlike_the_first_exits_3_writing_nothing(self, root, capsys,
                                                                  command, second, message):
        # a second file is held against the first before any model is built
        from lgpnet.gmm import Gmm
        from lgpnet.lgp import fit_norm_stats

        rng = np.random.default_rng(6)
        Gmm(np.full(4, 0.25), rng.normal(size=(4, 3)), np.ones((4, 3))).save(root / "wide.gmm")
        fit_norm_stats(Gmm.load(root / "m.gmm"), rng.normal(size=(200, 2)),
                       "full").save(root / "full.stats")
        files = {"--gmm": "m.gmm", "--gmm2": "m.gmm", "--stats": "m.stats", "--stats2": "m.stats",
                 second: "wide.gmm" if second == "--gmm2" else "full.stats"}
        flags = [item for flag, name in files.items() for item in (flag, root / name)]
        if command == "train":
            code, output = train_with(root, "", *flags), root / "ckpt"
        else:
            code, output = score_with(root, root / "two.lgpn", *flags), root / "out"
        assert code == 3
        assert capsys.readouterr().err == f"error: {message.format(root=root)}\n"
        assert not output.exists()

    @pytest.mark.parametrize("half", ["--gmm2", "--stats2"])
    @pytest.mark.parametrize("command", ["train", "score"])
    def test_half_pair_is_a_usage_error(self, tmp_path, capsys, command, half):
        """A second GMM without its stats, or the reverse, exits 2 before any
        file is read: none of the files named here exists."""
        flags = ["--features", tmp_path / "feats", "--protocol", tmp_path / "p.txt",
                 "--gmm", tmp_path / "a.gmm", "--stats", tmp_path / "a.stats",
                 half, tmp_path / "b", "--out", tmp_path / "out"]
        flags += ["--model", tmp_path / "m.lgpn"] if command == "score" else []
        assert run(command, *flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: lgpnet ") and "Traceback" not in err
        assert err.endswith(f"error: {command} takes --gmm2 and --stats2 together, "
                            "or neither\n")
        assert not (tmp_path / "out").exists()

    def test_one_path_checkpoint_with_second_pair_exits_3(self, root, capsys):
        pair = ("--gmm", root / "m.gmm", "--gmm2", root / "m.gmm",
                "--stats", root / "m.stats", "--stats2", root / "m.stats")
        assert score_with(root, root / "model.lgpn", *pair) == 3
        assert capsys.readouterr().err == (f"error: {root / 'model.lgpn'}: a 1-path model takes "
                                           "1 GMM(s) and 1 stats, got 2 and 2\n")
        assert not (root / "out").exists()

    def test_two_path_checkpoint_without_second_pair_exits_3(self, root, capsys):
        assert score_with(root, root / "two.lgpn") == 3
        assert capsys.readouterr().err == (f"error: {root / 'two.lgpn'}: a 2-path model takes "
                                           "2 GMM(s) and 2 stats, got 1 and 1\n")
        assert not (root / "out").exists()

    def test_two_path_checkpoint_scores_with_second_pair(self, root):
        pair = ("--gmm", root / "m.gmm", "--gmm2", root / "m.gmm",
                "--stats", root / "m.stats", "--stats2", root / "m.stats")
        assert score_with(root, root / "two.lgpn", *pair) == 0
        assert list(read_scores(root / "out" / "scores.eval")) == ["u1"]


class TestTdcfConfig:
    def test_duplicate_key_exits_3(self, perfect_fixture, tmp_path, capsys):
        scores, proto = perfect_fixture
        cfg = tmp_path / "tdcf.cfg"
        cfg.write_text("p_fa_asv = 0.01\np_fa_asv = 0.02\n")
        code = run("evaluate", "--scores", scores, "--protocol", proto, "--tdcf-config", cfg)
        assert code == 3
        assert "duplicate key 'p_fa_asv' (line 2)" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_cost_exits_3_writing_nothing(self, perfect_fixture, tmp_path, capsys,
                                                     value):
        scores, proto = perfect_fixture
        cfg = tmp_path / "tdcf.cfg"
        cfg.write_text(f"c_fa_cm = {value}\n")
        out = tmp_path / "new" / "metrics.txt"
        code = run("evaluate", "--scores", scores, "--protocol", proto, "--tdcf-config", cfg,
                   "--out", out)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == f"error: {cfg}: costs must be positive and finite\n"
        assert captured.out == "" and not out.parent.exists()

    @pytest.mark.parametrize("line, message", [
        ("p_target = 1.5", "priors must lie in (0, 1)"),
        ("p_miss_asv = 2", "ASV error rates must lie in [0, 1]"),
    ], ids=["prior", "asv-rate"])
    def test_out_of_range_value_exits_3_writing_nothing(self, perfect_fixture, tmp_path, capsys,
                                                        line, message):
        scores, proto = perfect_fixture
        cfg = tmp_path / "tdcf.cfg"
        cfg.write_text(f"{line}\n")
        out = tmp_path / "new" / "metrics.txt"
        code = run("evaluate", "--scores", scores, "--protocol", proto, "--tdcf-config", cfg,
                   "--out", out)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == f"error: {cfg}: {message}\n"
        assert captured.out == "" and not out.parent.exists()


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def script(name: str):
    """The module of ``scripts/<name>.py``."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_script(name: str, *argv) -> list[str]:
    """The stdout lines of ``scripts/<name>.py`` run with ``argv``, which
    must exit 0."""
    import subprocess
    import sys

    proc = subprocess.run([sys.executable, str(SCRIPTS / f"{name}.py"), *map(str, argv)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


class TestDeterminism:
    def test_gen_corpus_artifacts_reproducible(self, tmp_path):
        for sub in ("a", "b"):
            assert run(
                "gen-corpus", "--task", "order-only", "--out", tmp_path / sub,
                "--seed", 3, "--train-utts", 8, "--dev-utts", 4, "--eval-utts", 4,
            ) == 0
        tree_digest = script("tree_digest").tree_digest
        digests = [tree_digest(tmp_path / sub) for sub in ("a", "b")]
        assert digests[0] == digests[1] and len(digests[0]) == 20    # 16 features, 3 protocols, spec

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
    @pytest.fixture
    def short_utterances(self, tmp_path):
        """A bona fide and a spoof GMM, and 24 utterances of 1 to 90 frames."""
        from lgpnet.frontend import store_features
        from lgpnet.gmm import Gmm

        rng = np.random.default_rng(12)
        for name in ("a", "b"):
            Gmm(np.full(8, 0.125), rng.normal(size=(8, 3)),
                rng.uniform(0.2, 1.0, size=(8, 3))).save(tmp_path / f"{name}.gmm")
        (tmp_path / "feats").mkdir()
        labels = {}
        for i, length in enumerate([1, *rng.integers(2, 40, size=20), 1, 90, 3]):
            store_features(tmp_path / "feats" / f"u{i:02d}.lgpf",
                           rng.normal(size=(length, 3)) * 2.0)
            labels[f"u{i:02d}"] = "bonafide" if i % 2 else "spoof"
        write_protocol(tmp_path / "eval.txt", labels)
        return tmp_path

    @staticmethod
    def assert_scores_are_llr_score(root):
        """``score-gmm`` writes the bytes of ``llr_score`` of each utterance,
        read and scored alone."""
        from lgpnet.frontend import load_features
        from lgpnet.gmm import Gmm, llr_score

        assert run("score-gmm", "--gmm", root / "a.gmm", "--gmm2", root / "b.gmm",
                   "--features", root / "feats", "--protocol", root / "eval.txt",
                   "--out", root / "scored.eval") == 0
        genuine, spoof = Gmm.load(root / "a.gmm"), Gmm.load(root / "b.gmm")
        alone = {u: llr_score(genuine, spoof, load_features(root / "feats" / f"{u}.lgpf"))
                 for u in read_scores(root / "scored.eval")}
        expected = root / "alone.eval"
        write_scores(expected, alone)
        assert (root / "scored.eval").read_bytes() == expected.read_bytes()

    def test_short_utterances_score_as_llr_score(self, short_utterances):
        self.assert_scores_are_llr_score(short_utterances)

    def test_scores_at_an_order_not_a_multiple_of_8_are_llr_score(self, tmp_path):
        """At M = 500, D = 60, where OpenBLAS can round a row of a product
        by where it sits in the product, every utterance of a protocol of
        49-frame and shorter or longer ones scores as it does alone."""
        from lgpnet.frontend import store_features
        from test_gmm import clustered_frames, paper_shape_model

        rng = np.random.default_rng(1)
        frames = clustered_frames(rng, 3000, 60, np.float32)
        for name in ("a", "b"):
            paper_shape_model(rng, frames, 500).save(tmp_path / f"{name}.gmm")
        (tmp_path / "feats").mkdir()
        labels = {}
        for i, length in enumerate([49] * 40 + [5, 33, 7, 60]):
            store_features(tmp_path / "feats" / f"u{i:02d}.lgpf",
                           clustered_frames(rng, length, 60, np.float32))
            labels[f"u{i:02d}"] = "bonafide" if i % 2 else "spoof"
        write_protocol(tmp_path / "eval.txt", labels)
        self.assert_scores_are_llr_score(tmp_path)

    def test_held_memory_flat_in_utterances(self, tmp_path):
        """Scoring holds one utterance's frames at a time, however many
        utterances the protocol has: 8 and 32 utterances of 512 frames at
        the paper shape."""
        import tracemalloc

        from lgpnet.frontend import store_features
        from lgpnet.gmm import Gmm

        rng = np.random.default_rng(13)
        for name in ("a", "b"):
            Gmm(np.full(512, 1 / 512), rng.normal(size=(512, 60)),
                rng.uniform(0.5, 1.5, size=(512, 60))).save(tmp_path / f"{name}.gmm")
        (tmp_path / "feats").mkdir()
        for i in range(32):
            store_features(tmp_path / "feats" / f"u{i:02d}.lgpf", rng.normal(size=(512, 60)))
        peaks = []
        for count in (8, 32):
            write_protocol(tmp_path / "eval.txt",
                           {f"u{i:02d}": "bonafide" if i % 2 else "spoof" for i in range(count)})
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                assert run("score-gmm", "--gmm", tmp_path / "a.gmm", "--gmm2", tmp_path / "b.gmm",
                           "--features", tmp_path / "feats", "--protocol", tmp_path / "eval.txt",
                           "--out", tmp_path / f"n{count}.eval") == 0
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        print(f"score-gmm traced peak: 8 utterances {peaks[0] / 2**20:.2f} MiB, "
              f"32 utterances {peaks[1] / 2**20:.2f} MiB")
        assert peaks[1] <= 1.05 * peaks[0]

    @staticmethod
    def assert_network_scores_match_oracle(root, rng, lengths, **cfg):
        """``score`` of a random checkpoint of ``cfg`` writes, for each
        utterance, the ``plain_net`` score of that utterance read alone (to
        ``TestScoringPlan``'s 1e-9 relative bound), and a distinct score per
        utterance."""
        import plain_net
        from lgpnet.frontend import load_features, store_features
        from lgpnet.gmm import Gmm
        from lgpnet.lgp import LgpNormStats, fit_norm_stats
        from lgpnet.model import ClassifierConfig, SpoofModel

        gmm = Gmm(np.full(4, 0.25), rng.normal(size=(4, 2)), rng.uniform(0.5, 1.5, size=(4, 2)))
        stats = fit_norm_stats(gmm, rng.normal(size=(200, 2)), "fast")
        gmm.save(root / "m.gmm")
        stats.save(root / "m.stats")
        model = SpoofModel(ClassifierConfig(gmm_order=4, channels=8, blocks=2, **cfg),
                           [gmm], [stats])
        model.fc.weight.data[...] = rng.normal(size=model.fc.weight.shape)
        model.save(root / "model.lgpn")
        (root / "feats").mkdir()
        labels = {}
        for i, length in enumerate(lengths):
            store_features(root / "feats" / f"u{i}.lgpf", rng.normal(size=(length, 2)))
            labels[f"u{i}"] = "bonafide" if i % 2 else "spoof"
        write_protocol(root / "eval.txt", labels)
        assert run("score", "--model", root / "model.lgpn", "--features", root / "feats",
                   "--protocol", root / "eval.txt", "--gmm", root / "m.gmm",
                   "--stats", root / "m.stats", "--out", root / "scored.eval") == 0
        scored = read_scores(root / "scored.eval")
        assert list(scored) == list(labels)
        assert len(set(scored.values())) == len(labels)
        oracle = SpoofModel.load(root / "model.lgpn", [Gmm.load(root / "m.gmm")],
                                 [LgpNormStats.load(root / "m.stats")])
        for utt_id, value in scored.items():
            want = plain_net.score_utterance(oracle, load_features(root / "feats" / f"{utt_id}.lgpf"))
            assert abs(value - want) <= 1e-9 * abs(want), (utt_id, value, want)

    def test_network_scores_match_oracle(self, tmp_path):
        rng = np.random.default_rng(11)
        self.assert_network_scores_match_oracle(
            tmp_path, rng, rng.integers(5, 60, size=16),
            se_enabled=True, se_reduction=2, input_length=16)

    def test_shared_frame_scores_match_oracle(self, tmp_path):
        """Without SE, at N = 64 and 2 blocks, utterances of 5 to 200 frames
        run the one-period row, its edge patches and the q map."""
        rng = np.random.default_rng(14)
        self.assert_network_scores_match_oracle(
            tmp_path, rng, [5, 48, 64, 65, 130, 200, *rng.integers(5, 201, size=10)],
            input_length=64)

    @pytest.mark.parametrize("command", [
        ["extract-lfcc", "--wav-dir", "w", "--out-dir", "o"],
        ["score", "--model", "m", "--features", "f", "--protocol", "p", "--gmm", "g",
         "--stats", "s", "--out", "o"],
        ["score-gmm", "--gmm", "g", "--gmm2", "h", "--features", "f", "--protocol", "p",
         "--out", "o"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("workers", ["0", "2"])
    def test_workers_other_than_one_is_a_usage_error(self, command, workers, tmp_path,
                                                     monkeypatch, capsys):
        """Only ``--workers 1`` runs; any other count exits 2 before a file
        is read or written."""
        monkeypatch.chdir(tmp_path)
        assert run(*command, "--workers", workers) == 2
        err = capsys.readouterr().err
        assert "argument --workers: invalid choice" in err and "Traceback" not in err
        assert not Path("o").exists()


class TestFuse:
    def test_out_without_eval_is_a_usage_error(self, perfect_fixture, tmp_path, capsys):
        scores, proto = perfect_fixture
        out = tmp_path / "fused.eval"
        assert run("fuse", "--dev", scores, "--protocol", proto, "--out", out) == 2
        assert "--out writes the fused eval scores, so it needs --eval" in capsys.readouterr().err
        assert not out.exists()

    def test_unequal_dev_and_eval_system_counts_exit_3(self, perfect_fixture, tmp_path, capsys):
        scores, proto = perfect_fixture
        out = tmp_path / "new" / "fused.eval"
        code = run("fuse", "--dev", scores, scores, "--eval", scores, "--protocol", proto,
                   "--out", out)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == "error: dev and eval subsystem counts differ\n"
        assert captured.out == "" and not out.parent.exists()


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
            "gmm_order = 4\nchannels = 8\nblocks = 1\n"
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

    def test_extract_lfcc_then_train_gmm_and_fit_lgp_stats(self, tmp_path):
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

        # train a small GMM on the LFCCs and fit its LGP statistics
        assert run("train-gmm", "--features", tmp_path / "feats", "--components", 2,
                   "--iters", 3, "--out", tmp_path / "m.gmm") == 0
        assert run("fit-lgp-stats", "--gmm", tmp_path / "m.gmm",
                   "--features", tmp_path / "feats", "--out", tmp_path / "m.stats") == 0


class TestFullScaleScript:
    def test_smoke_run_reports_eer_and_min_tdcf(self, tmp_path):
        """``scripts/run_fullscale.py`` end to end on 24 noise WAVs of 0.3 s
        at a desk shape: it exits 0 and its metrics hold EER and min t-DCF."""
        import wave

        root = tmp_path / "corpus"
        (root / "wav").mkdir(parents=True)
        rng = np.random.default_rng(0)
        for part in ("train", "dev", "eval"):
            labels = {f"{part}{i}": ("bonafide" if i % 2 == 0 else "spoof") for i in range(8)}
            for utt, label in labels.items():
                tone = np.sin(2 * np.pi * (400.0 if label == "bonafide" else 2400.0)
                              * np.arange(4800) / 16000)
                samples = (0.2 * tone + rng.normal(0.0, 0.05, size=4800)) * 32767
                with wave.open(str(root / "wav" / f"{utt}.wav"), "wb") as fh:
                    fh.setnchannels(1)
                    fh.setsampwidth(2)
                    fh.setframerate(16000)
                    fh.writeframes(samples.astype("<i2").tobytes())
            write_protocol(root / f"{part}.txt", labels)
        lines = run_script("run_fullscale", "--corpus-root", root, "--out", tmp_path / "out",
                           "--mixtures", 4, "--channels", 8, "--blocks", 1, "--epochs", 1,
                           "--segment-length", 16)
        metrics = (tmp_path / "out" / "metrics.txt").read_text()
        assert "EER" in metrics and "min-tDCF" in metrics
        assert "placeholder ASV operating point" in lines[-1]    # not the paper's t-DCF


class TestMeasurementScripts:
    """The measurement scripts that ROADMAP gates read, each run on the
    desk pipeline (order 8, 16 channels, 2 blocks) as a user would."""

    @pytest.fixture(scope="class")
    def desk(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("desk")
        run_script("run_synthetic_pipeline", "--out", out, "--epochs", 1)
        return out

    def test_plan_work_counts_the_cut(self, desk):
        lines = run_script("plan_work", desk / "ckpt" / "model.lgpn", desk / "corpus" / "feats",
                           desk / "corpus" / "eval.txt", "--gmm", desk / "pooled.gmm",
                           "--stats", desk / "pooled.stats")
        assert lines[0].split() == ["utterance", "T", "S", "columns", "calls", "row/segment", "ms"]
        assert len(lines) == 1 + 200 + 2
        total = lines[-2].split()
        assert total[0] == "total" and int(total[4]) == 200 * (1 + 2 * 2)
        assert lines[-1].startswith("the cut runs ")
        assert lines[-1].endswith("% fewer conv columns than one row per segment")

    def test_step_memory_reports_the_step(self, desk):
        lines = run_script("step_memory", desk / "run.cfg", desk / "corpus" / "feats",
                           desk / "corpus" / "train.txt", "--gmm", desk / "pooled.gmm",
                           "--stats", desk / "pooled.stats")
        assert lines[0] == "shape: order 8, 16 channels, 2 blocks, SE off, N 32, batch 32"
        for line, phase in zip(lines[1:3], ("forward", "backward")):
            assert line.startswith(f"{phase} pass: traced peak ") and " MiB, during " in line
        forward_call, backward_call = (line.split(", during ")[1] for line in lines[1:3])
        assert forward_call.endswith(".forward") and ".backward" in backward_call
        assert lines[3].startswith("ru_maxrss ") and lines[3].endswith(" MB")
        assert lines[4] == "held by the step schedule after the train-mode forward:"
        held = {line.split()[0] for line in lines[5:-1]}
        assert {"stem.bn", "block1.bn2", "pool", "total"} <= held
        assert "stem.conv" not in held              # the LGP maps are rebuilt, not kept
        assert lines[-1] == "full-size to_gutter copies: 0"

    def test_score_drift_of_a_file_with_itself_and_another(self, desk):
        same = run_script("score_drift", desk / "net.eval", desk / "net.eval")
        assert same == ["ids 200", "identical 200", "max_abs 0", "max_rel 0", "max_rel_id -"]
        other = run_script("score_drift", desk / "net.eval", desk / "gmm.eval")
        assert other[0] == "ids 200" and other[4].startswith("max_rel_id eval_")

    def test_tree_digest_lists_every_file_but_the_lists(self, desk):
        lines = run_script("tree_digest", desk)
        files = sorted(p.relative_to(desk).as_posix() for p in desk.rglob("*")
                       if p.is_file() and p.suffix != ".list")
        assert [line.split("  ", 1)[1] for line in lines] == files
        digest = hashlib.sha256((desk / "run.cfg").read_bytes()).hexdigest()
        assert f"{digest}  run.cfg" in lines


class TestBenchTracer:
    """``bench/tracing.py`` wraps lgpnet's functions and methods by name, and
    ``Recorder.install`` raises on a name that a refactor deleted (the
    layers' ``forward``/``backward``, ``Adam.step``, ``PathNetwork``'s
    ``__init__``, ``forward`` and ``backward``, each path's stem conv), so
    tier-1 catches a stale tracer before a benchmark run does.  The tracer
    is imported read-only, from its file."""

    def test_a_desk_train_runs_under_the_installed_wrappers(self, score_fixture, monkeypatch):
        import importlib.util
        import sys

        from lgpnet.frontend import store_features
        from lgpnet.model import PathNetwork

        spec = importlib.util.spec_from_file_location(
            "bench_tracing", SCRIPTS.parent / "bench" / "tracing.py")
        tracing = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, tracing)     # its dataclasses look it up
        spec.loader.exec_module(tracing)
        root, rng = score_fixture, np.random.default_rng(5)
        store_features(root / "feats" / "u2.lgpf", rng.normal(size=(20, 2)))
        write_protocol(root / "train.txt", {"u1": "bonafide", "u2": "spoof"})
        original = PathNetwork.__dict__["forward"]
        recorder = tracing.Recorder()
        recorder.install()
        try:
            assert PathNetwork.__dict__["forward"] is not original
            code = train_with(root, "segment_length = 16\nbatch_size = 2\nepochs = 1\n",
                              protocol="train.txt")
        finally:
            recorder.restore()
        assert code == 0
        assert PathNetwork.__dict__["forward"] is original
        names = [span.name for span in recorder.spans]
        assert names.count("model.PathNetwork.forward") >= 1
        assert names.count("nn.Adam.step") == 1
