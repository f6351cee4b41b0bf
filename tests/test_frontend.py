import struct
import wave

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handbuilt import container_bytes
from lgpnet.errors import FormatError
from lgpnet.frontend import (
    LFCC_COEFFS,
    Waveform,
    extract_lfcc,
    fix_length,
    linear_filterbank,
    load_features,
    read_wav,
    store_features,
)


def tone(freq_hz, seconds, rate=16000, amplitude=0.3):
    t = np.arange(int(seconds * rate)) / rate
    return Waveform(amplitude * np.sin(2 * np.pi * freq_hz * t), rate)


class TestLfcc:
    def test_frame_count_arithmetic(self):
        rate = 16000
        for n_samples in (320, 321, 480, 1600, 12345):
            wav = Waveform(np.zeros(n_samples) + 0.01, rate)
            win, hop = 320, 160
            expected = 1 + (n_samples - win) // hop
            assert extract_lfcc(wav)[:, :LFCC_COEFFS].shape == (expected, LFCC_COEFFS)

    def test_delta_streams_triple_the_width(self):
        wav = tone(440.0, 0.2)
        assert extract_lfcc(wav).shape[1] == 3 * LFCC_COEFFS

    def test_dc_energy_lands_in_first_coefficient(self):
        wav = Waveform(np.full(3200, 0.5), 16000)
        feats = extract_lfcc(wav)[:, :LFCC_COEFFS]
        magnitudes = np.abs(feats)
        assert np.all(magnitudes[:, 0] >= magnitudes[:, 1:].max(axis=1))

    def test_filterbank_partition_of_unity(self):
        fbank = linear_filterbank(20, 512, 16000.0)
        sums = fbank.sum(axis=0)
        # Interior bins between first and last filter peaks see total weight 1.
        bin_hz = np.linspace(0.0, 8000.0, 257)
        edges = np.linspace(0.0, 8000.0, 22)
        inside = (bin_hz >= edges[1]) & (bin_hz <= edges[-2])
        assert np.allclose(sums[inside], 1.0, atol=1e-9)

    def test_deterministic(self):
        wav = tone(1234.5, 0.3)
        a = extract_lfcc(wav)
        b = extract_lfcc(wav)
        assert np.array_equal(a, b)

    def test_too_short_waveform_rejected(self):
        with pytest.raises(ValueError):
            extract_lfcc(Waveform(np.zeros(100), 16000))


class TestWav:
    def test_read_16bit_mono(self, tmp_path):
        path = tmp_path / "a.wav"
        samples = (np.sin(np.linspace(0, 40 * np.pi, 8000)) * 20000).astype("<i2")
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(2)
            fh.setframerate(16000)
            fh.writeframes(samples.tobytes())
        wav = read_wav(path)
        assert wav.sample_rate == 16000
        assert wav.samples.shape == (8000,)
        assert np.allclose(wav.samples, samples / 32768.0)

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "st.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(2)
            fh.setsampwidth(2)
            fh.setframerate(16000)
            fh.writeframes(b"\x00" * 64)
        with pytest.raises(FormatError):
            read_wav(path)


    @pytest.mark.parametrize("blob", [b"", b"RIFF", b"not a wav file at all" * 3],
                             ids=["empty", "cut-header", "not-riff"])
    def test_not_a_wav_file_refused_naming_it(self, tmp_path, blob):
        path = tmp_path / "x.wav"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match="not a WAV file") as err:
            read_wav(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_data_shorter_than_the_header_says_refused(self, tmp_path):
        path = tmp_path / "cut.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(2)
            fh.setframerate(16000)
            fh.writeframes(np.zeros(100, "<i2").tobytes())
        path.write_bytes(path.read_bytes()[:60])          # 44-byte header, 16 data bytes
        with pytest.raises(FormatError) as err:
            read_wav(path)
        assert str(err.value) == f"{path}: header says 200 bytes of samples, data holds 16"


class TestFixLength:
    def test_truncation_keeps_head(self, rng):
        feats = rng.normal(size=(500, 4))
        out = fix_length(feats, 400)
        assert np.array_equal(out, feats[:400])

    def test_cyclic_repetition(self, rng):
        feats = rng.normal(size=(150, 4))
        out = fix_length(feats, 400)
        expected = np.concatenate([feats, feats, feats[:100]])
        assert np.array_equal(out, expected)

    def test_identity_when_exact(self, rng):
        feats = rng.normal(size=(400, 4))
        assert np.array_equal(fix_length(feats, 400), feats)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            fix_length(np.zeros((0, 4)), 10)

    @given(t=st.integers(min_value=1, max_value=200), target=st.integers(min_value=1, max_value=200))
    @settings(max_examples=100, deadline=None)
    def test_output_frames_all_come_from_input(self, t, target):
        feats = np.arange(t, dtype=np.float64)[:, None]
        out = fix_length(feats, target)
        assert out.shape == (target, 1)
        assert set(out[:, 0]) <= set(feats[:, 0])
        # Each output frame is the input frame at its index modulo T.
        assert np.array_equal(out[:, 0], np.arange(target) % t)


class TestFeatureContainer:
    def test_round_trip_is_bit_exact(self, rng, tmp_path):
        feats = rng.normal(size=(33, 7)).astype(np.float32)
        path = tmp_path / "f.lgpf"
        store_features(path, feats)
        assert np.array_equal(load_features(path), feats)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1e39], ids=["nan", "inf", "float32-overflow"])
    def test_value_not_finite_as_float32_refused_before_writing(self, tmp_path, bad):
        path = tmp_path / "f.lgpf"
        with pytest.raises(ValueError, match="f.lgpf .* not finite as float32"):
            store_features(path, np.array([[0.5, bad]]))
        assert not path.exists()

    def test_layout_is_little_endian(self, tmp_path):
        # one rank-2 tensor named "features" in the tensor container
        path = tmp_path / "f.lgpf"
        store_features(path, np.array([[1.5, -2.0]], dtype=np.float32))
        assert path.read_bytes() == (
            b"LGPN" + struct.pack("<HIH", 1, 1, 8) + b"features" + struct.pack("<BQQ", 2, 1, 2)
            + np.array([1.5, -2.0], dtype="<f4").tobytes())

    def test_handcrafted_file_loads(self, tmp_path):
        path = tmp_path / "hand.lgpf"
        path.write_bytes(container_bytes({"features": [[1, 2], [3, 4]]}))
        assert np.array_equal(load_features(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_corrupt_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.lgpf"
        store_features(path, np.ones((2, 2), dtype=np.float32))
        blob = bytearray(path.read_bytes())
        blob[0] = ord("X")
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="bad.lgpf: bad magic") as err:
            load_features(path)
        assert err.value.offset == 0

    def test_old_feature_layout_rejected(self, tmp_path):
        # the retired LGPF layout: magic, version u16, rows u32, cols u32, f32 data
        path = tmp_path / "old.lgpf"
        path.write_bytes(b"LGPF" + struct.pack("<HII", 1, 1, 2) + struct.pack("<2f", 1, 2))
        with pytest.raises(FormatError, match="old.lgpf: bad magic") as err:
            load_features(path)
        assert err.value.offset == 0

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "short.lgpf"
        store_features(path, np.ones((4, 4), dtype=np.float32))
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FormatError, match="short.lgpf: truncated"):
            load_features(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "v9.lgpf"
        path.write_bytes(b"LGPN" + struct.pack("<HI", 9, 0))
        with pytest.raises(FormatError) as err:
            load_features(path)
        assert err.value.offset == 4

    @pytest.mark.parametrize("tensors, message", [
        ({"features": np.ones((2, 2)), "extra": np.ones(1)}, "expected one tensor 'features'"),
        ({"frames": np.ones((2, 2))}, "expected one tensor 'features'"),
        ({}, "expected one tensor 'features'"),
        ({"features": np.ones(4)}, "tensor 'features' has rank 1, expected 2"),
        ({"features": np.ones((2, 2, 2))}, "tensor 'features' has rank 3, expected 2"),
    ], ids=["second-tensor", "wrong-name", "empty", "rank-1", "rank-3"])
    def test_anything_but_one_matrix_rejected(self, tmp_path, tensors, message):
        path = tmp_path / "odd.lgpf"
        path.write_bytes(container_bytes(tensors))
        with pytest.raises(FormatError, match=f"odd.lgpf: {message}"):
            load_features(path)

    def test_non_finite_value_names_its_frame(self, tmp_path):
        feats = np.zeros((5, 3))
        feats[3, 1] = np.inf
        path = tmp_path / "inf.lgpf"
        path.write_bytes(container_bytes({"features": feats}))
        with pytest.raises(FormatError, match="inf.lgpf: non-finite value in frame 3"):
            load_features(path)
