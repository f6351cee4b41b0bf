import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgpnet.errors import FormatError
from lgpnet import tensorio


def test_round_trip_preserves_bits_and_order(tmp_path):
    rng = np.random.default_rng(3)
    tensors = {
        "zeta": rng.normal(size=(3, 4)).astype(np.float32),
        "alpha": rng.normal(size=(7,)).astype(np.float32),
        "m": rng.normal(size=(2, 3, 5)).astype(np.float32),
    }
    path = tmp_path / "t.lgpn"
    tensorio.save_tensors(path, tensors)
    loaded = tensorio.load_tensors(path)
    assert list(loaded) == ["zeta", "alpha", "m"]
    for name in tensors:
        assert loaded[name].shape == tensors[name].shape
        assert np.array_equal(loaded[name], tensors[name])


@pytest.mark.parametrize("bad", [np.nan, -np.inf, 1e39], ids=["nan", "inf", "float32-overflow"])
def test_value_not_finite_as_float32_refused_before_writing(tmp_path, bad):
    tensors = {"ok": np.ones(2), "w": np.array([1.0, bad])}
    path = tmp_path / "t.lgpn"
    with pytest.raises(ValueError, match="tensor 'w' .* not finite as float32"):
        tensorio.save_tensors(path, tensors)
    assert not path.exists()


def test_save_load_save_is_byte_identical(tmp_path):
    tensors = {"w": np.arange(12, dtype=np.float32).reshape(3, 4)}
    first = tensorio.serialize_tensors(tensors)
    second = tensorio.serialize_tensors(tensorio.deserialize_tensors(first))
    assert first == second


def test_header_is_little_endian_and_versioned():
    blob = tensorio.serialize_tensors({"x": np.zeros(2, dtype=np.float32)})
    assert blob[:4] == b"LGPN"
    assert blob[4:6] == (1).to_bytes(2, "little")
    assert blob[6:10] == (1).to_bytes(4, "little")


def test_bad_magic_rejected():
    blob = bytearray(tensorio.serialize_tensors({"x": np.zeros(1, dtype=np.float32)}))
    blob[0] = ord("X")
    with pytest.raises(FormatError) as err:
        tensorio.deserialize_tensors(bytes(blob))
    assert err.value.offset == 0


def test_bad_version_rejected():
    blob = bytearray(tensorio.serialize_tensors({"x": np.zeros(1, dtype=np.float32)}))
    blob[4] = 99
    with pytest.raises(FormatError) as err:
        tensorio.deserialize_tensors(bytes(blob))
    assert err.value.offset == 4


def test_truncation_reports_offset():
    blob = tensorio.serialize_tensors({"weights": np.zeros(8, dtype=np.float32)})
    with pytest.raises(FormatError) as err:
        tensorio.deserialize_tensors(blob[:-5])
    assert err.value.offset is not None


def test_trailing_garbage_rejected():
    blob = tensorio.serialize_tensors({"x": np.zeros(1, dtype=np.float32)})
    with pytest.raises(FormatError):
        tensorio.deserialize_tensors(blob + b"\x00")


def test_scalar_rank_zero_tensor():
    loaded = tensorio.deserialize_tensors(
        tensorio.serialize_tensors({"tag": np.float32(3.0)})
    )
    assert loaded["tag"].shape == ()
    assert loaded["tag"] == 3.0


def test_fingerprint_matches_file_hash(tmp_path):
    tensors = {"a": np.ones(3, dtype=np.float32)}
    path = tmp_path / "a.lgpn"
    tensorio.save_tensors(path, tensors)
    assert tensorio.fingerprint(tensors) == tensorio.file_fingerprint(path)
    tensors["a"] = np.zeros(3, dtype=np.float32)
    assert tensorio.fingerprint(tensors) != tensorio.file_fingerprint(path)


@settings(max_examples=50, deadline=None)
@given(
    shapes=st.lists(
        st.lists(st.integers(min_value=0, max_value=5), min_size=0, max_size=3),
        min_size=1,
        max_size=4,
    ),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_round_trip_property(shapes, seed):
    rng = np.random.default_rng(seed)
    tensors = {
        f"t{i}": rng.normal(size=tuple(shape)).astype(np.float32)
        for i, shape in enumerate(shapes)
    }
    loaded = tensorio.deserialize_tensors(tensorio.serialize_tensors(tensors))
    assert list(loaded) == list(tensors)
    for name in tensors:
        assert np.array_equal(loaded[name], tensors[name])
