import ast
from pathlib import Path

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
        assert loaded[name].flags.writeable and loaded[name].flags.aligned
    assert tensorio.tensor_shapes(path) == {"zeta": (3, 4), "alpha": (7,), "m": (2, 3, 5)}


def test_shapes_refuse_what_a_load_refuses(tmp_path):
    blob = tensorio.serialize_tensors({"a": np.ones((2, 3), dtype=np.float32),
                                       "b": np.ones(4, dtype=np.float32)})
    for cut in (blob[:-5], blob + b"\x00", b"XXXX" + blob[4:]):
        (tmp_path / "t.lgpn").write_bytes(cut)
        with pytest.raises(FormatError) as load_err:
            tensorio.load_tensors(tmp_path / "t.lgpn")
        with pytest.raises(FormatError) as shapes_err:
            tensorio.tensor_shapes(tmp_path / "t.lgpn")
        assert str(shapes_err.value) == str(load_err.value)
        assert str(load_err.value).startswith(f"{tmp_path / 't.lgpn'}: ")


@pytest.mark.parametrize("bad", [np.nan, -np.inf, 1e39], ids=["nan", "inf", "float32-overflow"])
def test_value_not_finite_as_float32_refused_before_writing(tmp_path, bad):
    tensors = {"ok": np.ones(2), "w": np.array([1.0, bad])}
    path = tmp_path / "t.lgpn"
    with pytest.raises(ValueError, match="tensor 'w' .* not finite as float32"):
        tensorio.save_tensors(path, tensors)
    assert not path.exists()


class TestWriteFile:
    """``write_file`` puts a file at its path whole or leaves the path as it was."""

    def test_makes_the_directory_and_replaces_a_file_whole(self, tmp_path):
        path = tmp_path / "new" / "deeper" / "f.bin"
        tensorio.write_file(path, b"x" * 1000)
        tensorio.write_file(path, b"short")
        assert path.read_bytes() == b"short"
        assert list(path.parent.iterdir()) == [path]

    def test_a_symlink_is_replaced_not_written_through(self, tmp_path):
        (tmp_path / "real").write_bytes(b"old")
        link = tmp_path / "out"
        link.symlink_to(tmp_path / "real")
        tensorio.write_file(link, b"new")
        assert not link.is_symlink() and link.read_bytes() == b"new"
        assert (tmp_path / "real").read_bytes() == b"old"

    def test_a_directory_target_is_left_as_it_was(self, tmp_path):
        target = tmp_path / "t"
        target.mkdir()
        with pytest.raises(OSError):
            tensorio.write_file(target, b"data")
        assert target.is_dir() and list(tmp_path.iterdir()) == [target]

    def test_a_failing_rename_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "f.bin"
        path.write_bytes(b"old")

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(tensorio.os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            tensorio.write_file(path, b"new")
        assert path.read_bytes() == b"old" and list(tmp_path.iterdir()) == [path]

    def test_tensors_not_finite_as_float32_keep_the_old_file(self, tmp_path):
        path = tmp_path / "t.lgpn"
        tensorio.save_tensors(path, {"w": np.ones(3)})
        old = path.read_bytes()
        with pytest.raises(ValueError, match="not finite as float32"):
            tensorio.save_tensors(path, {"w": np.array([1.0, np.nan])})
        assert path.read_bytes() == old and list(tmp_path.iterdir()) == [path]


def _file_writes(call: ast.Call) -> str | None:
    """What ``call`` does to the file system, if it writes or makes anything."""
    func = call.func
    name = getattr(func, "attr", getattr(func, "id", None))
    if name in ("write_text", "write_bytes", "mkdir", "makedirs"):
        return name
    if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os" \
            and name in ("replace", "rename"):
        return f"os.{name}"
    if name == "open":
        modes = [kw.value for kw in call.keywords if kw.arg == "mode"] + call.args[1:2]
        for mode in modes:
            if not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wax+"):
                return "open for writing"
    return None


def test_every_file_is_written_by_write_file():
    """No code of the package but ``tensorio.write_file`` writes a file or
    makes a directory."""
    package = Path(tensorio.__file__).parent
    found, inside = [], []
    for source in sorted(package.glob("*.py")):
        tree = ast.parse(source.read_text(), filename=str(source))
        writer = set()
        if source.name == "tensorio.py":
            (fn,) = [n for n in tree.body if getattr(n, "name", None) == "write_file"]
            writer = {id(n) for n in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and (what := _file_writes(node)):
                (inside if id(node) in writer else found).append(
                    f"{source.name}:{node.lineno} {what}")
    assert found == []
    # the walk does see writes: write_file's own
    assert sorted(entry.split(" ", 1)[1] for entry in inside) == [
        "mkdir", "os.replace", "write_bytes"]


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
