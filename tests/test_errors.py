import pytest

from lgpnet.errors import FormatError, ProtocolError, naming


class TestNaming:
    def test_plain_value_error_gets_the_path(self):
        with pytest.raises(ValueError) as err:
            with naming("a/b.lgpf"):
                raise ValueError("frames have shape (4, 3), expected (T, 1)")
        assert type(err.value) is ValueError
        assert str(err.value) == "a/b.lgpf: frames have shape (4, 3), expected (T, 1)"

    def test_own_errors_keep_type_and_location(self):
        with pytest.raises(FormatError) as err:
            with naming("m.gmm"):
                raise FormatError("bad magic bytes", offset=0)
        assert str(err.value) == "m.gmm: bad magic bytes (at byte offset 0)"
        assert err.value.offset == 0
        with pytest.raises(ProtocolError) as err:
            with naming("p.txt"):
                raise ProtocolError("unknown label 'x'", line=3)
        assert str(err.value) == "p.txt: unknown label 'x' (line 3)" and err.value.line == 3

    def test_nested_naming_of_one_file_names_it_once(self):
        with pytest.raises(FormatError, match="^m.gmm: truncated$"):
            with naming("m.gmm"), naming("m.gmm"):
                raise FormatError("truncated")

    def test_value_error_with_its_own_str_is_named(self):
        with pytest.raises(ValueError, match="^n.lgpf: 'utf-8' codec can't decode"):
            with naming("n.lgpf"):
                b"\xff".decode("utf-8")

    def test_other_errors_pass_unnamed(self):
        with pytest.raises(OSError, match="^disk$"):
            with naming("x"):
                raise OSError("disk")
