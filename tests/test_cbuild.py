"""The one builder of the compiled extensions (:mod:`repro._cbuild`).

A build's file name is its cache key: a changed source byte, compiler,
``CFLAGS`` or interpreter ABI must name another file, so that no build
is ever served to a compile it does not match.
"""

import pathlib
import shutil

import pytest

from repro import _cbuild
from repro.crypto import fastpath

SRC = pathlib.Path(_cbuild.__file__).resolve().parent
FASTPATH = SRC / "crypto" / "fastpath.c"


def build_name(source=FASTPATH) -> str:
    return _cbuild.build_path("_lcm_fastpath", source, _cbuild.compile_command()).name


@pytest.fixture(autouse=True)
def default_flags(monkeypatch):
    monkeypatch.delenv("CC", raising=False)
    monkeypatch.delenv("CFLAGS", raising=False)


class TestCacheKey:
    def test_one_source_byte_names_another_build(self, tmp_path):
        copy = pathlib.Path(shutil.copy(FASTPATH, tmp_path))
        before = build_name(copy)
        original = copy.read_bytes()
        copy.write_bytes(original[:-1] + b" ")
        assert build_name(copy) != before
        copy.write_bytes(original)
        assert build_name(copy) == before

    @pytest.mark.parametrize(
        "variable, value", [("CFLAGS", "-U__SIZEOF_INT128__"), ("CC", "clang")]
    )
    def test_the_compile_command_names_another_build(
        self, variable, value, monkeypatch
    ):
        before = build_name()
        monkeypatch.setenv(variable, value)
        assert build_name() != before

    def test_the_ext_suffix_names_another_build(self, monkeypatch):
        before = build_name()
        monkeypatch.setattr(_cbuild, "EXT_SUFFIX", ".cpython-313-x86_64-linux-gnu.so")
        after = build_name()
        assert after != before
        assert after.endswith(".cpython-313-x86_64-linux-gnu.so")

    def test_environment_cflags_come_after_the_default_flags(self, monkeypatch):
        monkeypatch.setenv("CFLAGS", "-O0 -g0")
        command = _cbuild.compile_command()
        assert command.index("-O3") < command.index("-O0") < command.index("-g0")


def test_a_failed_compile_loads_nothing_and_leaves_nothing(tmp_path, monkeypatch):
    monkeypatch.setattr(_cbuild, "BUILD_DIR", tmp_path)
    monkeypatch.setenv("CC", "false")
    assert _cbuild.load("_lcm_serde", SRC / "_serde_native.c") is None
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(
    "+mont64" not in getattr(fastpath._get_backend("c"), "kernels", ""),
    reason="needs the C tier with its 128-bit DH kernel",
)
def test_a_build_under_other_cflags_is_not_served_without_them(tmp_path, monkeypatch):
    """A build made without 128-bit integers lacks the DH kernel; the
    next load without those ``CFLAGS`` rebuilds instead of serving it,
    and deletes it, and a load under the same flags again is a cache
    hit that runs no compiler.  ``-O0`` keeps both compiles short."""
    monkeypatch.setattr(_cbuild, "BUILD_DIR", tmp_path)

    def kernels(cflags):
        monkeypatch.setenv("CFLAGS", cflags)
        return _cbuild.load("_lcm_fastpath", FASTPATH).kernels()

    assert not kernels("-O0 -U__SIZEOF_INT128__").endswith("+mont64")
    [without] = tmp_path.iterdir()
    assert kernels("-O0").endswith("+mont64")
    [with_kernel] = tmp_path.iterdir()
    assert with_kernel != without

    def no_compile(*args, **kwargs):
        raise AssertionError("a cache hit must not run the compiler")

    monkeypatch.setattr(_cbuild.subprocess, "run", no_compile)
    assert kernels("-O0").endswith("+mont64")
    assert list(tmp_path.iterdir()) == [with_kernel]
