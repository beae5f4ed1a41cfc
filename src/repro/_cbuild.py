"""The one builder of the two compiled extensions, both CPython
extension modules written against ``Python.h``: the crypto fastpath
(``crypto/fastpath.c``, loaded by :mod:`repro.crypto.fastpath`) and the
serde codec (``_serde_native.c``, loaded by :mod:`repro._serde_native`).

A build is ``_native_build/<name>_<digest><EXT_SUFFIX>`` next to this
module.  The digest covers the bytes of the source, which includes no
local file, and the whole compile command, so a changed byte, compiler
or ``CFLAGS`` names another file, and ``EXT_SUFFIX`` keeps interpreters
of different ABIs apart.  A cache
hit hashes the files and imports the build, with no compiler.  The
command follows Python's own extension builds: ``$CC`` (else
sysconfig's), sysconfig's ``CFLAGS`` and ``CCSHARED``, ``-O3``, then the
environment's ``CFLAGS``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import pathlib
import shlex
import shutil
import subprocess
import sysconfig

BUILD_DIR = pathlib.Path(__file__).resolve().with_name("_native_build")
EXT_SUFFIX = sysconfig.get_config_var("EXT_SUFFIX")


def compile_command() -> list[str]:
    """The compiler and flags that build an extension, without the input
    and output files."""
    config = sysconfig.get_config_var
    return [
        *shlex.split(os.environ.get("CC") or config("CC") or "cc"),
        *shlex.split(config("CFLAGS") or ""),
        *shlex.split(config("CCSHARED") or ""),
        "-O3",
        *shlex.split(os.environ.get("CFLAGS", "")),
        f"-I{sysconfig.get_paths()['include']}",
        "-shared",
    ]


def build_path(name: str, source: pathlib.Path, command: list[str]) -> pathlib.Path:
    """Where the build of ``source`` under ``command`` lives."""
    key = hashlib.sha256()
    for part in (source.read_bytes(), "\0".join(command).encode()):
        key.update(hashlib.sha256(part).digest())
    return BUILD_DIR / f"{name}_{key.hexdigest()[:12]}{EXT_SUFFIX}"


def load(name: str, source: pathlib.Path):
    """The extension module ``name`` built from the C file ``source``,
    compiled on a cache miss; None when it cannot be built or loaded."""
    try:
        command = compile_command()
        target = build_path(name, source, command)
        if not target.exists():
            BUILD_DIR.mkdir(exist_ok=True)
            scratch = BUILD_DIR / f"tmp-{os.getpid()}"
            scratch.mkdir(exist_ok=True)
            try:
                built = scratch / target.name
                subprocess.run(
                    [*command, str(source), "-o", str(built)],
                    check=True, capture_output=True,
                )
                # atomic publish: concurrent processes never load half a file
                os.replace(built, target)
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
            for stale in BUILD_DIR.glob(f"{name}_*{EXT_SUFFIX}"):
                if stale != target:
                    stale.unlink(missing_ok=True)
        spec = importlib.util.spec_from_file_location(name, target)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    except Exception:  # no compiler or headers, a broken toolchain
        return None
