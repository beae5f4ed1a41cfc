#!/usr/bin/env python3
"""Which ``def``s under ``src/repro`` does a command never call?

    python benchmarks/call_census.py -- python -m pytest -x -q
    python benchmarks/call_census.py -- python benchmarks/e2e/run.py --quick

Writes a ``sitecustomize.py`` into a temp dir that installs a
``sys.setprofile`` / ``threading.setprofile`` hook in every Python
(sub)process the command starts, runs the command with that dir and
``src`` on ``PYTHONPATH``, and prints the functions no process entered,
with their line counts.  A sizing tool for deletion work, not a CI gate:
a function listed by the census of *both* the test suite and the
benchmark is called by neither.  The two crypto tiers take different
paths through ``core/`` and ``crypto/`` (the ``python`` tier's Sec. 4.6.1
retry-resend is ``LcmContext._resend_reply``; the ``c`` tier does it
inside the fused codec), so a function is dead only if the census of
tier-1 under *each* ``REPRO_FASTPATH`` misses it.  Profiling slows the
command several times over.
"""

import ast
import os
import pathlib
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"

_HOOK = """\
import atexit, os, sys, threading
_seen = set()
def _profile(frame, event, arg, _add=_seen.add):
    if event == "call":
        _add(frame.f_code)
def _dump():
    sys.setprofile(None)
    with open(os.path.join({out!r}, "%d.calls" % os.getpid()), "w") as fh:
        for code in _seen:
            if code.co_filename.startswith({root!r}):
                fh.write("%s\\t%d\\n" % (code.co_filename, code.co_firstlineno))
atexit.register(_dump)
threading.setprofile(_profile)
sys.setprofile(_profile)
"""


def _definitions():
    """``(path, first line, last line, qualified name)`` of every def;
    the first line is the first decorator's, as in ``co_firstlineno``."""
    for path in sorted((SRC / "repro").rglob("*.py")):
        stack = [("", ast.parse(path.read_text()))]
        while stack:
            prefix, node = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min(
                        [child.lineno] + [d.lineno for d in child.decorator_list]
                    )
                    yield str(path), first, child.end_lineno, prefix + child.name
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    stack.append((prefix + child.name + ".", child))
                else:
                    stack.append((prefix, child))


def main(argv):
    if argv[:1] == ["--"]:
        argv = argv[1:]
    if not argv:
        print(__doc__)
        return 2
    with tempfile.TemporaryDirectory(prefix="call-census-") as out:
        pathlib.Path(out, "sitecustomize.py").write_text(
            _HOOK.format(out=out, root=str(SRC / "repro"))
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [out, str(SRC), env.get("PYTHONPATH")])
        )
        status = subprocess.run(argv, env=env, cwd=REPO).returncode
        called = set()
        for dump in pathlib.Path(out).glob("*.calls"):
            for line in dump.read_text().splitlines():
                filename, _, first = line.rpartition("\t")
                called.add((filename, int(first)))
    lines = set()  # a nested def's lines also lie inside its parent's
    for path, first, last, name in sorted(_definitions()):
        if (path, first) not in called:
            lines.update((path, line) for line in range(first, last + 1))
            print(
                f"{os.path.relpath(path, REPO)}:{first}: {name} "
                f"({last - first + 1} lines)"
            )
    print(
        f"{len(lines)} function lines under src/repro never called "
        f"(command exit {status})"
    )
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
