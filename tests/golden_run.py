"""Replay the recorded CLI goldens through ``regioncc.cli.main``.

    python -X dev -W error tests/golden_run.py SRC GOLDEN

SRC is the directory that holds the ``regioncc`` package and GOLDEN a
golden file such as ``tests/golden_cli.json``.  The documents are
written to a temporary directory, every case is run through
``cli.main`` with its stdout captured, and one line counts the cases
whose exit code and stdout match.  The exit status is 1, with the first
mismatches named, unless all of them match, and 2 on a wrong argument
count.  Only the standard library is used, so every Python the package
supports can run it, pytest or not.
"""

from __future__ import annotations

import io
import json
import platform
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path


def _write_docs(docs: dict[str, str], root: Path) -> dict[str, str]:
    """Write each document to ``root``; map its ``@name`` to the path."""
    paths = {}
    for name, text in docs.items():
        path = root / f"{name}.json"
        path.write_text(text + "\n", encoding="utf-8")
        paths["@" + name] = str(path)
    return paths


def _run(argv: list[str], paths: dict[str, str]) -> tuple[int, str]:
    """Exit code and stdout of one command, its ``@name`` arguments resolved."""
    from regioncc.cli import main
    real = [paths.get(arg, arg) for arg in argv]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(real)
    return code, out.getvalue()


def replay(golden: Path) -> tuple[int, list[str]]:
    """The case count and the argv of each case that does not match."""
    data = json.loads(golden.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory() as tmp:
        paths = _write_docs(data["docs"], Path(tmp))
        mismatches = [" ".join(case["argv"]) for case in data["cases"]
                      if _run(case["argv"], paths) != (case["exit"], case["stdout"])]
    return len(data["cases"]), mismatches


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: golden_run.py SRC GOLDEN", file=sys.stderr)
        return 2
    src, golden = argv
    sys.path.insert(0, src)
    total, mismatches = replay(Path(golden))
    print(f"{total - len(mismatches)}/{total} golden cases match "
          f"on Python {platform.python_version()}")
    if mismatches:
        print("first mismatches: " + "; ".join(mismatches[:5]), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
