"""Help, usage errors and bad values against recorded golden runs.

``golden_usage.json`` holds, for each argv, the exit code and the exact
stdout and stderr of ``regioncc``: the top-level help and the errors
that list the commands, each command's help, missing arguments, an
unknown option and an extra positional, and values the commands
reject.  The runs use a working directory holding ``trefoil.json`` (a
diagram document) and ``trefoil_pd.json`` (its planar-diagram code),
and ``COLUMNS=80``, because argparse wraps usage to the terminal width.

argparse words its help and errors slightly differently across Python
versions, so the text is compared only on the version that recorded
the file; the exit codes are compared on every version.

Regenerate the file only when an output change is intended:

    PYTHONPATH=src python3 tests/test_golden_usage.py
"""

from __future__ import annotations

import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

GOLDEN = Path(__file__).with_name("golden_usage.json")
VERSION = "%d.%d" % sys.version_info[:2]

COMMANDS = ("info", "verify", "matrix", "homology", "admissible",
            "ineffective", "bicolor", "apply", "equivalent", "move-r2",
            "switch", "random", "import-pd")

# Per command, arguments it accepts.
VALID = {
    "info": ["trefoil.json"],
    "verify": ["trefoil.json"],
    "matrix": ["trefoil.json"],
    "homology": ["trefoil.json"],
    "admissible": ["trefoil.json", "-c", "0"],
    "ineffective": ["trefoil.json"],
    "bicolor": ["trefoil.json", "-c", "0"],
    "apply": ["trefoil.json", "-r", "0"],
    "equivalent": ["trefoil.json", "trefoil.json"],
    "move-r2": ["trefoil.json", "-d", "0,4"],
    "switch": ["trefoil.json", "-i", "0"],
    "random": ["-n", "3", "--seed", "1"],
    "import-pd": ["trefoil_pd.json"],
}

BAD_VALUES = [
    ["admissible", "trefoil.json", "-c", "zero"],
    ["bicolor", "trefoil.json", "-c", "zero"],
    ["admissible", "trefoil.json", "-c", "7"],
    ["bicolor", "trefoil.json", "-c", "7"],
    ["admissible", "--json", "trefoil.json", "-c", "-1"],
    ["apply", "trefoil.json", "-r", "5"],
    ["apply", "trefoil.json", "-r", "x"],
    ["switch", "trefoil.json", "-i", "3"],
    ["switch", "trefoil.json", "-i", "x"],
    ["move-r2", "trefoil.json", "-d", "0,99"],
    ["move-r2", "trefoil.json", "-d", "0"],
    ["move-r2", "trefoil.json", "-d", "0,4,8"],
    ["move-r2", "trefoil.json", "-d", "0,1"],
    ["move-r2", "trefoil.json", "-d", "0,4", "--over", "c"],
    ["random", "-n", "0"],
    ["random", "-n", "-3"],
    ["random", "-n", "100000000000000000000"],
    ["random", "-n", "3", "--neg-prob", "2"],
    ["random", "-n", "3", "--seed", "x"],
    ["info", "missing.json"],
    ["equivalent", "trefoil.json", "missing.json"],
    ["import-pd", "trefoil.json"],
    ["random", "-n", "2", "--seed", "1", "-o", "nodir/out.json"],
    ["inf", "trefoil.json"],
]


def argvs() -> list[list[str]]:
    out = [[], ["-h"], ["bogus"], ["--foo", "info", "trefoil.json"]]
    for command in COMMANDS:
        out += [[command, "-h"], [command],
                [command, *VALID[command], "--bogus"],
                [command, *VALID[command], "extra"]]
    return out + BAD_VALUES


def _run(argv: list[str]) -> tuple[int, str, str]:
    from regioncc.cli import main
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as stop:
            code = stop.code
    return code, out.getvalue(), err.getvalue()


def _write_docs(root: Path) -> None:
    from conftest import TREFOIL_PD
    from regioncc import import_pd, serialize_diagram
    (root / "trefoil.json").write_text(
        serialize_diagram(import_pd(TREFOIL_PD)) + "\n", encoding="utf-8")
    (root / "trefoil_pd.json").write_text(json.dumps(TREFOIL_PD) + "\n",
                                          encoding="utf-8")


def _load_golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("usage")
    _write_docs(root)
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        mp.setenv("COLUMNS", "80")
        return [(case, _run(case["argv"])) for case in _load_golden()["cases"]]


def test_golden_holds_every_argv():
    assert [case["argv"] for case in _load_golden()["cases"]] == argvs()


def test_exit_codes_match_golden(runs):
    differ = [case["argv"] for case, (code, _, _) in runs if code != case["exit"]]
    assert not differ, f"{len(differ)} exit codes differ, first: {differ[:5]}"


def test_usage_text_matches_golden(runs):
    recorded = _load_golden()["python"]
    if recorded != VERSION:
        pytest.skip(f"text recorded under Python {recorded}, not {VERSION}")
    differ = [case["argv"] for case, (_, out, err) in runs
              if (out, err) != (case["stdout"], case["stderr"])]
    assert not differ, f"{len(differ)} of {len(runs)} differ, first: {differ[:5]}"


def record() -> None:
    os.environ["COLUMNS"] = "80"
    cases = []
    with tempfile.TemporaryDirectory() as tmp:
        _write_docs(Path(tmp))
        home = os.getcwd()
        os.chdir(tmp)
        try:
            for argv in argvs():
                code, out, err = _run(argv)
                cases.append({"argv": argv, "exit": code, "stdout": out,
                              "stderr": err})
        finally:
            os.chdir(home)
    lines = ['{"python": %s, "cases": [' % json.dumps(VERSION)]
    lines.append(",\n".join(json.dumps(case) for case in cases))
    lines.append("]}")
    GOLDEN.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {GOLDEN}")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent))
    record()
