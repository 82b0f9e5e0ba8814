"""The README's examples run and show what the package prints.

Python blocks run statement by statement: an expression statement must
evaluate to the value its comment starts with (the comment on its own
line or, failing that, on the next line).  Each CLI tour block runs its
``$ regioncc ...`` lines through ``cli.main`` in a fresh directory and
compares stdout with the lines the README shows after them.
"""

import ast
import json
import re
import shlex
from pathlib import Path

from regioncc.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def blocks(heading: str, fence: str = "") -> list[str]:
    """The code blocks between a heading and the next heading."""
    start = README.index(f"\n{heading}\n") + len(heading) + 2
    end = re.compile(r"^#{2,} ", re.M).search(README, start)
    section = README[start:end.start() if end else len(README)]
    return re.findall(rf"^```{fence}\n(.*?)^```", section, re.M | re.S)


def shown_value(lines: list[str], stmt: ast.stmt) -> str:
    line = lines[stmt.end_lineno - 1]
    if "#" not in line:
        line = lines[stmt.end_lineno]
    return line.split("#", 1)[1].strip()


def run_python(block: str, namespace: dict) -> None:
    lines = block.splitlines()
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
            shown = shown_value(lines, stmt)
            assert re.match(re.escape(repr(value)) + r"(\W|$)", shown), \
                f"line {stmt.lineno}: README shows {shown!r}, got {value!r}"
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)


def test_library_blocks(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    (quick_start,) = blocks("## Library quick start", "python")
    (derived,) = blocks("### Derived tables live on the shadow", "python")
    assert "SurfaceInfo(euler_characteristic=2, orientable=True, genus=0, h1_dim=0)" \
        in quick_start
    assert derived.count("# True") == 2
    namespace: dict = {}
    run_python(quick_start, namespace)
    exec("from regioncc import faces", namespace)
    run_python(derived, namespace)


def tour_steps(block: str) -> list[tuple[str, list[str]]]:
    """(command, the output lines shown after it) for each "$ " line."""
    steps: list[tuple[str, list[str]]] = []
    for line in block.splitlines():
        if line.startswith("$ "):
            steps.append((line[2:], []))
        else:
            steps[-1][1].append(line)
    return [(command, "\n".join(shown).strip("\n").split("\n") if any(shown) else [])
            for command, shown in steps]


def run_regioncc(capsys, command: str) -> list[str]:
    capsys.readouterr()
    assert main(shlex.split(command)[1:]) == 0, command
    return capsys.readouterr().out.splitlines()


def test_cli_tour(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    tour = blocks("## CLI tour")
    assert len(tour) >= 8
    ran = 0
    for block in tour:
        for command, shown in tour_steps(block):
            if m := re.fullmatch(r"echo '(.*)' > (\S+)", command):
                Path(m[2]).write_text(m[1] + "\n", encoding="utf-8")
            elif m := re.fullmatch(r"cat (\S+)", command):
                Path(m[1]).write_text("\n".join(shown) + "\n", encoding="utf-8")
            elif m := re.fullmatch(r"(regioncc .*) \| python3 -m json\.tool", command):
                json.loads("\n".join(run_regioncc(capsys, m[1])))
                assert shown == [], command
                ran += 1
            elif command.startswith("regioncc "):
                out = run_regioncc(capsys, command)
                if "..." in shown:
                    shown = shown[shown.index("...") + 1:]
                    out = out[len(out) - len(shown):]
                assert out == shown, command
                ran += 1
            else:
                raise AssertionError(f"README tour step not understood: {command}")
    assert ran >= 15
