"""Command line behavior: wording, exit codes, determinism."""

import io
import json
import subprocess
import sys

import pytest

from conftest import (TREFOIL_PD, VALIDATE_VIOLATIONS, make_curl, make_rp2curl,
                      make_torus11, violation_document)
from regioncc import import_pd, parse_diagram, serialize_diagram
from regioncc.cli import main


@pytest.fixture
def trefoil_file(tmp_path):
    path = tmp_path / "trefoil.json"
    path.write_text(serialize_diagram(import_pd(TREFOIL_PD)) + "\n")
    return str(path)


@pytest.fixture
def torus_file(tmp_path):
    path = tmp_path / "torus.json"
    path.write_text(serialize_diagram(make_torus11()) + "\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestQueries:
    def test_info_text(self, capsys, trefoil_file):
        code, out, _ = run(capsys, "info", trefoil_file)
        assert code == 0
        assert "crossings: 3" in out
        assert "regions: 5" in out
        assert "orientable: True" in out
        assert "incidence rank: 3" in out
        assert "homology rank: 0" in out
        assert "class exponent: 0" in out

    def test_info_json(self, capsys, trefoil_file):
        code, out, _ = run(capsys, "info", "--json", trefoil_file)
        data = json.loads(out)
        assert code == 0
        assert data["euler_characteristic"] == 2
        assert data["genus"] == 0
        assert data["incidence_rank"] == 3
        assert data["class_exponent"] == 0

    def test_verify(self, capsys, trefoil_file):
        code, out, _ = run(capsys, "verify", trefoil_file)
        assert code == 0
        assert "incidence rank: 3" in out
        assert "predicted rank: 3" in out
        assert "equal: True" in out
        assert "classes: 2^0" in out

    def test_matrix(self, capsys, torus_file):
        code, out, _ = run(capsys, "matrix", torus_file)
        assert code == 0
        assert out == "0\nrank: 0\n"

    def test_homology(self, capsys, torus_file):
        code, out, _ = run(capsys, "homology", "--json", torus_file)
        data = json.loads(out)
        assert code == 0
        assert data["rank"] == 2
        assert data["h1_dim"] == 2

    def test_admissible_positive(self, capsys, trefoil_file):
        code, out, _ = run(capsys, "admissible", trefoil_file, "-c", "0,2")
        assert code == 0
        assert out.startswith("admissible: regions")
        assert "bi-coloring cross-check: admissible (methods agree)" in out

    def test_admissible_negative(self, capsys, torus_file):
        code, out, _ = run(capsys, "admissible", torus_file, "-c", "0")
        assert code == 0
        assert out.startswith("infeasible:")
        assert "bi-coloring cross-check: infeasible (methods agree)" in out

    def test_ineffective(self, capsys, torus_file):
        code, out, _ = run(capsys, "ineffective", torus_file)
        assert code == 0
        assert "basis size: 1" in out
        assert "regions 0" in out

    def test_bicolor(self, capsys, trefoil_file, torus_file):
        code, out, _ = run(capsys, "bicolor", trefoil_file, "-c", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "admissible"
        assert lines[1].startswith("colors: ")
        assert lines[2] == "class: (trivial)"
        code, out, _ = run(capsys, "bicolor", torus_file, "-c", "0")
        assert code == 0
        assert out.startswith("infeasible: no bi-coloring")

    def test_bicolor_json_class(self, capsys, tmp_path):
        src = tmp_path / "rp2.json"
        src.write_text(serialize_diagram(make_rp2curl()))
        code, out, _ = run(capsys, "bicolor", "--json", str(src), "-c", "0")
        data = json.loads(out)
        assert code == 0
        assert data["admissible"] is True
        assert data["phi_class"] == [0]
        assert data["colors"] == [0, 1]

    def test_equivalent_wording(self, capsys, tmp_path, torus_file):
        switched = tmp_path / "switched.json"
        doc = json.loads(serialize_diagram(make_torus11()))
        doc["crossings"][0]["over"] = 1
        switched.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "equivalent", torus_file, str(switched))
        assert code == 0
        assert "infeasible: diagrams lie in different classes" in out

    def test_equivalent_shadow_mismatch(self, capsys, trefoil_file, torus_file):
        code, out, _ = run(capsys, "equivalent", trefoil_file, torus_file)
        assert code == 0
        assert "infeasible: diagrams have different shadows" in out

    def test_equivalent_positive(self, capsys, trefoil_file, tmp_path):
        other = tmp_path / "other.json"
        doc = json.loads(serialize_diagram(import_pd(TREFOIL_PD)))
        doc["crossings"][0]["over"] = 0
        other.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "equivalent", trefoil_file, str(other))
        assert code == 0
        assert out.startswith("equivalent: regions")


class TestTransforms:
    def test_apply_writes_diagram(self, capsys, tmp_path, trefoil_file):
        out_path = tmp_path / "out.json"
        code, out, _ = run(capsys, "apply", trefoil_file, "-r", "1",
                           "-o", str(out_path))
        assert code == 0
        flipped = parse_diagram(out_path.read_text())
        assert flipped.edges == import_pd(TREFOIL_PD).edges

    def test_apply_stdout(self, capsys, trefoil_file):
        code, out, _ = run(capsys, "apply", trefoil_file, "-r", "")
        assert code == 0
        assert parse_diagram(out) == import_pd(TREFOIL_PD)

    def test_switch_roundtrip(self, capsys, tmp_path, trefoil_file):
        mid = tmp_path / "mid.json"
        code, _, _ = run(capsys, "switch", trefoil_file, "-i", "2",
                         "-o", str(mid))
        assert code == 0
        code, out, _ = run(capsys, "switch", str(mid), "-i", "2")
        assert parse_diagram(out) == import_pd(TREFOIL_PD)

    def test_move_r2(self, capsys, tmp_path):
        src = tmp_path / "curl.json"
        src.write_text(serialize_diagram(make_curl()))
        code, out, _ = run(capsys, "move-r2", str(src), "--darts", "0,2")
        assert code == 0
        assert parse_diagram(out).crossing_count == 3

    def test_move_r2_bad_site(self, capsys, tmp_path):
        src = tmp_path / "curl.json"
        src.write_text(serialize_diagram(make_curl()))
        code, _, err = run(capsys, "move-r2", str(src), "--darts", "0,1")
        assert code == 2
        assert "same edge" in err

    def test_move_r2_wrong_dart_count(self, capsys, tmp_path):
        src = tmp_path / "curl.json"
        src.write_text(serialize_diagram(make_curl()))
        code, _, err = run(capsys, "move-r2", str(src), "--darts", "0,2,3")
        assert code == 2
        assert "exactly two" in err

    def test_random_deterministic(self, capsys):
        code, first, _ = run(capsys, "random", "-n", "5", "--seed", "3",
                             "--neg-prob", "0.5")
        assert code == 0
        code, second, _ = run(capsys, "random", "-n", "5", "--seed", "3",
                              "--neg-prob", "0.5")
        assert first == second
        assert parse_diagram(first).crossing_count == 5

    def test_import_pd_bare_list(self, capsys, tmp_path):
        src = tmp_path / "pd.json"
        src.write_text(json.dumps([list(x) for x in TREFOIL_PD]))
        code, out, _ = run(capsys, "import-pd", str(src))
        assert code == 0
        assert parse_diagram(out) == import_pd(TREFOIL_PD)

    def test_import_pd_wrapped(self, capsys, tmp_path):
        src = tmp_path / "pd.json"
        src.write_text(json.dumps({"pd": [[1, 1, 2, 2]]}))
        code, out, _ = run(capsys, "import-pd", str(src))
        assert code == 0
        assert parse_diagram(out).crossing_count == 1


class TestExitCodes:
    def test_format_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"bogus": 1}')
        code, _, err = run(capsys, "info", str(bad))
        assert code == 2
        assert "error:" in err

    def test_invalid_diagram(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        doc = {"crossings": [{"rotation": [0, 1, 2, 3], "over": 0}],
               "edges": [{"darts": [0, 0], "sign": 1},
                         {"darts": [2, 3], "sign": 1}]}
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "info", str(bad))
        assert code == 3
        assert "invalid diagram:" in err

    @pytest.mark.parametrize("name", sorted(VALIDATE_VIOLATIONS))
    def test_invalid_diagram_message_exact(self, capsys, tmp_path, name):
        crossings, edges, expected = VALIDATE_VIOLATIONS[name]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(violation_document(crossings, edges)))
        code, out, err = run(capsys, "info", str(bad))
        assert code == 3
        assert out == ""
        assert err == "invalid diagram: " + "; ".join(expected) + "\n"

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "info", str(tmp_path / "absent.json"))
        assert code == 2

    def test_output_parent_missing(self, capsys, tmp_path):
        target = tmp_path / "absent" / "x.json"
        code, out, err = run(capsys, "random", "-n", "2", "--seed", "1",
                             "-o", str(target))
        assert code == 2
        assert out == ""
        assert err == f"error: cannot write {target}: No such file or directory\n"

    def test_output_is_directory(self, capsys, tmp_path):
        code, out, err = run(capsys, "random", "-n", "2", "--seed", "1",
                             "-o", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err == f"error: cannot write {tmp_path}: Is a directory\n"

    @pytest.mark.parametrize("command", ["info", "import-pd"])
    def test_file_not_utf8(self, capsys, tmp_path, command):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{")
        code, out, err = run(capsys, command, str(bad))
        assert code == 2
        assert out == ""
        assert err == f"error: cannot read {bad}: not UTF-8 (invalid start byte)\n"

    def test_stdin_not_utf8(self, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe{"), encoding="utf-8",
                                 errors="strict")
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run(capsys, "info", "-")
        assert code == 2
        assert out == ""
        assert err == "error: cannot read -: not UTF-8 (invalid start byte)\n"

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["admissible"])
        assert exc.value.code == 2

    def test_bad_int_list(self, capsys, trefoil_file):
        with pytest.raises(SystemExit) as exc:
            main(["admissible", trefoil_file, "-c", "zero"])
        assert exc.value.code == 2

    def test_crossing_out_of_range(self, capsys, trefoil_file):
        code, _, err = run(capsys, "admissible", trefoil_file, "-c", "7")
        assert code == 2
        assert "out of range" in err

    @pytest.mark.parametrize("doc", [
        '{"pd": [[[1],2,1,2]]}',
        '{"pd": [[true,1,2,2]]}',
        '{"pd": [[1,"1",2,2]]}',
        '{"pd": [[1.0,1,2,2]]}',
        '{"pd": ["abcd"]}',
        '{"pd": 5}',
        '{"crossings": [{"rotation": [false, true, 2, 3], "over": 0}],'
        ' "edges": [{"darts": [0, 1], "sign": 1}, {"darts": [2, 3], "sign": 1}]}',
        '{"crossings": [{"rotation": [0, 1, 2, 3], "over": 0}],'
        ' "edges": [{"darts": [false, true], "sign": 1}, {"darts": [2, 3], "sign": 1}]}',
        "[" * 100000,
        '{"crossings": [{"rotation": [0.0, 1, 2, 3], "over": 0}],'
        ' "edges": [{"darts": [0, 1], "sign": 1}, {"darts": [2, 3], "sign": 1}]}',
        '{"crossings": [{"rotation": [0, 1, 2, 3], "over": 1.0}],'
        ' "edges": [{"darts": [0, 1], "sign": 1}, {"darts": [2, 3], "sign": 1}]}',
        '{"crossings": [{"rotation": [0, 1, 2, 3], "over": 0}],'
        ' "edges": [{"darts": [0.9, 1], "sign": 1}, {"darts": [2, 3], "sign": 1}]}',
        '{"crossings": [{"rotation": [0, 1, 2, 3], "over": 0}],'
        ' "edges": [{"darts": [0, 1], "sign": 1.0}, {"darts": [2, 3], "sign": true}]}',
    ], ids=["unhashable-label", "bool-label", "mixed-labels", "float-label",
            "string-crossing", "number-pd", "bool-rotation", "bool-darts",
            "deep-nesting", "float-rotation", "float-over", "float-darts",
            "float-sign"])
    def test_malformed_document(self, capsys, monkeypatch, doc):
        monkeypatch.setattr("sys.stdin", __import__("io").StringIO(doc))
        code, out, err = run(capsys, "info", "-")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_internal_invariant_failure(self, capsys, monkeypatch, trefoil_file):
        monkeypatch.setattr("regioncc.cli.admissible_by_bicoloring",
                            lambda d, crossings: (False, None))
        code, _, err = run(capsys, "admissible", trefoil_file, "-c", "0,2")
        assert code == 4
        assert err == "internal error: matrix and bi-coloring methods disagree\n"

    def test_closed_stdout_exits_quietly(self):
        cmd = [sys.executable, "-m", "regioncc.cli", "random", "-n", "300"]
        child = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE)
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait() == 1
        assert err == b""


class TestStdinAndScript:
    def test_stdin_dash(self, capsys, monkeypatch):
        text = serialize_diagram(make_rp2curl())
        monkeypatch.setattr("sys.stdin", __import__("io").StringIO(text))
        code, out, _ = run(capsys, "info", "-")
        assert code == 0
        assert "orientable: False" in out

    def test_installed_entry_point_bytes(self, trefoil_file):
        cmd = [sys.executable, "-m", "regioncc.cli", "verify", trefoil_file]
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        assert b"equal: True" in first.stdout
