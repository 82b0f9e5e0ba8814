"""Command line behavior: wording, exit codes, determinism."""

import io
import json
import os
import random
import subprocess
import sys

import pytest

from conftest import (HOPF_PD, TREFOIL_PD, VALIDATE_VIOLATIONS,
                      WALK_FAULTS, cyclic_pd, even_target, make_curl,
                      make_rp2curl, make_torus11, mirror_fault, ones,
                      plant_rows, reference_cycle_class, violation_document)
from regioncc import (BitMatrix, Edge, admissible, admissible_by_bicoloring, bicoloring,
                      class_of, components, faces, homology_context, homology_matrix,
                      import_pd, incidence_matrix, parse_diagram, phi_class,
                      random_diagram, serialize_diagram, surface_info)
from regioncc.cli import _load, _parser, main
from regioncc.scheme import dual_tree


@pytest.fixture
def trefoil_file(tmp_path):
    path = tmp_path / "trefoil.json"
    path.write_text(serialize_diagram(import_pd(TREFOIL_PD)) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def torus_file(tmp_path):
    path = tmp_path / "torus.json"
    path.write_text(serialize_diagram(make_torus11()) + "\n", encoding="utf-8")
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
        src.write_text(serialize_diagram(make_rp2curl()), encoding="utf-8")
        code, out, _ = run(capsys, "bicolor", "--json", str(src), "-c", "0")
        data = json.loads(out)
        assert code == 0
        assert data["admissible"] is True
        assert data["phi_class"] == [0]
        assert data["colors"] == [0, 1]

    def test_bicolor_walks_the_target_once(self, capsys, monkeypatch, tmp_path,
                                           trefoil_file):
        class_calls = []

        def second_walk(d, crossings):
            raise AssertionError("bicolor walked its target a second time")

        def counted_class(d, coloring):
            class_calls.append(coloring)
            return phi_class(d, coloring)

        # The handler shows the coloring admissible_by_bicoloring returned.
        monkeypatch.setattr("regioncc.bicolor.bicoloring", second_walk)
        monkeypatch.setattr("regioncc.bicolor.phi_class", counted_class)
        code, out, _ = run(capsys, "bicolor", trefoil_file, "-c", "1")
        assert (code, out.splitlines()[0], len(class_calls)) == (0, "admissible", 0)
        nonzero = tmp_path / "nonzero.json"
        nonzero.write_text(serialize_diagram(random_diagram(2, 0.5, seed=0)),
                           encoding="utf-8")
        code, out, _ = run(capsys, "bicolor", str(nonzero), "-c", "0")
        assert code == 0
        assert out == ("infeasible: every bi-coloring has nonzero class\n"
                       "colors: 1000\nclass: 100\n")
        assert len(class_calls) == 0

    def test_bicolor_reads_a_no_answer_class_without_phi_class(self, capsys, monkeypatch,
                                                                 tmp_path):
        # admissible_by_bicoloring has checked the coloring it returns, so
        # the handler reads its class once and runs no phi_class checks.
        def refused(d, coloring):
            raise AssertionError("bicolor re-checked its coloring through phi_class")

        d = random_diagram(2, 0.5, seed=0)
        path = tmp_path / "nonzero.json"
        path.write_text(serialize_diagram(d), encoding="utf-8")
        monkeypatch.setattr("regioncc.bicolor.phi_class", refused)
        code, out, _ = run(capsys, "bicolor", "--json", str(path), "-c", "0")
        data = json.loads(out)
        assert (code, data["admissible"]) == (0, False)
        lit = [e for e, color in enumerate(data["colors"]) if color]
        bits, phi = reference_cycle_class(d, lit), data["phi_class"]
        assert bits and phi == [bits >> k & 1 for k in range(len(phi))]

    def test_bicolor_checks_every_no_with_the_region_route(self, capsys, monkeypatch,
                                                           tmp_path):
        # Each Hopf component passes crossing 0 once: no bi-coloring for {0}.
        hopf = import_pd(HOPF_PD)
        assert bicoloring(hopf, [0]) is None
        path = tmp_path / "hopf.json"
        path.write_text(serialize_diagram(hopf), encoding="utf-8")
        monkeypatch.setattr("regioncc.rcc.admissible", lambda d, crossings: (0,))
        for command in ("admissible", "bicolor"):
            code, out, err = run(capsys, command, str(path), "-c", "0")
            assert (code, out) == (4, "")
            assert err == "internal error: matrix and bi-coloring methods disagree\n"

    def test_equivalent_wording(self, capsys, tmp_path, torus_file):
        switched = tmp_path / "switched.json"
        doc = json.loads(serialize_diagram(make_torus11()))
        doc["crossings"][0]["over"] = 1
        switched.write_text(json.dumps(doc), encoding="utf-8")
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
        other.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run(capsys, "equivalent", trefoil_file, str(other))
        assert code == 0
        assert out.startswith("equivalent: regions")


class TestTransforms:
    def test_apply_writes_diagram(self, capsys, tmp_path, trefoil_file):
        out_path = tmp_path / "out.json"
        code, out, _ = run(capsys, "apply", trefoil_file, "-r", "1",
                           "-o", str(out_path))
        assert code == 0
        flipped = parse_diagram(out_path.read_text(encoding="utf-8"))
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
        src.write_text(serialize_diagram(make_curl()), encoding="utf-8")
        code, out, _ = run(capsys, "move-r2", str(src), "--darts", "0,2")
        assert code == 0
        assert parse_diagram(out).crossing_count == 3

    def test_move_r2_bad_site(self, capsys, tmp_path):
        src = tmp_path / "curl.json"
        src.write_text(serialize_diagram(make_curl()), encoding="utf-8")
        code, _, err = run(capsys, "move-r2", str(src), "--darts", "0,1")
        assert code == 2
        assert "same edge" in err

    def test_move_r2_wrong_dart_count(self, capsys, tmp_path):
        src = tmp_path / "curl.json"
        src.write_text(serialize_diagram(make_curl()), encoding="utf-8")
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
        src.write_text(json.dumps([list(x) for x in TREFOIL_PD]), encoding="utf-8")
        code, out, _ = run(capsys, "import-pd", str(src))
        assert code == 0
        assert parse_diagram(out) == import_pd(TREFOIL_PD)

    def test_import_pd_wrapped(self, capsys, tmp_path):
        src = tmp_path / "pd.json"
        src.write_text(json.dumps({"pd": [[1, 1, 2, 2]]}), encoding="utf-8")
        code, out, _ = run(capsys, "import-pd", str(src))
        assert code == 0
        assert parse_diagram(out).crossing_count == 1


ONE_CROSSING = ('{"crossings": [{"rotation": %s, "over": 0}], "edges": '
                '[{"darts": [0, 1], "sign": %s}, {"darts": [2, 3], "sign": 1}]}')
TREFOIL_DOC = json.dumps({"pd": TREFOIL_PD})
# A document piped to a command in a child, and the exit code and the one
# stderr line it must give, with nothing else (no traceback): malformed
# documents and PD codes, documents that violate an invariant, and indices
# out of range, also after valid ones.
PIPED_ERRORS = [
    (["info", "-"], "[1, 2]", 2, "error: top-level document must be an object"),
    (["import-pd", "-"], "[[1,1,1,2]]", 2, "error: pd label 1 occurs more than twice"),
    (["import-pd", "-"], "[[1,2,3,4]]", 2, "error: pd labels occurring once: 1, 2, 3, 4"),
    (["import-pd", "-"], '[[1,1,2,2],[3,3,"a",4]]', 2,
     "error: pd labels must be all integers or all strings"),
    (["import-pd", "-"], "[[1,1,2,2],[3,3,4,4]]", 3,
     "invalid diagram: diagram is disconnected"),
    (["info", "-"], ONE_CROSSING % ("[0, 2, 1, 3]", "1"), 3,
     "invalid diagram: crossing 0: rotation must be [0, 1, 2, 3]"),
    (["info", "-"], ONE_CROSSING % ("[0, 1, 2, 3]", "1.0"), 2,
     "error: edge 0: sign must be an integer"),
    (["bicolor", "-", "-c", "-1"], TREFOIL_DOC, 2, "error: crossing index -1 out of range"),
    (["admissible", "-", "-c", "0,1,9"], TREFOIL_DOC, 2,
     "error: crossing index 9 out of range"),
    (["apply", "-", "-r", "0,7"], TREFOIL_DOC, 2, "error: region index 7 out of range"),
]


class TestExitCodes:
    def test_format_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"bogus": 1}', encoding="utf-8")
        code, _, err = run(capsys, "info", str(bad))
        assert code == 2
        assert "error:" in err

    def test_invalid_diagram(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        doc = {"crossings": [{"rotation": [0, 1, 2, 3], "over": 0}],
               "edges": [{"darts": [0, 0], "sign": 1},
                         {"darts": [2, 3], "sign": 1}]}
        bad.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(capsys, "info", str(bad))
        assert code == 3
        assert "invalid diagram:" in err

    @pytest.mark.parametrize("name", sorted(VALIDATE_VIOLATIONS))
    def test_invalid_diagram_message_exact(self, capsys, tmp_path, name):
        crossings, edges, expected = VALIDATE_VIOLATIONS[name]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(violation_document(crossings, edges)), encoding="utf-8")
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

    LONG = "9" * 4301
    # Per shape: the document, and the exit code and stderr of a parse
    # with no int-string limit.
    LONG_DOCUMENTS = {
        "pd": ('{"pd": [[%s, 1, 2, 2]]}' % LONG,
               2, f"error: pd labels occurring once: 1, {LONG}\n"),
        "crossings": ('{"crossings": [{"rotation": [0, 1, 2, 3], "over": %s}],'
                      ' "edges": [{"darts": [0, 1], "sign": 1},'
                      ' {"darts": [2, 3], "sign": 1}]}' % LONG,
                      3, "invalid diagram: crossing 0: over flag must be 0 or 1\n"),
    }

    @pytest.mark.parametrize("lift", [False, True], ids=["default-limit", "no-limit"])
    @pytest.mark.parametrize("command, shape", [("info", "pd"), ("import-pd", "pd"),
                                                ("info", "crossings")])
    def test_integer_beyond_the_digit_limit(self, capsys, monkeypatch, command, shape,
                                            lift):
        text, code, err = self.LONG_DOCUMENTS[shape]
        # Interpreters before the int-string limit parse any length.
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if 0 < limit < len(self.LONG) and not lift:
            with pytest.raises(ValueError) as info:
                int(self.LONG)
            code, err = 2, f"error: invalid JSON: {info.value}\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        if limit and lift:
            sys.set_int_max_str_digits(0)
        try:
            assert run(capsys, command, "-") == (code, "", err)
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["admissible"])
        assert exc.value.code == 2

    def test_a_command_builds_only_its_own_parser(self, capsys, trefoil_file):
        with pytest.raises(SystemExit) as exc:
            _parser("info").parse_args(["verify", trefoil_file])
        assert exc.value.code == 2
        assert "invalid choice: 'verify'" in capsys.readouterr().err

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
        '{"crossings": {}, "edges": []}',
        '{"crossings": [], "edges": 5}',
    ], ids=["unhashable-label", "bool-label", "mixed-labels", "float-label",
            "string-crossing", "number-pd", "bool-rotation", "bool-darts",
            "deep-nesting", "float-rotation", "float-over", "float-darts",
            "float-sign", "object-crossings", "number-edges"])
    def test_malformed_document(self, capsys, monkeypatch, doc):
        monkeypatch.setattr("sys.stdin", __import__("io").StringIO(doc))
        code, out, err = run(capsys, "info", "-")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_internal_invariant_failure(self, capsys, monkeypatch, trefoil_file):
        monkeypatch.setattr("regioncc.bicolor.admissible_by_bicoloring",
                            lambda d, crossings: (False, None))
        code, _, err = run(capsys, "admissible", trefoil_file, "-c", "0,2")
        assert code == 4
        assert err == "internal error: matrix and bi-coloring methods disagree\n"

    def test_crossing_count_past_the_index_range(self):
        # 4 * n dart ids would not fit in a list index; the check comes
        # before anything is allocated.
        cmd = [sys.executable, "-m", "regioncc.cli", "random", "-n",
               "100000000000000000000"]
        child = subprocess.run(cmd, capture_output=True, check=False)
        err = child.stderr.decode()
        assert child.returncode == 2
        assert child.stdout == b""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, doc, exit_code, line", PIPED_ERRORS, ids=[
        "top-level-array", "pd-label-thrice", "pd-labels-once", "pd-mixed-labels",
        "pd-two-kinks", "rotation-order", "float-sign", "bicolor-negative-index",
        "admissible-after-valid", "apply-after-valid"])
    def test_piped_document_error_is_one_line(self, argv, doc, exit_code, line):
        cmd = [sys.executable, "-m", "regioncc.cli", *argv]
        child = subprocess.run(cmd, input=doc.encode(), capture_output=True, check=False)
        assert (child.returncode, child.stdout, child.stderr) == (
            exit_code, b"", line.encode() + b"\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv", [["random", "-n", "3"], ["info", "--json", "-"]])
    def test_full_stdout_is_one_error_line(self, argv):
        cmd = [sys.executable, "-m", "regioncc.cli", *argv]
        doc = serialize_diagram(import_pd(TREFOIL_PD)).encode()
        with open("/dev/full", "wb") as full:
            child = subprocess.run(cmd, input=doc, stdout=full,
                                   stderr=subprocess.PIPE, check=False)
        assert child.returncode == 2
        assert child.stderr == b"error: cannot write stdout: No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("unbuffered", ["1", ""])
    @pytest.mark.parametrize("argv", [["-h"], ["info", "-h"]])
    def test_help_to_full_stdout_is_one_error_line(self, argv, unbuffered):
        # Unbuffered, the help write itself fails; buffered, its flush does.
        cmd = [sys.executable, "-m", "regioncc.cli", *argv]
        env = {**os.environ, "PYTHONUNBUFFERED": unbuffered}
        with open("/dev/full", "wb") as full:
            child = subprocess.run(cmd, stdout=full, stderr=subprocess.PIPE,
                                   env=env, check=False)
        assert child.returncode == 2
        assert child.stderr == b"error: cannot write stdout: No space left on device\n"

    @pytest.mark.skipif(not (os.path.exists("/dev/full") and os.path.isdir("/proc/self/fd")),
                        reason="no /dev/full or /proc/self/fd")
    def test_failed_writes_leave_no_descriptor_open(self, capsys, monkeypatch):
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(5):
            with open("/dev/full", "w", encoding="utf-8") as full:
                monkeypatch.setattr(sys, "stdout", full)
                assert main(["random", "-n", "3"]) == 2
                monkeypatch.undo()
        assert len(os.listdir("/proc/self/fd")) == before
        assert capsys.readouterr().err.count("cannot write stdout") == 5

    def test_out_of_memory_is_one_error_line(self):
        resource = pytest.importorskip("resource")
        # The child caps its own address space at 1 GB before it starts
        # the command, so the dart list of 10**12 crossings cannot be
        # allocated on any host.
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        cap = 1 << 30 if hard == resource.RLIM_INFINITY else min(hard, 1 << 30)
        code = ("import resource, sys\n"
                f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
                "from regioncc.cli import main\n"
                "sys.exit(main(['random', '-n', '1000000000000']))\n")
        child = subprocess.run([sys.executable, "-c", code], capture_output=True,
                               check=False)
        assert child.returncode == 2
        assert child.stdout == b""
        assert child.stderr == b"error: out of memory\n"

    def test_closed_stdout_exits_quietly(self):
        cmd = [sys.executable, "-m", "regioncc.cli", "random", "-n", "300"]
        with subprocess.Popen(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as child:
            child.stdout.close()
            err = child.stderr.read()
        assert child.wait() == 1
        assert err == b""


def bit_rows(masks, width: int) -> list[list[int]]:
    """Each mask's bits, column 0 first, read one shift at a time."""
    return [[(mask >> j) & 1 for j in range(width)] for mask in masks]


def texts(rows) -> list[str]:
    return ["".join(map(str, row)) for row in rows]


class TestBitRowsAtScale:
    """Rows and classes far wider than the goldens' diagrams (at most 38
    crossings) read back against a bit-by-bit rendering, so the high bits
    and the zero padding are checked too."""

    def test_incidence_rows_at_1000_crossings(self, capsys, tmp_path):
        d = import_pd(cyclic_pd(1000))
        path = tmp_path / "torus.json"
        path.write_text(serialize_diagram(d), encoding="utf-8")
        m = incidence_matrix(d)
        want = bit_rows(m.row_bits, m.cols)
        code, out, _ = run(capsys, "matrix", str(path))
        assert code == 0
        assert out.splitlines() == texts(want) + ["rank: 999"]
        code, out, _ = run(capsys, "matrix", "--json", str(path))
        assert code == 0
        assert json.loads(out)["rows"] == want

    def test_component_rows_and_class_at_300_crossings(self, capsys, tmp_path):
        d = random_diagram(300, 0.5, seed=4)
        path = tmp_path / "genus.json"
        path.write_text(serialize_diagram(d), encoding="utf-8")
        hm = homology_matrix(d)
        h1 = hm.matrix.cols
        assert h1 > 250
        want = bit_rows(hm.matrix.row_bits, h1)
        code, out, _ = run(capsys, "homology", str(path))
        assert code == 0
        assert out.splitlines()[:-2] == texts(want)
        code, out, _ = run(capsys, "homology", "--json", str(path))
        assert code == 0
        assert json.loads(out)["rows"] == want
        target = even_target(d, random.Random(3))
        crossings = ",".join(map(str, target))
        [phi] = bit_rows([phi_class(d, bicoloring(d, target)).bits], h1)
        assert 1 in phi[h1 // 2:] and 0 in phi[h1 // 2:]
        code, out, _ = run(capsys, "bicolor", "--json", str(path), "-c", crossings)
        assert code == 0
        data = json.loads(out)
        assert (data["admissible"], data["phi_class"]) == (False, phi)
        code, out, _ = run(capsys, "bicolor", str(path), "-c", crossings)
        assert out.splitlines()[2] == "class: " + texts([phi])[0]


class TestInternalChecks:
    """Checks that only a corrupted table fires, each reached by info.

    On the trefoil (3 crossings, 5 regions, a sphere): edge sides that
    all name region 0 leave the dual tree one region, which its span
    check names; edge 5, outside the dual tree ((0, 0, -1), (1, 0, 0),
    (4, 0, 4), (2, 1, 1), (3, 2, 2)), rewritten after the face trace to
    have both darts at crossing 0, is a loop there, so the tree-cotree
    split leaves 1 edge where 2 - chi is 0; a sixth region makes chi odd
    on an orientable surface; a cover that maps edge 0's four lifts to
    themselves keeps the deck laws, but its theta fixes edge 0's darts
    and so ends the first component walk short of its start (info traces
    the faces first and finds four regions there); a cover
    whose dart 0 is its own mirror stops the face trace, and one whose
    dart 0 has the partner 24, no dart, breaks the deck laws; a first
    component edge 1000000 or None is no cycle.  Edge 0's sides (0, 99)
    or None stop the dual tree's builder; a corner 1000000 or 10**18 in
    region 0 stops the incidence matrix (before the shift, which would
    not fit), and so does each corner that would write a raw row no
    ``BitMatrix`` holds: None, 3 (bit 3 on 3 crossings) or -1.  A
    ``CHECKS`` entry holds the query and its message, then info's
    message where info stops at another check.
    """

    COMPONENT_EDGES = {"component_range": 1000000, "component_type": None}
    EDGE_SIDES = {"sides_range": (0, 99), "sides_type": None}
    CORNERS = {"corner_range": 1000000, "corner_huge": 10**18}
    # The corner loop is the one way into the incidence matrix; these
    # corners would make row 0 None, wide or negative.
    MASKS = {"mask_type": None, "mask_wide": 3, "mask_negative": -1}

    CHECKS = {
        "edge_sides": (homology_context, "dual tree does not list every region"),
        "edge_ends": (homology_context, "tree-cotree leaves 1 edges, expected 2 - chi = 0"),
        "regions": (surface_info, "orientable surface with odd Euler characteristic"),
        "theta": (components, "component walk did not close at its starting dart",
                  "orientable surface with odd Euler characteristic"),
        "mirror": (faces, "face 0 meets its own mirror"),
        "cover_range": (faces, "cover breaks the deck laws"),
        **{fault: (homology_context,
                   f"edge 0 has sides {sides}, not a sorted pair of regions")
           for fault, sides in EDGE_SIDES.items()},
        **{fault: (incidence_matrix, "region 0 has a corner at no crossing")
           for fault in [*CORNERS, *MASKS]},
        **{fault: (homology_matrix, "component trace is not a cycle")
           for fault in COMPONENT_EDGES},
    }

    @staticmethod
    def corrupt(d, fault: str) -> None:
        shadow = d.shadow
        if fault in TestInternalChecks.COMPONENT_EDGES:
            first, *rest = shadow.components
            edges = (TestInternalChecks.COMPONENT_EDGES[fault],) + first.edges[1:]
            shadow.__dict__["components"] = (first._replace(edges=edges), *rest)
        elif fault in TestInternalChecks.EDGE_SIDES:
            sides = (TestInternalChecks.EDGE_SIDES[fault],) + shadow.faces.edge_sides[1:]
            shadow.__dict__["faces"] = shadow.faces._replace(edge_sides=sides)
        elif fault in TestInternalChecks.CORNERS or fault in TestInternalChecks.MASKS:
            first, *rest = shadow.faces.regions
            corner = {**TestInternalChecks.CORNERS, **TestInternalChecks.MASKS}[fault]
            corners = (corner,) + first.corners[1:]
            first = first._replace(corners=corners)
            shadow.__dict__["faces"] = shadow.faces._replace(regions=(first, *rest))
        elif fault == "mirror":
            shadow.__dict__["cover"] = mirror_fault(shadow.cover)
        elif fault == "edge_ends":
            shadow.faces
            edges = list(shadow.edges)
            edges[5] = Edge((0, 1), edges[5].sign)
            object.__setattr__(shadow, "edges", tuple(edges))
        elif fault == "cover_range":
            shadow.__dict__["cover"] = (len(shadow.cover),) + shadow.cover[1:]
        elif fault == "edge_sides":
            shadow.__dict__["faces"] = shadow.faces._replace(
                edge_sides=((0, 0),) * d.edge_count)
        elif fault == "regions":
            structure = shadow.faces
            shadow.__dict__["faces"] = structure._replace(
                regions=structure.regions + structure.regions[:1])
        else:
            cover = list(shadow.cover)
            (a, b), _ = d.edges[0]
            for x in (2 * a, 2 * a + 1, 2 * b, 2 * b + 1):
                cover[x] = x
            shadow.__dict__["cover"] = tuple(cover)

    @pytest.mark.parametrize("fault", sorted(CHECKS))
    def test_library_raises(self, fault):
        query, message, *_ = self.CHECKS[fault]
        d = import_pd(TREFOIL_PD)
        self.corrupt(d, fault)
        with pytest.raises(RuntimeError) as caught:
            query(d)
        assert str(caught.value) == message

    def load_corrupted(self, monkeypatch, fault: str) -> None:
        def corrupted_load(path):
            d = _load(path)
            self.corrupt(d, fault)
            return d

        monkeypatch.setattr("regioncc.cli._load", corrupted_load)

    @pytest.mark.parametrize("fault", sorted(CHECKS))
    def test_info_exits_4(self, capsys, monkeypatch, trefoil_file, fault):
        self.load_corrupted(monkeypatch, fault)
        code, out, err = run(capsys, "info", trefoil_file)
        assert (code, out) == (4, "")
        assert err == f"internal error: {self.CHECKS[fault][-1]}\n"

    # Every command that reads the corrupted table, besides info.
    READERS = {**{fault: ["bicolor -c 0", "admissible -c 0"] for fault in EDGE_SIDES},
               **{fault: ["admissible -c 0", "ineffective", "matrix", "apply -r 0"]
                  for fault in [*CORNERS, *MASKS]}}

    @pytest.mark.parametrize("fault, command",
                             [(f, c) for f, cs in READERS.items() for c in cs])
    def test_readers_exit_4(self, capsys, monkeypatch, trefoil_file, fault, command):
        self.load_corrupted(monkeypatch, fault)
        name, *flags = command.split()
        code, out, err = run(capsys, name, trefoil_file, *flags)
        assert (code, out) == (4, "")
        assert err == f"internal error: {self.CHECKS[fault][1]}\n"

    HOMOLOGY_FAULTS = [fault for fault, (query, *_) in CHECKS.items()
                       if query in (homology_context, homology_matrix)]

    @pytest.mark.parametrize("fault", sorted(HOMOLOGY_FAULTS))
    def test_both_accessors_keep_the_message(self, fault):
        # A failed build caches nothing, so each read builds and fails again.
        d = import_pd(TREFOIL_PD)
        self.corrupt(d, fault)
        for query in (homology_context, homology_matrix, homology_context):
            with pytest.raises(RuntimeError) as caught:
                query(d)
            assert str(caught.value) == self.CHECKS[fault][1]
        assert "homology" not in vars(d.shadow)

    @pytest.mark.parametrize("fault", sorted(COMPONENT_EDGES))
    def test_class_of_builds_the_component_rows(self, fault):
        # The edge classes and the component rows are one table, so a
        # component table corrupted before the first build stops class_of too.
        d = import_pd(TREFOIL_PD)
        cycle = components(d)[0].edges
        self.corrupt(d, fault)
        with pytest.raises(RuntimeError) as caught:
            class_of(d, cycle)
        assert str(caught.value) == "component trace is not a cycle"

    # Component faults on the torus diagram, whose components are edge 0
    # and edge 1, with h1 = 2; each breaks one clause of the check alone.
    # Component 0 extended by component 1's edge repeats edge 1, yet is a
    # cycle, so a per-component cycle check passes it and the rows change
    # silently; edge 0 written as -2 is out of range but wraps to itself
    # under Python indexing, and written as False equals it but is no int.
    TRACE_FAULTS = {"component_merged": lambda first, rest: first.edges + rest[0].edges,
                    "component_negative": lambda first, rest: (first.edges[0] - 2,),
                    "component_bool": lambda first, rest: (False,)}

    @staticmethod
    def corrupt_trace(d, fault: str) -> None:
        first, *rest = d.shadow.components
        assert (first.edges, rest[0].edges) == ((0,), (1,))
        edges = TestInternalChecks.TRACE_FAULTS[fault](first, rest)
        d.shadow.__dict__["components"] = (first._replace(edges=edges), *rest)

    @pytest.mark.parametrize("fault", sorted(TRACE_FAULTS))
    def test_trace_faults_stop_every_reader(self, fault):
        for query in (homology_context, homology_matrix,
                      lambda d: class_of(d, components(d)[1].edges)):
            d = make_torus11()
            self.corrupt_trace(d, fault)
            with pytest.raises(RuntimeError) as caught:
                query(d)
            assert str(caught.value) == "component trace is not a cycle"

    @pytest.mark.parametrize("fault", sorted(TRACE_FAULTS))
    def test_trace_faults_exit_4(self, capsys, monkeypatch, torus_file, fault):
        def corrupted_load(path):
            d = _load(path)
            self.corrupt_trace(d, fault)
            return d

        monkeypatch.setattr("regioncc.cli._load", corrupted_load)
        for command in ("info", "homology"):
            code, out, err = run(capsys, command, torus_file)
            assert (code, out) == (4, "")
            assert err == "internal error: component trace is not a cycle\n"

    # Rows no BitMatrix holds: one that is no int, has bit 3 set on the
    # 3-crossing trefoil, or is negative.  None can enter the matrix, so
    # no reader checks for them.
    WIDTH = "row bits set outside declared width"
    RAW_ROWS = {"mask_type": (None, TypeError, "matrix row_bits must be ints"),
                "mask_wide": (1 << 3, ValueError, WIDTH),
                "mask_negative": (-1, ValueError, WIDTH)}

    @pytest.mark.parametrize("fault", sorted(RAW_ROWS))
    def test_matrix_rejects_raw_rows(self, fault):
        row, error, message = self.RAW_ROWS[fault]
        rows = list(incidence_matrix(import_pd(TREFOIL_PD)).row_bits)
        rows[0] = row
        with pytest.raises(error, match=message):
            BitMatrix(3, rows)

    # The well-formed matrix nearest each raw row, as (row, cols): None
    # becomes the empty row, bit 3 widens the matrix to 4 columns, -1
    # sets every crossing (on the trefoil's row 1, 0b011, one flipped
    # bit).  The type holds each, so only the certificate check notices.
    PLANTED = {"mask_type": lambda row, c: (0, c),
               "mask_wide": lambda row, c: (row | 1 << c, c + 1),
               "mask_negative": lambda row, c: ((1 << c) - 1, c)}

    @staticmethod
    def corrupt_after_the_basis(d, fault: str) -> None:
        # The elimination is built from the sound rows first and kept on
        # the planted matrix; row 1 is the certificate of {0, 1}, so only
        # the certificate check reads the planted row.
        assert admissible(d, [0, 1]) == (1,)
        m = d.shadow.incidence_matrix
        rows = list(m.row_bits)
        assert rows[1] == 0b011
        rows[1], cols = TestInternalChecks.PLANTED[fault](rows[1], m.cols)
        plant_rows(d.shadow, rows, cols)

    @pytest.mark.parametrize("fault", sorted(PLANTED))
    def test_certificate_check_reads_checked_masks(self, fault):
        d = import_pd(TREFOIL_PD)
        self.corrupt_after_the_basis(d, fault)
        with pytest.raises(RuntimeError) as caught:
            admissible(d, [0, 1])
        assert str(caught.value) == "region certificate does not switch the target crossings"

    @pytest.mark.parametrize("fault", sorted(PLANTED))
    def test_certificate_check_exits_4(self, capsys, monkeypatch, trefoil_file, fault):
        def corrupted_load(path):
            d = _load(path)
            self.corrupt_after_the_basis(d, fault)
            return d

        monkeypatch.setattr("regioncc.cli._load", corrupted_load)
        code, out, err = run(capsys, "admissible", trefoil_file, "-c", "0,1")
        assert (code, out) == (4, "")
        assert err == "internal error: region certificate does not switch the target crossings\n"

    def test_sides_past_the_spanning_tree_exit_4(self, capsys, monkeypatch, tmp_path):
        # F spans the few regions of a genus diagram long before the last
        # edge; that edge's entry is still checked.
        d = random_diagram(40, 0.5, seed=3)
        last = d.edge_count - 1
        assert d.shadow.faces.region_count <= 8
        assert max(j for _, _, j in dual_tree(d.shadow)) < last
        path = tmp_path / "genus.json"
        path.write_text(serialize_diagram(d) + "\n", encoding="utf-8")

        def corrupted_load(path):
            d = _load(path)
            sides = d.shadow.faces.edge_sides[:-1] + ((0, 99),)
            d.shadow.__dict__["faces"] = d.shadow.faces._replace(edge_sides=sides)
            return d

        monkeypatch.setattr("regioncc.cli._load", corrupted_load)
        for command in ("info", "bicolor -c 0,2", "admissible -c 0,2"):
            name, *flags = command.split()
            code, out, err = run(capsys, name, str(path), *flags)
            assert (code, out) == (4, "")
            assert err == (f"internal error: edge {last} has sides (0, 99), "
                           "not a sorted pair of regions\n")


class TestCorruptedBases:
    """A cached elimination that answers wrongly never reaches stdout.

    On the 4-crossing torus, crossings {0, 1} are admissible and their
    base bi-coloring has class 10, so both matrices take part.  A wrong
    yes flips a tag bit of the reduced row at the target's least pivot; a
    wrong no drops that row.  The bicolor command reads the incidence
    matrix only to check a no, so it is run against the homology matrix
    only.
    """

    TARGET = [0, 1]

    @staticmethod
    def corrupt(d, route: str, kind: str) -> None:
        if route == "incidence":
            m = d.shadow.incidence_matrix
            target = sum(1 << i for i in TestCorruptedBases.TARGET)
        else:
            m = d.shadow.homology.matrix
            target = phi_class(d, bicoloring(d, TestCorruptedBases.TARGET)).bits
        reduced, kernel = m.elimination
        p = min(p for p in ones(target) if p in reduced)
        reduced = dict(reduced)
        if kind == "wrong_yes":
            tags = reduced[p] >> m.cols
            reduced[p] ^= (tags & -tags) << m.cols
        else:
            del reduced[p]
        m.__dict__["elimination"] = reduced, kernel

    @pytest.fixture
    def torus4_file(self, tmp_path):
        path = tmp_path / "torus4.json"
        path.write_text(serialize_diagram(import_pd(cyclic_pd(4))) + "\n", encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("kind", ["wrong_yes", "wrong_no"])
    @pytest.mark.parametrize("route", ["incidence", "homology"])
    def test_commands_exit_4(self, capsys, monkeypatch, torus4_file, route, kind):
        def corrupted_load(path):
            d = _load(path)
            self.corrupt(d, route, kind)
            return d

        monkeypatch.setattr("regioncc.cli._load", corrupted_load)
        commands = ["admissible"] + (["bicolor"] if route == "homology" else [])
        for command in commands:
            code, out, err = run(capsys, command, torus4_file, "-c", "0,1")
            assert (code, out) == (4, "")
            assert err.startswith("internal error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("route", ["incidence", "homology"])
    def test_library_raises_on_a_wrong_yes(self, route):
        d = import_pd(cyclic_pd(4))
        assert admissible(d, self.TARGET) is not None
        assert admissible_by_bicoloring(d, self.TARGET)[0]
        self.corrupt(d, route, "wrong_yes")
        query = admissible if route == "incidence" else admissible_by_bicoloring
        with pytest.raises(RuntimeError):
            query(d, self.TARGET)


class TestCorruptedTables:
    """A corrupted walk table or incidence matrix never reaches stdout.

    Each fault replaces one table on the loaded diagram's shadow.  Every
    ``admissible`` and ``bicolor`` run then prints exactly what it prints
    on the sound diagram, or exits 4 with one ``internal error:`` line.
    """

    # Three components on a nonorientable surface: some pairs close odd,
    # some need component flips and some have nonzero class.
    TARGETS = [f"{i},{j}" for i in range(6) for j in range(i, 6)]

    @pytest.fixture
    def diagram_file(self, tmp_path):
        path = tmp_path / "three.json"
        path.write_text(serialize_diagram(random_diagram(6, 0.5, seed=8)) + "\n",
                        encoding="utf-8")
        return str(path)

    @staticmethod
    def corrupt(d, fault: str) -> None:
        shadow = d.shadow
        if fault in WALK_FAULTS:
            shadow.__dict__["walk_table"] = WALK_FAULTS[fault](shadow.walk_table)
        else:
            # The elimination is built from the sound rows and kept: the
            # switching check is what must notice.
            m = shadow.incidence_matrix
            plant_rows(shadow, [row ^ 0b1010 for row in m.row_bits], m.cols)

    @pytest.mark.parametrize("fault", ["crossing_positions", "to_edges", "ends",
                                       "bounds", "region_masks"])
    def test_commands_exit_4_or_answer_right(self, capsys, monkeypatch, diagram_file,
                                            fault):
        sound = {(command, target): run(capsys, command, diagram_file, "-c", target)
                 for command in ("admissible", "bicolor") for target in self.TARGETS}

        def corrupted_load(path):
            d = _load(path)
            self.corrupt(d, fault)
            return d

        monkeypatch.setattr("regioncc.cli._load", corrupted_load)
        failed = set()
        for (command, target), answer in sound.items():
            code, out, err = run(capsys, command, diagram_file, "-c", target)
            if code == 4:
                assert out == "" and err.startswith("internal error: ")
                assert err.count("\n") == 1
                failed.add(command)
            else:
                assert (code, out, err) == answer
        assert failed == ({"admissible"} if fault == "region_masks"
                          else {"admissible", "bicolor"})


class TestNulledTables:
    """A warm table whose entries are all None never reaches a traceback.

    Every table of the trefoil is built, then one table field's entries
    (or the int itself) are replaced with None.  The commands that read
    that field hit a TypeError, which ``main`` reports as an internal
    error: argparse types every argument, so no user input reaches one.
    """

    # field: (its table, the commands that read it); "rows" and "kernel"
    # are the reduced rows and the kernel of the incidence matrix's
    # cached elimination.
    READERS = {"edge_classes": ("homology", ["admissible", "bicolor"]),
               **{field: ("walk_table", ["admissible", "bicolor"])
                  for field in ("crossing_positions", "bounds", "ends")},
               "rows": ("elimination", ["admissible"]),
               "kernel": ("elimination", ["ineffective"])}

    @staticmethod
    def nulled(value):
        if isinstance(value, dict):
            return dict.fromkeys(value)
        return None if isinstance(value, int) else (None,) * len(value)

    @pytest.mark.parametrize("field, command",
                             [(f, c) for f, (_, cs) in READERS.items() for c in cs])
    def test_commands_exit_4(self, capsys, monkeypatch, trefoil_file, field, command):
        def corrupted_load(path):
            d = _load(path)
            shadow = d.shadow
            for table in ("faces", "components", "homology", "walk_table",
                          "incidence_matrix"):
                getattr(shadow, table)
            m = shadow.incidence_matrix
            parts = dict(zip(("rows", "kernel"), m.elimination))
            table = self.READERS[field][0]
            if table == "elimination":
                parts[field] = self.nulled(parts[field])
                m.__dict__["elimination"] = tuple(parts.values())
            else:
                value = getattr(shadow, table)
                shadow.__dict__[table] = value._replace(
                    **{field: self.nulled(getattr(value, field))})
            return d

        monkeypatch.setattr("regioncc.cli._load", corrupted_load)
        flags = ["-c", "0,1"] if command != "ineffective" else []
        code, out, err = run(capsys, command, trefoil_file, *flags)
        assert (code, out) == (4, "")
        assert err.startswith("internal error: ") and err.count("\n") == 1


class TestOneHomologyTable:
    """A command leaves one homology table on each shadow it loads, and
    none when it never reads homology."""

    READERS = {"info", "verify", "homology", "admissible", "bicolor"}

    @pytest.mark.parametrize("argv", [
        ["info"], ["verify"], ["matrix"], ["homology"], ["admissible", "-c", "0,1"],
        ["ineffective"], ["bicolor", "-c", "0,1"], ["apply", "-r", "0"],
        ["equivalent", "@"], ["switch", "-i", "1"], ["move-r2", "-d", "0,4"]],
        ids=lambda argv: argv[0])
    def test_one_homology_key(self, capsys, monkeypatch, trefoil_file, argv):
        loaded = []

        def recording_load(path):
            loaded.append(_load(path))
            return loaded[-1]

        monkeypatch.setattr("regioncc.cli._load", recording_load)
        name, *flags = [trefoil_file if arg == "@" else arg for arg in argv]
        assert run(capsys, name, trefoil_file, *flags)[0] == 0
        want = ["homology"] if name in self.READERS else []
        assert loaded
        for d in loaded:
            assert [key for key in vars(d.shadow) if "homology" in key] == want


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
