"""The paired-run driver ``tools/pair.py``, with a stub in place of bench/run.py."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("pair", ROOT / "tools" / "pair.py")
pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pair)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
NAMES = [spec["name"] for spec in END_TO_END]


class Stub:
    """Records each run; every metric of tree T in pair k reads values[T](k)."""

    def __init__(self, values=None, correct=lambda side, seed: True):
        self.calls = []
        self.values = values or {"parent": lambda k: 1.0, "change": lambda k: 1.0}
        self.correct = correct

    def __call__(self, tree, workload, seed, seconds):
        self.calls.append((tree, workload, seed, seconds))
        side = Path(tree).name
        details = {"commit": f"{side}-commit", "src_sha256": f"{side}-digest",
                   "python": "3.11.7", "failures": [], "problems": []}
        metrics = {name: {"value": self.values[side](seed), "unit": "x"} for name in NAMES}
        return details, {"correct": self.correct(side, seed), "metrics": metrics}


@pytest.fixture
def trees(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "change" / "BENCHMARK.json")
    return tmp_path


def drive(trees, stub, *extra):
    out = trees / "BENCH_test.json"
    argv = ["--parent", str(trees / "parent"), "--change", str(trees / "change"),
            "--workload", "torus_solve", "--out", str(out), *extra]
    assert pair.main(argv, runner=stub) == 0
    return json.loads(out.read_text(encoding="utf-8"))


def test_parent_runs_first_in_odd_pairs(trees):
    stub = Stub()
    drive(trees, stub, "--pairs", "4", "--seconds", "3")
    order = [(Path(tree).name, seed) for tree, _, seed, _ in stub.calls]
    assert order == [("parent", 1), ("change", 1), ("change", 2), ("parent", 2),
                     ("parent", 3), ("change", 3), ("change", 4), ("parent", 4)]
    assert {call[1:2] + call[3:] for call in stub.calls} == {("torus_solve", 3)}


def test_report_shape(trees):
    stub = Stub({"parent": lambda k: float(k), "change": lambda k: float(k + 1)})
    doc = drive(trees, stub, "--pairs", "2", "--workload", "genus_solve")
    assert set(doc) == {"python", "seconds", "pairs", "trees", "workloads"}
    assert (doc["python"], doc["seconds"], doc["pairs"]) == ("3.11.7", 25, 2)
    assert doc["trees"] == {side: {"commit": f"{side}-commit", "src_sha256": f"{side}-digest",
                                   "bench_sha256": pair.bench_digest(str(trees / side))}
                            for side in ("parent", "change")}
    assert list(doc["workloads"]) == ["torus_solve", "genus_solve"]
    for entry in doc["workloads"].values():
        assert list(entry["metrics"]) == NAMES
        assert entry["runs"] == [
            {"pair": 1, "seed": 1, "order": ["parent", "change"],
             "parent": dict.fromkeys(NAMES, 1.0), "change": dict.fromkeys(NAMES, 2.0)},
            {"pair": 2, "seed": 2, "order": ["change", "parent"],
             "parent": dict.fromkeys(NAMES, 2.0), "change": dict.fromkeys(NAMES, 3.0)}]
        setup = entry["metrics"]["setup_s"]
        assert set(setup) == {"better", "bound", "parent_median", "change_median", "wins",
                              "pairs", "parent_iqr", "parent_iqr_rel", "worse_by", "verdict",
                              "sign_p", "gain"}
        assert (setup["parent_median"], setup["change_median"], setup["wins"]) == (1.5, 2.5, 0)


def stub_bench(tree):
    (tree / "bench").mkdir()
    (tree / "bench" / "run.py").write_text("print('run')\n", encoding="utf-8")
    (tree / "bench" / "notes.txt").write_text("not a bench module\n", encoding="utf-8")
    shutil.copy(ROOT / "BENCHMARK.json", tree / "BENCHMARK.json")


def test_equal_benches_print_no_note(trees, capsys):
    for side in ("parent", "change"):
        stub_bench(trees / side)
    # Only bench/*.py and BENCHMARK.json count.
    (trees / "parent" / "bench" / "notes.txt").write_text("edited\n", encoding="utf-8")
    doc = drive(trees, Stub(), "--pairs", "1")
    digests = {doc["trees"][side]["bench_sha256"] for side in ("parent", "change")}
    assert len(digests) == 1 and len(digests.pop()) == 64
    assert "note:" not in capsys.readouterr().out


@pytest.mark.parametrize("edit", ["bench/run.py", "bench/new.py", "BENCHMARK.json"])
def test_differing_benches_print_one_note(trees, capsys, edit):
    for side in ("parent", "change"):
        stub_bench(trees / side)
    # A trailing newline edits a module, adds one, or keeps the JSON valid.
    with (trees / "change" / edit).open("a", encoding="utf-8") as handle:
        handle.write("\n")
    doc = drive(trees, Stub(), "--pairs", "1")
    assert doc["trees"]["parent"]["bench_sha256"] != doc["trees"]["change"]["bench_sha256"]
    notes = [line for line in capsys.readouterr().out.splitlines() if line.startswith("note:")]
    assert notes == ["note: the trees' bench/*.py or BENCHMARK.json differ: "
                     "each tree's metrics come from its own bench"]


def rows(parent, change):
    return [{"parent": {"m": p}, "change": {"m": c}} for p, c in zip(parent, change)]


@pytest.mark.parametrize("better, parent, change, wins, worse_by, verdict", [
    # A steady parent: the change's median decides against the bound.
    ("lower", [1.0] * 4, [1.2] * 4, 0, 0.2, "within"),
    ("lower", [1.0] * 4, [1.3] * 4, 0, 0.3, "worse"),
    ("lower", [1.0] * 4, [0.5] * 4, 4, -0.5, "within"),
    ("higher", [10.0] * 4, [7.0] * 4, 0, 0.3, "worse"),
    ("higher", [10.0] * 4, [12.0] * 4, 4, -0.2, "within"),
    # Quartiles 1.5 and 4.5 about a median of 3: the spread is the median.
    ("lower", [1.0, 2.0, 3.0, 4.0, 5.0], [3.0] * 5, 2, 0.0, "unresolved"),
    ("lower", [0.0] * 3, [0.0] * 3, 0, None, "unresolved"),
])
def test_verdicts_on_fixed_numbers(better, parent, change, wins, worse_by, verdict):
    got = pair.compare(rows(parent, change), {"name": "m", "better": better, "bound": 0.25})
    assert (got["wins"], got["verdict"]) == (wins, verdict)
    assert got["worse_by"] == pytest.approx(worse_by)


def test_one_pair_has_no_spread():
    got = pair.compare(rows([2.0], [2.4]), {"name": "m", "better": "lower", "bound": 0.25})
    assert (got["parent_iqr"], got["worse_by"], got["verdict"]) == (0.0, pytest.approx(0.2),
                                                                     "within")


def test_an_incorrect_run_is_refused(trees):
    stub = Stub(correct=lambda side, seed: not (side == "change" and seed == 2))
    with pytest.raises(SystemExit, match="change tree: torus_solve seed 2 is not correct"):
        drive(trees, stub, "--pairs", "3")
    assert len(stub.calls) == 3


def test_a_tree_that_changes_is_refused(trees):
    stub = Stub()
    real = stub.__call__

    def edited(tree, workload, seed, seconds):
        details, result = real(tree, workload, seed, seconds)
        if seed == 2:
            details["src_sha256"] = "edited"
        return details, result

    with pytest.raises(SystemExit, match="changed between runs"):
        drive(trees, edited, "--pairs", "2")


@pytest.mark.parametrize("change, sign_p", [
    ([0.5] * 10, 2 / 1024),
    ([0.5] * 9 + [1.5], 22 / 1024),
    ([0.5] * 5 + [1.5] * 5, 1.0),
    # Ties are dropped: 9 wins and no loss is a sign test over 9 pairs.
    ([0.5] * 9 + [1.0], 2 / 512),
    ([1.0] * 10, 1.0),
])
def test_sign_p_is_the_exact_two_sided_sign_test(change, sign_p):
    got = pair.compare(rows([1.0] * 10, change), {"name": "m", "better": "lower", "bound": 0.25})
    assert got["sign_p"] == pytest.approx(sign_p, rel=1e-12)


# Parent quartiles 0.9 and 1.1 about a median of 1.0: an IQR of 0.2.
SPREAD_PARENT = [0.8, 0.9, 0.9, 0.9, 1.0, 1.0, 1.1, 1.1, 1.1, 1.2]


@pytest.mark.parametrize("better, change, gain", [
    # 10/10 and 9/10 wins, medians 0.3 below the parent's: a gain.
    ("lower", [x - 0.3 for x in SPREAD_PARENT], True),
    ("lower", [x - 0.3 for x in SPREAD_PARENT[:9]] + [1.3], True),
    # 8/10 wins do not make a gain, however far the median moves.
    ("lower", [x - 0.6 for x in SPREAD_PARENT[:8]] + [1.3, 1.3], False),
    # A tie counts for neither tree: 9 wins and a tie of 10 pairs is a gain,
    # 8 wins and two ties is not.
    ("lower", [x - 0.3 for x in SPREAD_PARENT[:9]] + [1.2], True),
    ("lower", [x - 0.3 for x in SPREAD_PARENT[:8]] + [1.1, 1.2], False),
    # Every pair won, the median 0.25 or 0.1 below: above and below the IQR.
    ("lower", [x - 0.25 for x in SPREAD_PARENT], True),
    ("lower", [x - 0.1 for x in SPREAD_PARENT], False),
    # The same rules where higher is better.
    ("higher", [x + 0.25 for x in SPREAD_PARENT], True),
    ("higher", [x + 0.1 for x in SPREAD_PARENT], False),
    ("higher", [x + 0.6 for x in SPREAD_PARENT[:8]] + [0.7, 0.7], False),
])
def test_gain_needs_nine_wins_in_ten_and_a_median_past_the_iqr(better, change, gain):
    got = pair.compare(rows(SPREAD_PARENT, change), {"name": "m", "better": better, "bound": 0.25})
    assert got["parent_iqr"] == pytest.approx(0.2)
    assert got["gain"] is gain


@pytest.mark.parametrize("pairs", [1, 9])
def test_gain_needs_ten_pairs(pairs):
    # Clear wins in every pair, far past the parent's spread, are no gain
    # until ten pairs were run: one pair of a tree against itself can win
    # by noise.
    parent = SPREAD_PARENT[:pairs]
    for better, step in (("lower", -0.5), ("higher", 0.5)):
        got = pair.compare(rows(parent, [x + step for x in parent]),
                           {"name": "m", "better": better, "bound": 0.25})
        assert (got["wins"], got["gain"]) == (pairs, False)


def test_gain_and_sign_p_leave_the_verdict_alone(trees):
    # Every pair moves by half: a gain where lower is better and a sure
    # loss where higher is, and the verdicts and exit status are as before.
    stub = Stub({"parent": lambda k: 1.0, "change": lambda k: 0.5})
    doc = drive(trees, stub, "--pairs", "10")
    for name, m in doc["workloads"]["torus_solve"]["metrics"].items():
        lower = m["better"] == "lower"
        assert (m["sign_p"], m["gain"]) == (2 / 1024, lower)
        assert m["verdict"] == ("within" if lower else "worse")
