"""tools/benchpair.py: the gain and regression rules on made-up pairs of runs,
the host record and failed runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "benchpair.py"
_SPEC = importlib.util.spec_from_file_location("benchpair", _PATH)
benchpair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(benchpair)

WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
RATE = {"name": "rate", "unit": "1/s", "better": "higher"}


def runs(a_values, b_values, name="wall_s", b_failed=0):
    """Pairs of runs of 100 operations each; B's first run fails b_failed of them."""
    return [
        {
            "a": {"metrics": {name: a}, "attempted": 100, "failed": 0, "outputs": {}},
            "b": {"metrics": {name: b}, "attempted": 100, "failed": b_failed if i == 0 else 0,
                  "outputs": {}},
        }
        for i, (a, b) in enumerate(zip(a_values, b_values))
    ]


PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.03, 0.97]


def test_nine_wins_and_a_median_gap_past_the_iqr_is_a_gain():
    change = [0.80] * 9 + [1.05]
    s = benchpair.summarize(runs(PARENT, change), [WALL])["wall_s"]
    assert s["b_wins"] == 9 and s["gain"]
    assert s["a"]["median"] == pytest.approx(1.0)
    assert s["change"] == pytest.approx(-0.2)


def test_eight_wins_is_no_gain():
    change = [0.80] * 8 + [1.05, 1.05]
    s = benchpair.summarize(runs(PARENT, change), [WALL])["wall_s"]
    assert s["b_wins"] == 8 and not s["gain"]


def test_a_gap_inside_the_parent_iqr_is_no_gain():
    change = [a - 0.005 for a in PARENT]
    s = benchpair.summarize(runs(PARENT, change), [WALL])["wall_s"]
    assert s["b_wins"] == 10 and not s["gain"]


def test_higher_is_better_counts_the_other_way_and_ties_count_for_neither():
    s = benchpair.summarize(runs([1.0, 1.0, 1.0], [2.0, 2.0, 1.0], "rate"), [RATE])["rate"]
    assert s["b_wins"] == 2 and not s["gain"]


@pytest.mark.parametrize("pairs", [1, 9])
def test_fewer_than_ten_pairs_is_no_gain_however_they_fall(pairs):
    s = benchpair.summarize(runs(PARENT[:pairs], [0.5] * pairs), [WALL])["wall_s"]
    assert s["b_wins"] == pairs and not s["gain"]


def test_a_larger_share_of_failed_operations_is_no_gain():
    change = [0.80] * 10
    assert benchpair.summarize(runs(PARENT, change), [WALL])["wall_s"]["gain"]
    s = benchpair.summarize(runs(PARENT, change, b_failed=1), [WALL])["wall_s"]
    assert s["b_wins"] == 10 and not s["gain"]


def test_a_failed_share_no_larger_than_the_parents_still_counts():
    pairs = runs(PARENT, [0.80] * 10, b_failed=1)
    pairs[0]["a"]["failed"] = 1
    pairs[1]["b"]["attempted"] = 200
    assert benchpair.summarize(pairs, [WALL])["wall_s"]["gain"]


RSS = {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}
# PARENT's shape with an interquartile range of 0.3 MB, three times RSS's bound.
SPREAD = [50.0 + 15 * (a - 1.0) for a in PARENT]


@pytest.mark.parametrize("metric,a_values,b_values,verdict", [
    (WALL, PARENT, [a + 0.1 for a in PARENT], "held"),
    (WALL, PARENT, [a + 0.3 for a in PARENT], "worse"),
    (RSS, SPREAD, SPREAD, "unresolved"),
    (RSS, SPREAD, [min(SPREAD) - 0.01] * 10, "held"),
    (RATE, PARENT, [a + 5.0 for a in PARENT], None),
], ids=["held-under-bound", "worse-past-bound", "unresolved-spread", "held-every-b-better",
        "no-bound"])
def test_regression_verdict_against_the_metrics_bound(metric, a_values, b_values, verdict):
    record = benchpair.compare(runs(a_values, b_values, metric["name"]), [metric])
    assert record["summary"][metric["name"]]["regression"] == verdict
    shown = benchpair.report("datagen", record, 10, 30)
    assert ("regression" in shown) == (verdict is not None)
    assert f"regression {verdict}" in shown or verdict is None


def outputs(pretrain_digest="d1", checkpoint_id="c1", accuracy=50.0):
    return {
        "pretrain": json.dumps({"digest": pretrain_digest, "checkpoint_id": checkpoint_id}),
        "eval": json.dumps({"digest": "e1", "accuracy": accuracy}),
    }


def test_outputs_differ_names_each_operation_and_the_facts_that_moved():
    pairs = runs(PARENT[:2], [0.9, 0.9])
    for pair in pairs:
        pair["a"]["outputs"] = pair["b"]["outputs"] = outputs()
    record = benchpair.compare(pairs, [WALL])
    assert record["outputs_match"] and record["outputs_differ"] == {}
    assert "differs" not in benchpair.report("pipeline", record, 2, 30)
    for pair in pairs:
        pair["b"]["outputs"] = outputs(pretrain_digest="d2")
    record = benchpair.compare(pairs, [WALL])
    assert not record["outputs_match"]
    assert record["outputs_differ"] == {"pretrain": ["digest"]}
    assert "output pretrain differs in digest" in benchpair.report("pipeline", record, 2, 30)
    pairs[1]["a"]["outputs"] = outputs(checkpoint_id="c2", accuracy=40.0)
    pairs[1]["b"]["outputs"] = {"pretrain": outputs()["pretrain"]}
    assert benchpair.compare(pairs, [WALL])["outputs_differ"] == {
        "eval": ["accuracy", "digest"], "pretrain": ["checkpoint_id", "digest"]
    }


def test_one_pair_has_degenerate_quartiles():
    assert benchpair.quartiles([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0}


def test_the_host_names_the_bytecode_setting_and_each_trees_bytecode(tmp_path, monkeypatch):
    trees = {side: tmp_path / side for side in "ab"}
    (trees["a"] / "src" / "pkg").mkdir(parents=True)
    (trees["b"] / "src" / "pkg" / "__pycache__").mkdir(parents=True)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    host = benchpair.host(trees)
    assert host["PYTHONDONTWRITEBYTECODE"] == "1"
    assert host["pycache"] == {"a": False, "b": True}
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE")
    assert benchpair.host(trees)["PYTHONDONTWRITEBYTECODE"] is None


def test_a_run_that_exits_non_zero_raises_with_its_code_and_stderr_tail(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import sys\n"
        "for i in range(30):\n"
        "    print(f'line {i}', file=sys.stderr)\n"
        "sys.exit(3)\n"
    )
    with pytest.raises(benchpair.RunFailed) as failed:
        benchpair.run_once(tmp_path, "datagen", 1, 0.1)
    assert failed.value.facts == {
        "returncode": 3,
        "stderr_tail": [f"line {i}" for i in range(30 - benchpair.STDERR_LINES, 30)],
    }


def fake_run(metrics_by_call, fail_at):
    """A run_once that fails on call fail_at and otherwise returns the next wall_s."""
    calls = []

    def run_once(tree, workload, seed, seconds):
        calls.append(tree.name)
        if len(calls) == fail_at:
            raise benchpair.RunFailed(2, "Traceback\nMemoryError")
        return {"metrics": {"wall_s": metrics_by_call[len(calls) - 1]}, "attempted": 1,
                "failed": 0, "outputs": {"x": json.dumps({"digest": "1"})}}

    return run_once, calls


def fake_export(rev, dest):
    dest.mkdir(parents=True)
    (dest / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 30, "end_to_end": [WALL]}))
    return f"commit-{rev}"


def test_a_failed_run_writes_the_finished_pairs_then_exits_non_zero(tmp_path, monkeypatch, capsys):
    run_once, calls = fake_run([1.0, 0.9, 0.8, 1.1], fail_at=5)
    monkeypatch.setattr(benchpair, "export", fake_export)
    monkeypatch.setattr(benchpair, "run_once", run_once)
    out = tmp_path / "record.json"
    argv = ["A", "B", "--workload", "datagen", "--workload", "pipeline", "--seed", "7",
            "--pairs", "3", "--out", str(out)]
    assert benchpair.main(argv) == 1
    assert calls == ["a", "b", "b", "a", "a"]  # the third pair's first run failed
    record = json.loads(out.read_text())
    assert record["failure"] == {
        "workload": "datagen", "pair": 3, "side": "a", "returncode": 2,
        "stderr_tail": ["Traceback", "MemoryError"],
    }
    assert list(record["workloads"]) == ["datagen"]
    finished = record["workloads"]["datagen"]
    walls = [(r["a"]["metrics"]["wall_s"], r["b"]["metrics"]["wall_s"]) for r in finished["runs"]]
    assert walls == [(1.0, 0.9), (1.1, 0.8)]
    assert finished["summary"]["wall_s"]["pairs"] == 2
    assert "MemoryError" in capsys.readouterr().err


def test_a_run_that_fails_first_writes_a_record_without_pairs(tmp_path, monkeypatch):
    run_once, calls = fake_run([], fail_at=1)
    monkeypatch.setattr(benchpair, "export", fake_export)
    monkeypatch.setattr(benchpair, "run_once", run_once)
    out = tmp_path / "record.json"
    assert benchpair.main(["A", "B", "--workload", "datagen", "--seed", "7", "--pairs", "10",
                           "--out", str(out)]) == 1
    record = json.loads(out.read_text())
    assert record["workloads"] == {} and record["failure"]["pair"] == 1
    assert record["a"]["commit"] == "commit-A" and "host" in record


RESULT = json.dumps({"metrics": {"wall_s": {"value": 1.0}}, "attempted": 1, "failed": 0})
SILENT = "import sys\nprint('warming up', file=sys.stderr)\n"
NOT_JSON = "import sys\nprint('warming up', file=sys.stderr)\nprint('output x {}')\nprint('done')\n"
NOT_A_RESULT = "import sys\nprint('warming up', file=sys.stderr)\nprint('[1]')\n"


def fake_tree(tree, body):
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text(body)


@pytest.mark.parametrize("body,last_line", [(SILENT, ""), (NOT_JSON, "done"),
                                            (NOT_A_RESULT, "[1]")],
                         ids=["prints-nothing", "last-line-not-json", "json-not-a-result"])
def test_a_run_that_exits_zero_without_a_result_raises_with_its_last_line(
        tmp_path, body, last_line):
    fake_tree(tmp_path, body)
    with pytest.raises(benchpair.RunFailed) as failed:
        benchpair.run_once(tmp_path, "datagen", 1, 0.1)
    assert failed.value.facts == {
        "returncode": 0, "stderr_tail": ["warming up"], "stdout_last_line": last_line,
    }


@pytest.mark.parametrize("body,last_line", [(SILENT, ""), (NOT_JSON, "done")],
                         ids=["prints-nothing", "last-line-not-json"])
def test_an_unreadable_run_writes_the_finished_pairs_then_exits_non_zero(
        tmp_path, monkeypatch, capsys, body, last_line):
    # Each tree's run.py prints a result on its first call and fails after.
    def export(rev, dest):
        fake_export(rev, dest)
        fake_tree(dest, "import pathlib, sys\n"
                        "calls = pathlib.Path('calls')\n"
                        "if calls.exists():\n"
                        f"    exec({body!r})\n"
                        "    sys.exit(0)\n"
                        "calls.write_text('1')\n"
                        f"print({RESULT!r})\n")
        return f"commit-{rev}"

    monkeypatch.setattr(benchpair, "export", export)
    out = tmp_path / "record.json"
    assert benchpair.main(["A", "B", "--workload", "datagen", "--seed", "7", "--pairs", "3",
                           "--out", str(out)]) == 1
    record = json.loads(out.read_text())
    assert record["failure"] == {
        "workload": "datagen", "pair": 2, "side": "b", "returncode": 0,
        "stderr_tail": ["warming up"], "stdout_last_line": last_line,
    }
    assert record["workloads"]["datagen"]["summary"]["wall_s"]["pairs"] == 1
    assert f"exited 0 with last stdout line {last_line!r}" in capsys.readouterr().err
