"""Paired end-to-end benchmark runs of two git revisions.

    python3 tools/benchpair.py A B --workload datagen --seed 11 --pairs 10 --out BENCH_n.json

Run it from inside the repository. Each revision is exported with
`git archive` into its own temporary directory, and each tree runs its own
`python3 perfbench/run.py --trace 0` in a subprocess, for the run length
(`run_seconds`) that A's BENCHMARK.json sets. Pairs alternate which side
runs first. For every end-to-end metric that BENCHMARK.json names, it
prints each side's median and quartiles, how many pairs B won (ties count
for neither) and B's median change against A. B shows a gain when there
are at least ten pairs, B wins at least nine tenths of them, the medians
differ, in the better direction, by more than A's interquartile range, and
no larger share of B's operations failed than of A's. For a metric with a
`bound` (in the metric's own unit), B's regression verdict is "unresolved"
when A's interquartile range exceeds the bound, unless every B run beats
every A run; otherwise "worse" when B's median is worse than A's by more
than the bound, and "held" when it is not. Each run's output
facts are compared with A's first run, and the record names, per
operation, the fact keys that differ (`outputs_differ`). --workload may be
given more than once; every workload gets its own pairs. The record names
the host, including PYTHONDONTWRITEBYTECODE and whether each exported tree
has bytecode: without it every run compiles anchorft, and setup_s includes
that. A run that exits non-zero stops the comparison: the pairs finished
so far are summarized and written, with the failed run's exit code and the
tail of its stderr, and the tool exits 1. For quick timings of one tree,
run its perfbench/run.py with --seconds directly.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

# Fewer pairs than this never show a gain.
MIN_PAIRS = 10

# Lines of a failed run's stderr kept in the record.
STDERR_LINES = 20


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], capture_output=True, check=True).stdout


def export(rev: str, dest: Path) -> str:
    """Extract the tree of `rev` into dest; return the full commit id."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(_git("archive", commit))) as tar:
        tar.extractall(dest, filter="data")
    return commit


class RunFailed(Exception):
    """A perfbench run exited non-zero; facts holds its exit code and the tail of its stderr."""

    def __init__(self, returncode: int, stderr: str):
        self.facts = {"returncode": returncode, "stderr_tail": stderr.splitlines()[-STDERR_LINES:]}
        super().__init__(f"perfbench exited {returncode}")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run: its result object and its output digests.

    Raises RunFailed if the run exits non-zero.
    """
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    if proc.returncode:
        raise RunFailed(proc.returncode, proc.stderr)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    outputs = dict(line.split(" ", 2)[1:] for line in lines if line.startswith("output "))
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "outputs": outputs,
    }


def host(trees: dict[str, Path]) -> dict:
    """The interpreter, CPUs and environment the runs share, and whether each tree has bytecode.

    An exported tree has no __pycache__ unless one was committed. With
    PYTHONDONTWRITEBYTECODE set, every run then compiles the tree's modules
    from source, and the compile time is part of its setup_s.
    """
    return {
        "python": platform.python_version(), "machine": platform.machine(),
        "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        **{name: os.environ.get(name) for name in ("NUMPY_MADVISE_HUGEPAGE",
                                                   "PYTHONDONTWRITEBYTECODE")},
        "pycache": {side: any(tree.rglob("__pycache__")) for side, tree in trees.items()},
    }


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def totals(runs: list[dict], key: str) -> dict:
    """Each side's sum of `key` ("failed" or "attempted") over the runs."""
    return {side: sum(r[side][key] for r in runs) for side in "ab"}


def regression(pairs: list[tuple], a: dict, b: dict, sign: int, bound) -> str | None:
    """B's no-regression verdict against a bound in the metric's unit; None without a bound."""
    if bound is None:
        return None
    b_beats_all = all(sign * (x - y) > 0 for x, _ in pairs for _, y in pairs)
    if a["q3"] - a["q1"] > bound and not b_beats_all:
        return "unresolved"
    return "worse" if sign * (b["median"] - a["median"]) > bound else "held"


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's quartiles, B's wins, its median change, gain and regression."""
    failed, attempted = totals(runs, "failed"), totals(runs, "attempted")
    # B's failed share is no larger than A's; cross-multiplied, so a side
    # that attempted nothing needs no division by zero.
    fails_no_more = failed["b"] * attempted["a"] <= failed["a"] * attempted["b"]
    summary = {}
    for metric in metrics:
        name, sign = metric["name"], (1 if metric["better"] == "lower" else -1)
        pairs = [(r["a"]["metrics"][name], r["b"]["metrics"][name]) for r in runs]
        a = quartiles([x for x, _ in pairs])
        b = quartiles([y for _, y in pairs])
        wins = sum(sign * (x - y) > 0 for x, y in pairs)
        gain = sign * (a["median"] - b["median"])
        summary[name] = {
            "unit": metric["unit"], "better": metric["better"], "bound": metric.get("bound"),
            "a": a, "b": b, "b_wins": wins, "pairs": len(pairs),
            "change": (b["median"] - a["median"]) / a["median"] if a["median"] else None,
            "gain": len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs)
            and gain > a["q3"] - a["q1"] and fails_no_more,
            "regression": regression(pairs, a, b, sign, metric.get("bound")),
        }
    return summary


def outputs_differ(runs: list[dict]) -> dict:
    """Each operation whose output facts differ from A's first run in any run: the differing keys.

    An operation's facts are the JSON object perfbench prints on its output
    line ("digest", "checkpoint_id", "accuracy"); one that a run lacks
    differs in every key.
    """
    reference = {op: json.loads(shown) for op, shown in runs[0]["a"]["outputs"].items()}
    differ: dict[str, set] = {}
    for outputs in (r[side]["outputs"] for r in runs for side in "ab"):
        for op in reference.keys() | outputs.keys():
            facts, ref = json.loads(outputs.get(op, "{}")), reference.get(op, {})
            keys = {k for k in facts.keys() | ref.keys() if facts.get(k) != ref.get(k)}
            if keys:
                differ.setdefault(op, set()).update(keys)
    return {op: sorted(keys) for op, keys in sorted(differ.items())}


def compare(runs: list[dict], metrics: list[dict]) -> dict:
    """One workload's record: the summary, how outputs compare with A's first run, the runs."""
    reference = runs[0]["a"]["outputs"]
    return {
        "summary": summarize(runs, metrics),
        "outputs_match": all(r[s]["outputs"] == reference for r in runs for s in "ab"),
        "outputs_differ": outputs_differ(runs),
        "failed": totals(runs, "failed"),
        "attempted": totals(runs, "attempted"),
        "runs": runs,
    }


def report(workload: str, result: dict, pairs: int, seconds: float) -> str:
    lines = [
        f"{workload}: {pairs} pairs of {seconds:g} s runs; outputs "
        f"{'identical' if result['outputs_match'] else 'DIFFER'}; failed operations "
        f"A {result['failed']['a']}/{result['attempted']['a']}, "
        f"B {result['failed']['b']}/{result['attempted']['b']}"
    ]
    lines += [f"  output {op} differs in {', '.join(keys)}"
              for op, keys in result["outputs_differ"].items()]
    for name, s in result["summary"].items():
        change = "n/a" if s["change"] is None else f"{100 * s['change']:+.1f}%"
        lines.append(
            f"  {name:12} A {s['a']['median']:.4f} [{s['a']['q1']:.4f}, {s['a']['q3']:.4f}]"
            f"  B {s['b']['median']:.4f} [{s['b']['q1']:.4f}, {s['b']['q3']:.4f}] {s['unit']}"
            f"  B better in {s['b_wins']}/{s['pairs']}  {change}"
            f"{'  gain' if s['gain'] else ''}"
            f"{'' if s['regression'] is None else '  regression ' + s['regression']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="baseline revision")
    parser.add_argument("b", help="revision compared against it")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, help="write the record here as JSON")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with tempfile.TemporaryDirectory(prefix="benchpair-") as scratch:
        trees = {side: Path(scratch) / side for side in ("a", "b")}
        commits = {side: export(getattr(args, side), tree) for side, tree in trees.items()}
        spec = json.loads((trees["a"] / "BENCHMARK.json").read_text())
        seconds = spec["run_seconds"]
        record = {
            "a": {"rev": args.a, "commit": commits["a"]},
            "b": {"rev": args.b, "commit": commits["b"]},
            "seed": args.seed, "seconds": seconds, "pairs": args.pairs,
            "host": host(trees),
            "workloads": {},
        }
        for workload in args.workload:
            runs = []
            try:
                for i in range(args.pairs):
                    order = ("a", "b") if i % 2 == 0 else ("b", "a")
                    pair = {"first": order[0]}
                    for side in order:
                        pair[side] = run_once(trees[side], workload, args.seed, seconds)
                    runs.append(pair)
                    print(f"{workload} pair {i + 1}/{args.pairs}: " + "  ".join(
                        f"{side} wall_s={pair[side]['metrics']['wall_s']:.4f}" for side in "ab"
                    ), flush=True)
            except RunFailed as failure:
                record["failure"] = {
                    "workload": workload, "pair": len(runs) + 1, "side": side, **failure.facts
                }
            if runs:
                record["workloads"][workload] = compare(runs, spec["end_to_end"])
                print(report(workload, record["workloads"][workload], len(runs), seconds))
            if "failure" in record:
                break
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
        print(f"record written to {args.out}")
    if "failure" in record:
        failure = record["failure"]
        print(f"error: side {failure['side']} exited {failure['returncode']} in "
              f"{failure['workload']} pair {failure['pair']}:", *failure["stderr_tail"],
              sep="\n", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
