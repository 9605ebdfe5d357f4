"""Runs one workload for a fixed time and turns the measurements into a result.

A run sets up once (``setup_s``), then repeats passes over the workload's
operation list until ``seconds`` have gone by. An untraced run installs no
wrappers and reports the end-to-end metrics. A traced run spends the first
half of its time on untraced passes and the second half on traced ones; it
reports the per-layer metrics of the traced passes and the tracing
overhead, the difference between the two halves' median pass times.

Shared machines change speed by up to 2x for tens of seconds at a time, so
raw medians of runs a minute apart disagree by more than any useful bound.
Every end-to-end time is therefore scaled by the machine's speed at that
moment: a fixed reference kernel runs before and after each measured
operation, and the operation's time is multiplied by ``REF_SECONDS`` over
the kernel's mean time around it. A scaled second is a second on a machine
that runs the kernel in ``REF_SECONDS``. The kernel is benchmark code, so a
change to anchorft moves scaled times exactly as it moves raw ones. Raw
times are printed and recorded next to the scaled ones. Span times of the
per-layer metrics are scaled by their pass's factor, scaled over raw time.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from . import layers
from .spans import Tracer
from .workloads import CheckFailed, file_digest, make_workload

__all__ = ["END_TO_END", "PER_LAYER", "ROOT", "run"]

ROOT = Path(__file__).resolve().parent.parent

REF_SECONDS = 0.025
_MASK64 = (1 << 64) - 1
_REF_W = np.random.default_rng(0).standard_normal((64, 48))
_REF_X = np.random.default_rng(1).standard_normal((32, 48))

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics the harness adds to those computed from spans.
_HARNESS_LAYER = {
    "training.steps_per_s": "1/s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}
PER_LAYER = {**{m.name: m.unit for m in layers.METRICS}, **_HARNESS_LAYER}


def _git_rev() -> str | None:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    sources = sorted(
        p for p in (ROOT / "src").rglob("*")
        if p.suffix in (".py", ".json") and "__pycache__" not in p.parts
    )
    return {
        "git_rev": _git_rev(),
        "src_sha256": _source_digest(sources),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def _source_digest(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(f"{path.relative_to(ROOT)}:{file_digest(path)}\n".encode())
    return digest.hexdigest()


def reference_kernel() -> float:
    """Seconds taken by fixed work of the kinds anchorft does.

    64-bit integer mixing and libm calls in pure Python (the random stream),
    then small matrix products (the encoders).
    """
    t0 = perf_counter()
    state, draws = 0, []
    for _ in range(20_000):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        draws.append(math.sqrt(-2.0 * math.log(((z >> 11) + 1) * 2.0**-53)))
    np.asarray(draws)
    for _ in range(600):
        np.tanh(_REF_X @ _REF_W.T)
    return perf_counter() - t0


class Scaler:
    """Scales each measured time by the machine's speed around it.

    Call ``scale`` right after every measurement: the kernel run it makes
    closes this measurement and opens the next one.
    """

    def __init__(self):
        self.kernel_s = [reference_kernel()]

    def scale(self, raw: float) -> float:
        self.kernel_s.append(reference_kernel())
        return raw * 2.0 * REF_SECONDS / (self.kernel_s[-2] + self.kernel_s[-1])


def measure_imports(probes: int, scaler: Scaler) -> tuple[list[float], list[float]]:
    """Raw and scaled wall times of fresh interpreters that import numpy and anchorft."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import numpy, anchorft"
    raw, scaled = [], []
    for _ in range(probes):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                       capture_output=True, timeout=120)
        raw.append(perf_counter() - t0)
        scaled.append(scaler.scale(raw[-1]))
    return raw, scaled


def run_pass(workload, work: Path, reference: dict, scaler: Scaler,
             tracer: Tracer | None = None) -> dict:
    """One pass over the operation list; checks are run but not timed."""
    work.mkdir(parents=True)
    op_s, scaled_s, facts, failures = {}, {}, {}, []
    first_kernel = len(scaler.kernel_s) - 1
    try:
        for op in workload.operations(work):
            span = tracer.open("bench." + op.name) if tracer else None
            t0 = perf_counter()
            try:
                output, error = op.run(), None
            except Exception as exc:  # a failed operation is counted, not fatal
                output, error = None, f"{type(exc).__name__}: {exc}"
            op_s[op.name] = perf_counter() - t0
            if tracer:
                tracer.close(span)
            scaled_s[op.name] = scaler.scale(op_s[op.name])
            if error is None:
                try:
                    facts[op.name] = op.check(output)
                except (CheckFailed, OSError, KeyError, ValueError) as exc:
                    error = f"{type(exc).__name__}: {exc}"
            if error is None:
                digest = facts[op.name]["digest"]
                if reference.setdefault(op.name, digest) != digest:
                    error = "output digest differs from the first pass"
            if error is not None:
                failures.append(f"{op.name}: {error}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    steps = sum(f.get("steps", 0) for f in facts.values())
    train_s = sum(
        f.get("train_s", op_s[name]) * scaled_s[name] / op_s[name]
        for name, f in facts.items() if "steps" in f
    )
    return {
        "wall_s": sum(scaled_s.values()),
        "raw_wall_s": sum(op_s.values()),
        "op_s": op_s,
        "kernel_s": scaler.kernel_s[first_kernel:],
        "ops": len(op_s),
        "failures": failures,
        "facts": facts,
        "train_steps_per_s": steps / train_s if train_s else 0.0,
    }


def _median(values):
    return None if any(v is None for v in values) else statistics.median(values)


def _summary(name: str, values: list[float], unit: str) -> str:
    return (
        f"{name}: median {statistics.median(values):.6g} {unit}, min {min(values):.6g}, "
        f"max {max(values):.6g}, n={len(values)}"
    )


def _setup(workload, scaler: Scaler, probes: int, repeats: int) -> tuple[dict, list[str]]:
    """Time the imports in fresh interpreters and the workload's own set-up."""
    setup = {}
    setup["raw_imports_s"], setup["imports_s"] = measure_imports(probes, scaler)
    setup["raw_prepare_s"], setup["prepare_s"], built = [], [], set()
    for _ in range(repeats):
        t0 = perf_counter()
        built.add(workload.prepare())
        setup["raw_prepare_s"].append(perf_counter() - t0)
        setup["prepare_s"].append(scaler.scale(setup["raw_prepare_s"][-1]))
    failures = [] if len(built) == 1 else ["setup: repeated set-ups built different artifacts"]
    return setup, failures


def _traced_pass(workload, work: Path, reference: dict, scaler: Scaler, tracer: Tracer):
    """One traced pass and its per-layer values; span times get the pass's scale."""
    result = run_pass(workload, work, reference, scaler, tracer)
    spans, counts, held = tracer.take_pass()
    values, unmeasured = layers.compute(
        layers.PassView(spans, counts, held), tracer.missing, tracer.broken
    )
    factor = result["wall_s"] / result["raw_wall_s"] if result["raw_wall_s"] else 1.0
    for metric in layers.METRICS:
        if metric.unit in ("s", "us") and values[metric.name] is not None:
            values[metric.name] *= factor
    values["trace.spans"] = float(len(spans))
    return result, values, unmeasured, spans


def run(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    tiny: bool = False,
    out_dir: Path = ROOT / ".perfbench_out",
    import_probes: int = 5,
    setup_repeats: int = 3,
) -> tuple[list[str], dict]:
    """Run one workload; returns human-readable lines and the result object."""
    workload = make_workload(workload_name, seed, tiny)
    env = environment(seed)
    lines = [f"workload {workload_name} seed {seed} trace {int(trace)}: one client, closed loop"]
    lines.append("env " + json.dumps(env))
    scaler = Scaler()
    if trace:
        setup, failures = {}, []
        workload.prepare()
    else:
        setup, failures = _setup(workload, scaler, import_probes, setup_repeats)

    work_root = out_dir / "work" / f"{workload_name}-{os.getpid()}"
    reference: dict = {}
    untraced, traced, layer_values, unmeasured, spans_out = [], [], [], {}, []
    t_start = perf_counter()
    try:
        while not untraced or perf_counter() - t_start < (seconds / 2 if trace else seconds):
            work = work_root / f"pass{len(untraced)}"
            untraced.append(run_pass(workload, work, reference, scaler))
        if trace:
            tracer = Tracer()
            try:
                layers.install(tracer)
                while not traced or perf_counter() - t_start < seconds:
                    work = work_root / f"pass{len(untraced) + len(traced)}"
                    result, values, missed, spans = _traced_pass(
                        workload, work, reference, scaler, tracer
                    )
                    traced.append(result)
                    layer_values.append(values)
                    unmeasured.update(missed)
                    spans_out.append(spans)
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    passes = untraced + traced
    attempted = sum(p["ops"] for p in passes) + (0 if trace else 1)
    failures += [f for p in passes for f in p["failures"]]
    walls = [p["wall_s"] for p in untraced]
    steps_per_s = [p["train_steps_per_s"] for p in untraced]
    lines.append(_summary("wall_s (untraced, scaled)", walls, "s"))
    lines.append(_summary("wall_s (untraced, raw)", [p["raw_wall_s"] for p in untraced], "s"))
    for op in untraced[0]["op_s"]:
        lines.append("  " + _summary(op + " (raw)", [p["op_s"][op] for p in untraced], "s"))
    if any(steps_per_s):
        lines.append(_summary("train_steps_per_s (untraced, scaled)", steps_per_s, "1/s"))

    if trace:
        values = {name: _median([v[name] for v in layer_values]) for name in layer_values[0]}
        values["training.steps_per_s"] = statistics.median(steps_per_s)
        values["trace.wall_s"] = statistics.median(p["wall_s"] for p in traced)
        values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(walls)
        units = PER_LAYER
        samples = {name: f"median of {len(traced)} traced passes" for name in PER_LAYER}
        samples["training.steps_per_s"] = f"median of {len(untraced)} untraced passes"
        samples["trace.overhead_s"] = (
            f"median of {len(traced)} traced minus median of {len(untraced)} untraced passes"
        )
        lines.append(_summary("wall_s (traced, scaled)", [p["wall_s"] for p in traced], "s"))
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": (
                statistics.median(setup["imports_s"]) + statistics.median(setup["prepare_s"])
            ),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units, samples = END_TO_END, {
            "wall_s": f"median of {len(untraced)} passes",
            "setup_s": (
                f"median of {import_probes} import probes + median of {setup_repeats} set-ups"
            ),
            "peak_rss_mb": "1 process",
        }
        for part in ("imports_s", "prepare_s"):
            lines.append(_summary(f"setup {part} (scaled)", setup[part], "s"))
            lines.append(_summary(f"setup {part} (raw)", setup["raw_" + part], "s"))

    metrics = {}
    for name, unit in units.items():
        metrics[name] = {"value": values[name], "unit": unit}
        note = samples[name]
        if name in unmeasured:
            metrics[name]["unmeasured"] = unmeasured[name]
            note = "unmeasured: " + unmeasured[name]
        lines.append(f"metric {name} = {values[name]} {unit} ({note})")
    lines.append(f"error_rate = {len(failures) / attempted:.6g} ratio "
                 f"({len(failures)} of {attempted} operations failed)")
    lines += [f"FAILED {f}" for f in failures]
    first = untraced[0]["facts"]
    for op, facts in first.items():
        shown = {k: v for k, v in facts.items() if k in ("digest", "checkpoint_id", "accuracy")}
        lines.append(f"output {op} {json.dumps(shown)}")

    final = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": workload_name, "seed": seed, "trace": int(trace), "seconds": seconds,
        "tiny": tiny, "env": env, "setup": setup, "failures": failures, "result": final,
        "outputs": first,
        "passes": [
            {k: p[k] for k in ("wall_s", "raw_wall_s", "op_s", "kernel_s", "failures",
                               "train_steps_per_s")}
            for p in passes
        ],
    }
    record_path = out_dir / f"{workload_name}-seed{seed}-trace{int(trace)}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    lines.append(f"record written to {record_path.relative_to(out_dir.parent)}")
    if spans_out:
        spans_path = out_dir / f"{workload_name}.spans.jsonl"
        with open(spans_path, "w") as handle:
            for number, spans in enumerate(spans_out):
                for span in spans:
                    handle.write(json.dumps([number, *span]) + "\n")
        lines.append(f"spans written to {spans_path.relative_to(out_dir.parent)}")
    return lines, final
