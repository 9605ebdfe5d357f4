"""Which anchorft functions are wrapped, and the per-layer metrics of a pass.

A layer is one module of ``src/anchorft``. Every public function in a
module's ``__all__`` is wrapped, plus the methods and private helpers that a
metric needs (the random stream, the caption provider, the unit-row check,
the pretraining pair term, the atomic file writer and the CLI handlers).
Span names are ``<layer>.<qualified name>`` whatever namespace the call went
through. A metric whose target is gone (renamed, or folded into another
function) is reported as unmeasured instead of stopping the run.

Times are per pass, in seconds, and inclusive unless named ``self``: a span
nested in a span of the same set is not counted twice. Counts are exact.
"""

from __future__ import annotations

import importlib
import inspect
import math
import os
from collections import defaultdict
from typing import Callable, NamedTuple

from .spans import Tracer, inclusive_time, self_times

__all__ = ["LAYERS", "METRICS", "Metric", "PassView", "compute", "install"]

LAYERS = (
    "numerics",
    "benchgen",
    "fileio",
    "encoders",
    "contrastive",
    "anchors",
    "training",
    "evaluation",
    "cli",
)

CLI_COMMANDS = (
    "benchgen", "pretrain", "precompute", "train", "eval", "ensemble", "gradcheck", "report"
)

_WRITES = tuple(
    "fileio." + n
    for n in (
        "write_bundle", "write_candidate_index", "write_checkpoint", "write_curve_csv",
        "write_feature_set", "write_json", "write_jsonl", "write_matrix", "write_metrics",
    )
)
_READS = tuple(
    "fileio." + n
    for n in (
        "load_bundle", "read_candidate_index", "read_checkpoint", "read_curve_csv",
        "read_feature_set", "read_json", "read_jsonl", "read_matrix", "read_metrics",
    )
)
_LEAF_READS = (
    "fileio.read_json", "fileio.read_jsonl", "fileio.read_matrix", "fileio.read_curve_csv"
)


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _count_stream(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("numerics.streams", 1)
    tracer.held["streams"].append(args[0])


def _count_bytes_read(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("fileio.bytes_read", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _count_write(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("fileio.bytes_written", len(_arg(args, kwargs, 1, "payload")))
    tracer.add("fileio.files_written", 1)


def _count_encode(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("encoders.encode_rows", len(result[0]))


def _count_similarities(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("contrastive.sim_entries", len(result[1]) ** 2)


def _count_retrieve(tracer: Tracer, args, kwargs, result) -> None:
    index = _arg(args, kwargs, 0, "index")
    tracer.add("anchors.retrieve_scores", len(_arg(args, kwargs, 1, "queries")) * index.size)


def _count_assemble(tracer: Tracer, args, kwargs, result) -> None:
    batch = _arg(args, kwargs, 0, "batch")
    assignments = _arg(args, kwargs, 2, "assignments")
    if assignments is None:
        return
    tracer.add("anchors.offered", sum(len(assignments.get(s.id, ())) for s in batch))
    if result.layout == "merge":
        tracer.add("anchors.unique", len(result.caption_pairs) - len(batch))
    else:
        tracer.add("anchors.unique", len(result.retrieved_pairs))
    tracer.add("anchors.skip_ret_steps", int(result.skip_ret))


def _count_step(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("training.steps", 1)


def _count_classify(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("evaluation.classify_rows", len(result))


# (module, attribute path, counter); the span name is "<layer>.<path>".
_EXTRA_TARGETS = [
    ("numerics", "RandomStream.__init__", _count_stream),
    ("numerics", "RandomStream.normals", None),
    ("benchgen", "SynthCaptionProvider.caption_feature", None),
    ("contrastive", "PairBatch.__post_init__", None),
    ("training", "_pair_term", None),
    ("fileio", "_atomic_write_bytes", _count_write),
    *[("cli", "cmd_" + c, None) for c in CLI_COMMANDS],
]

_COUNTERS = {
    **{name: _count_bytes_read for name in _LEAF_READS},
    "encoders.encode_batch": _count_encode,
    "contrastive.contrastive_loss_and_grads": _count_similarities,
    "anchors.retrieve": _count_retrieve,
    "anchors.assemble_anchor_batch": _count_assemble,
    "training.adamw_update": _count_step,
    "evaluation.classify": _count_classify,
}


# Leaf helpers that take less time per call than a wrapper adds, called
# hundreds of thousands of times a pass; their time stays in the caller's.
_UNWRAPPED = {"numerics.splitmix64", "numerics.derive_seed", "numerics.gaussian_stream",
              "numerics.as_float_array"}


def _targets() -> list[tuple[str, str, Callable | None]]:
    targets = []
    for layer in LAYERS:
        try:
            module = importlib.import_module("anchorft." + layer)
        except ImportError:
            continue  # its metrics' targets are then reported missing
        for name in getattr(module, "__all__", ()):
            value = getattr(module, name, None)
            if f"{layer}.{name}" in _UNWRAPPED:
                continue
            if inspect.isfunction(value) and value.__module__ == module.__name__:
                targets.append((layer, name, _COUNTERS.get(f"{layer}.{name}")))
    targets += _EXTRA_TARGETS
    return targets


def install(tracer: Tracer) -> None:
    """Wrap every target; what cannot be found is left in ``tracer.missing``."""
    targets = _targets()
    for layer, path, count in targets:
        tracer.wrap_target("anchorft." + layer, path, f"{layer}.{path}", count)
    # A metric's target that is no longer a public function is missing too,
    # not silently zero.
    wrapped = {f"{layer}.{path}" for layer, path, _ in targets}
    for need in {n for metric in METRICS for n in metric.needs} - wrapped:
        tracer.missing.setdefault(need, f"anchorft.{need} not found")


class PassView:
    """What one traced pass recorded, with lazily computed self times."""

    def __init__(self, spans, counts, held):
        self.spans = spans
        self.counts = counts
        self.held = held
        self._self: list[float] | None = None

    def time(self, *names: str) -> float:
        return inclusive_time(self.spans, names)

    def count(self, name: str) -> float:
        return self.counts.get(name, 0.0)

    def self_time(self, predicate: Callable[[str], bool]) -> float:
        if self._self is None:
            self._self = self_times(self.spans)
        return sum(t for span, t in zip(self.spans, self._self) if predicate(span[0]))


def _draws(view: PassView) -> float:
    return float(sum(stream.draw_count for stream in view.held.get("streams", ())))


def _step_us(view: PassView, quantile: float) -> float:
    """Nearest-rank percentile of step times in microseconds.

    A step is the interval between consecutive AdamW updates of one training
    call, so it covers batch gather, anchor assembly, loss, backward, update
    and logging. The first step of each call has no start mark and is left
    out.
    """
    ends = defaultdict(list)
    for name, _, end, parent in view.spans:
        if name == "training.adamw_update":
            ends[parent].append(end)
    steps = sorted((b - a) * 1e6 for e in ends.values() for a, b in zip(e, e[1:]))
    if not steps:
        return 0.0
    return steps[max(0, math.ceil(quantile * len(steps)) - 1)]


def _ratio(view: PassView, num: str, den: str) -> float:
    den_value = view.count(den)
    return view.count(num) / den_value if den_value else 0.0


class Metric(NamedTuple):
    name: str
    unit: str
    needs: tuple[str, ...]
    value: Callable[[PassView], float]


def _time(name: str, *spans: str) -> Metric:
    return Metric(name, "s", spans, lambda v: v.time(*spans))


def _count(name: str, unit: str, *needs: str) -> Metric:
    return Metric(name, unit, needs, lambda v: v.count(name))


def _in_layer(layer: str) -> Callable[[str], bool]:
    return lambda span_name: span_name.split(".")[0] == layer


def _layer_self(layer: str, *needs: str) -> Metric:
    return Metric(f"{layer}.self_s", "s", needs, lambda v: v.self_time(_in_layer(layer)))


METRICS: list[Metric] = [
    _count("numerics.streams", "count", "numerics.RandomStream.__init__"),
    Metric("numerics.draws", "count", ("numerics.RandomStream.__init__",), _draws),
    _time("numerics.normals_s", "numerics.RandomStream.normals"),
    _layer_self("numerics"),
    _time("benchgen.generate_s", "benchgen.generate_benchmark"),
    _time("benchgen.rotation_s", "benchgen.random_rotation"),
    _time("benchgen.caption_s", "benchgen.SynthCaptionProvider.caption_feature"),
    _layer_self("benchgen"),
    _time("fileio.write_s", *_WRITES),
    _time("fileio.read_s", *_READS),
    _count("fileio.bytes_written", "bytes", "fileio._atomic_write_bytes"),
    _count("fileio.bytes_read", "bytes", *_LEAF_READS),
    _count("fileio.files_written", "count", "fileio._atomic_write_bytes"),
    _layer_self("fileio"),
    _time("encoders.encode_s", "encoders.encode_batch"),
    _count("encoders.encode_rows", "count", "encoders.encode_batch"),
    _time("encoders.backward_s", "encoders.encoder_backward_batch"),
    _time("encoders.fingerprint_s", "encoders.param_fingerprint"),
    _layer_self("encoders"),
    _time("contrastive.loss_s", "contrastive.contrastive_loss_and_grads"),
    _time("contrastive.pairbatch_s", "contrastive.PairBatch.__post_init__"),
    _count("contrastive.sim_entries", "count", "contrastive.contrastive_loss_and_grads"),
    _layer_self("contrastive"),
    _time("anchors.index_build_s", "anchors.build_candidate_index"),
    _time("anchors.retrieve_s", "anchors.retrieve"),
    _count("anchors.retrieve_scores", "count", "anchors.retrieve"),
    _time("anchors.assemble_s", "anchors.assemble_anchor_batch"),
    Metric(
        "anchors.unique_ratio",
        "ratio",
        ("anchors.assemble_anchor_batch",),
        lambda v: _ratio(v, "anchors.unique", "anchors.offered"),
    ),
    _count("anchors.skip_ret_steps", "count", "anchors.assemble_anchor_batch"),
    _layer_self("anchors"),
    _count("training.steps", "count", "training.adamw_update"),
    Metric("training.step_us_p50", "us", ("training.adamw_update",), lambda v: _step_us(v, 0.50)),
    Metric("training.step_us_p99", "us", ("training.adamw_update",), lambda v: _step_us(v, 0.99)),
    _time("training.grad_s", "training.compute_total_loss_and_grads", "training._pair_term"),
    _time("training.adamw_s", "training.adamw_update"),
    Metric(
        "training.loop_self_s",
        "s",
        ("training.pretrain", "training.run_finetune"),
        lambda v: v.self_time(lambda n: n in ("training.pretrain", "training.run_finetune")),
    ),
    _layer_self("training"),
    _time("evaluation.evaluate_s", "evaluation.evaluate_splits"),
    _time("evaluation.ensemble_s", "evaluation.ensemble_sweep"),
    _count("evaluation.classify_rows", "count", "evaluation.classify"),
    _layer_self("evaluation"),
    *[_time(f"cli.{c}_s", f"cli.cmd_{c}") for c in CLI_COMMANDS],
    _layer_self("cli", "cli.main"),
]


def compute(view: PassView, missing: dict, broken: dict) -> tuple[dict, dict]:
    """Per-layer values of one pass, and the reason for each unmeasured one."""
    values, unmeasured = {}, {}
    for metric in METRICS:
        reasons = [missing.get(n) or broken.get(n) for n in metric.needs]
        reasons = [r for r in reasons if r]
        if not reasons:
            try:
                values[metric.name] = float(metric.value(view))
                continue
            except Exception as exc:  # a changed object must not stop the run
                reasons = [f"{type(exc).__name__}: {exc}"]
        values[metric.name] = None
        unmeasured[metric.name] = "; ".join(reasons)
    return values, unmeasured
