"""Self-tests of the benchmark: span arithmetic, wrapper fallbacks, tiny runs."""

from __future__ import annotations

import json
import sys
import types

import pytest

import anchorft.encoders
import anchorft.training
from perfbench import harness, layers
from perfbench.spans import Tracer, inclusive_time, self_times


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],  # overlaps a
        ["a.child", 1.5, 2.0, 1],
        ["c", 9.0, 12.0, 0],  # runs past the end of root
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.5, 3.0, 0.5, 3.0])


def test_inclusive_time_counts_nested_spans_of_the_set_once():
    spans = [
        ["outer", 0.0, 5.0, -1],
        ["f", 1.0, 4.0, 0],
        ["f", 2.0, 3.0, 1],
        ["g", 6.0, 7.0, -1],
        ["f", 6.5, 6.75, 3],
    ]
    assert inclusive_time(spans, {"f"}) == pytest.approx(3.25)
    assert inclusive_time(spans, {"f", "g"}) == pytest.approx(4.0)


def test_missing_target_marks_its_metrics_unmeasured(monkeypatch):
    monkeypatch.delattr(anchorft.training, "adamw_update")
    tracer = Tracer()
    try:
        layers.install(tracer)
        assert hasattr(anchorft.training.encode_batch, "__wrapped__")
    finally:
        tracer.uninstall()
    assert anchorft.training.encode_batch is anchorft.encoders.encode_batch
    values, unmeasured = layers.compute(layers.PassView([], {}, {}), tracer.missing, tracer.broken)
    for name in ("training.steps", "training.adamw_s", "training.step_us_p50"):
        assert values[name] is None and "adamw_update" in unmeasured[name]
    assert values["encoders.encode_s"] == 0.0 and "encoders.encode_s" not in unmeasured


def test_failing_counter_marks_the_span_broken_and_the_call_still_returns(monkeypatch):
    module = types.ModuleType("fakepkg")
    module.double = lambda x: 2 * x
    monkeypatch.setitem(sys.modules, "fakepkg", module)

    def bad_counter(tracer, args, kwargs, result):
        raise AttributeError("no such field")

    tracer = Tracer()
    assert tracer.wrap_target("fakepkg", "double", "fake.double", bad_counter)
    assert not tracer.wrap_target("fakepkg", "gone", "fake.gone")
    try:
        assert module.double(3) == 6
        assert module.double(4) == 8
    finally:
        tracer.uninstall()
    assert "fake.double" in tracer.broken and "fake.gone" in tracer.missing
    assert [s[0] for s in tracer.spans] == ["fake.double", "fake.double"]
    assert not hasattr(module.double, "__wrapped__")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["pipeline", "finetune_grid", "datagen"])
def test_tiny_run_emits_every_declared_metric_with_its_unit(workload, trace, tmp_path):
    declared = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    lines, result = harness.run(
        workload, 0, 0, bool(trace), tiny=True, out_dir=tmp_path, import_probes=1, setup_repeats=2
    )
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert not hasattr(anchorft.training.adamw_update, "__wrapped__")
    assert (tmp_path / f"{workload}-seed0-trace{trace}.json").is_file()
