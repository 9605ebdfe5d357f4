"""The benchmark's workloads: the operations of one pass and their checks.

Each workload is a closed loop with one client: the harness runs a pass's
operations back to back on one thread. An operation is a ``run`` callable,
which is timed, and a ``check`` of its output, which is not. A check returns
facts about the output (a digest of what it produced, accuracies, and for
training the step count) or raises CheckFailed. Library functions are looked
up on their module at call time, so the trace wrappers see every call.

- ``pipeline``: the README walkthrough through in-process ``anchorft.cli.main``.
  Every layer works; the bundle is written once and read by five stages.
- ``finetune_grid``: bundle, pretrained checkpoint and index are built in
  setup; a pass finetunes and evaluates every point of a fixed grid. The
  training step and retrieval do nearly all the work.
- ``datagen``: generate, write and load bundles. The pure-Python random
  stream and benchgen do nearly all the work, and training none.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import replace
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np

from anchorft import anchors, benchgen, cli, evaluation, fileio, training

__all__ = ["CheckFailed", "Op", "TINY", "WORKLOADS", "make_workload"]

# A small shape for the benchmark's self-tests; the benchmark itself runs the
# shipped defaults.
TINY = {
    "gen": {
        "n_id_classes": 3,
        "n_zsl_classes": 4,
        "n_domains": 2,
        "d_latent": 4,
        "d_img_raw": 6,
        "d_txt_raw": 6,
        "n_pretrain_per_class": 4,
        "n_finetune_per_class": 6,
        "n_test_per_class": 3,
        "candidate_pool_size": 16,
        "context_bank_size": 4,
    },
    "train": {"epochs": 2, "batch_size": 8, "hidden": 8, "embed_dim": 4},
}

# avg_ood of the README table, reproduced by the pipeline at seed 0.
README_AVG_OOD = {"anchored": 45.31, "baseline": 32.53}

# The four loss mixes of the acceptance gate, the other retrieval modes, the
# merged anchor layout and a top-k retrieval.
GRID = (
    ("base", {"enabled_losses": ("cl",)}),
    ("cap", {"enabled_losses": ("cl", "cap")}),
    ("ret", {"enabled_losses": ("cl", "ret")}),
    ("anchored", {}),
    ("v2v", {"retrieval_mode": "v2v"}),
    ("t2t", {"retrieval_mode": "t2t"}),
    ("t2v", {"retrieval_mode": "t2v"}),
    ("merge", {"anchor_layout": "merge"}),
    ("k4", {"retrieval_k": 4}),
)


class CheckFailed(Exception):
    """An operation's output is wrong."""


class Op(NamedTuple):
    name: str
    run: Callable[[], object]
    check: Callable[[object], dict]


# ---------------------------------------------------------------------------
# output checks


def _sha256(*chunks) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk if isinstance(chunk, bytes) else str(chunk).encode())
    return digest.hexdigest()


def file_digest(path: Path) -> str:
    return _sha256(Path(path).read_bytes())


def tree_digest(root: Path) -> str:
    """Digest of every file's relative path and content under ``root``."""
    root = Path(root)
    files = sorted(p for p in root.rglob("*") if p.is_file())
    if not files:
        raise CheckFailed(f"{root.name}: no files written")
    return _sha256(*(f"{p.relative_to(root)}:{file_digest(p)}" for p in files))


def expected_steps(n: int, batch_size: int, epochs: int) -> int:
    """Optimizer steps of a run: a trailing batch of one sample is dropped."""
    batches = math.ceil(n / batch_size) - (1 if n % batch_size == 1 else 0)
    return batches * epochs


def check_log(log: list[dict], steps: int) -> None:
    if [r["step"] for r in log] != list(range(steps)):
        raise CheckFailed(f"log has {len(log)} steps, config gives {steps}")
    for record in log:
        losses = [record[k] for k in ("l_cl", "l_cap", "l_ret", "total")]
        if not all(math.isfinite(x) for x in losses):
            raise CheckFailed(f"non-finite loss at step {record['step']}: {losses}")


def _in_range(accuracy: dict) -> dict:
    bad = {k: v for k, v in accuracy.items() if v is None or not 0.0 <= v <= 100.0}
    if bad:
        raise CheckFailed(f"accuracies outside [0, 100]: {bad}")
    return accuracy


def _accuracies(metrics_doc: dict) -> dict:
    accuracy = {s["split"]: s["accuracy_percent"] for s in metrics_doc["splits"]}
    accuracy["avg_ood"] = metrics_doc["avg_ood"]
    return _in_range(accuracy)


def _pairs_digest(pairs, dtype: str) -> tuple:
    return (
        np.asarray([p.id for p in pairs], "<i8").tobytes(),
        np.asarray([p.image_feature for p in pairs], dtype).tobytes(),
        np.asarray([p.text_feature for p in pairs], dtype).tobytes(),
    )


def _samples_digest(samples, dtype: str) -> tuple:
    tags = [(s.id, s.class_id, s.domain_id) for s in samples]
    return (
        np.asarray(tags, "<i8").tobytes(),
        np.asarray([s.feature for s in samples], dtype).tobytes(),
    )


def bundle_digest(bundle, dtype: str = "<f8") -> str:
    """Digest of a bundle's ids, tags and features, stored as ``dtype``.

    With ``<f4`` a generated bundle and its written-and-loaded copy agree
    exactly, since the feature files store float32.
    """
    ds_splits = [bundle.ds_tests[d] for d in sorted(bundle.ds_tests)]
    chunks = [json.dumps(bundle.gen_config.to_dict(), sort_keys=True)]
    chunks += _pairs_digest(bundle.pretrain_pool, dtype) + _pairs_digest(bundle.candidates, dtype)
    for samples in (bundle.finetune, bundle.id_test, *ds_splits, bundle.zsl_test):
        chunks += _samples_digest(samples, dtype)
    chunks.append(np.asarray([c.sample_id for c in bundle.captions], "<i8").tobytes())
    chunks.append(np.asarray([c.caption_feature for c in bundle.captions], dtype).tobytes())
    for prompts in (bundle.prompts_id, bundle.prompts_zsl):
        chunks.append(np.asarray(prompts.class_ids, "<i8").tobytes())
        chunks.append(np.asarray(prompts.prompt_features, dtype).tobytes())
    return _sha256(*chunks)


def _tree_facts(root: Path) -> dict:
    return {"digest": tree_digest(root)}


def _config_flags(path: Path, overrides: dict) -> list[str]:
    """``--config`` for a non-default shape; the defaults need no flag."""
    if not overrides:
        return []
    path.write_text(json.dumps(overrides))
    return ["--config", str(path)]


def _shape(cfg) -> dict:
    n_classes = cfg.n_id_classes + cfg.n_zsl_classes
    return {
        "pretrain": n_classes * cfg.n_domains * cfg.n_pretrain_per_class,
        "finetune": cfg.n_id_classes * cfg.n_finetune_per_class,
        "candidates": cfg.candidate_pool_size,
        "zsl_test": cfg.n_zsl_classes * cfg.n_test_per_class,
    }


# ---------------------------------------------------------------------------
# workloads


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _check_cli(facts: Callable[[], dict], result: tuple[int, str]) -> dict:
    code, output = result
    if code != 0:
        raise CheckFailed(f"exit code {code}: {output.strip()[-500:]}")
    return facts()


class Pipeline:
    """The README walkthrough, one CLI command per operation."""

    name = "pipeline"

    def __init__(self, seed: int, gen: dict | None = None, train: dict | None = None):
        self.seed = seed
        self.gen, self.train = dict(gen or {}), dict(train or {})
        shape = _shape(benchgen.GenConfig(**self.gen))
        cfg = training.TrainConfig(**self.train)
        self.pretrain_steps = expected_steps(shape["pretrain"], cfg.batch_size, cfg.epochs)
        self.finetune_steps = expected_steps(shape["finetune"], cfg.batch_size, cfg.epochs)
        self.golden = seed == 0 and not self.gen and not self.train

    def prepare(self) -> None:
        """Nothing beyond the imports."""

    def operations(self, work: Path) -> list[Op]:
        def at(name: str) -> str:
            return str(work / name)

        seed = ["--seed", str(self.seed)]
        gen_flags = _config_flags(work / "gen.json", self.gen)
        train_flags = [*seed, *_config_flags(work / "train.json", self.train)]
        bundle = ["--bundle", at("bench")]
        steps = [
            ("benchgen", ["benchgen", "--out", at("bench"), *seed, *gen_flags],
             partial(_tree_facts, work / "bench")),
            ("pretrain", ["pretrain", *bundle, "--out", at("pre.json"), *train_flags],
             partial(self._trained, work / "pre.json", self.pretrain_steps)),
            ("precompute",
             ["precompute", "--checkpoint", at("pre.json"), *bundle, "--out", at("index")],
             partial(_tree_facts, work / "index")),
            ("train_anchored", ["train", *bundle, "--start", at("pre.json"), "--index", at("index"),
                                "--out", at("anchored.json"), *train_flags],
             partial(self._trained, work / "anchored.json", self.finetune_steps)),
            ("train_baseline", ["train", *bundle, "--start", at("pre.json"), "--losses", "cl",
                                "--out", at("baseline.json"), *train_flags],
             partial(self._trained, work / "baseline.json", self.finetune_steps)),
        ]
        for label in ("anchored", "baseline"):
            out = work / f"{label}.metrics.json"
            steps.append((f"eval_{label}",
                          ["eval", "--checkpoint", at(f"{label}.json"), *bundle, "--out", str(out)],
                          partial(self._metrics, out, label)))
        steps += [
            ("report_table", ["report", "--metrics", "baseline=" + at("baseline.metrics.json"),
                              "--metrics", "anchored=" + at("anchored.metrics.json"),
                              "--out", at("table.md")],
             partial(self._report, work / "table.md")),
            ("ensemble", ["ensemble", "--pre", at("pre.json"), "--ft", at("anchored.json"), *bundle,
                          "--out", at("curve.csv")],
             partial(self._curve, work / "curve.csv")),
            ("report_curve", ["report", "--curve", at("curve.csv"), "--out", at("curve.md")],
             partial(self._report, work / "curve.md")),
        ]
        return [Op(name, partial(_run_cli, argv), partial(_check_cli, facts))
                for name, argv, facts in steps]

    @staticmethod
    def _trained(checkpoint: Path, steps: int) -> dict:
        log_path = checkpoint.with_name(checkpoint.stem + ".log.jsonl")
        log = [json.loads(line) for line in log_path.read_text().splitlines()]
        check_log(log, steps)
        return {
            "digest": _sha256(file_digest(checkpoint), file_digest(log_path)),
            "checkpoint_id": json.loads(checkpoint.read_text())["id"],
            "steps": len(log),
        }

    def _metrics(self, path: Path, label: str) -> dict:
        accuracy = _accuracies(json.loads(path.read_text()))
        if self.golden and round(accuracy["avg_ood"], 2) != README_AVG_OOD[label]:
            raise CheckFailed(
                f"{label} avg_ood {accuracy['avg_ood']:.2f} at seed 0, README says "
                f"{README_AVG_OOD[label]}"
            )
        return {"digest": file_digest(path), "accuracy": accuracy}

    @staticmethod
    def _curve(path: Path) -> dict:
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        alphas = [float(r["alpha"]) for r in rows]
        if alphas != [i / 10 for i in range(11)]:
            raise CheckFailed(f"curve alphas {alphas}")
        for row in rows:
            _in_range({k: float(v) for k, v in row.items() if k != "alpha"})
        return {"digest": file_digest(path)}

    @staticmethod
    def _report(path: Path) -> dict:
        if not path.read_text().strip():
            raise CheckFailed(f"{path.name} is empty")
        return {"digest": file_digest(path)}


class FinetuneGrid:
    """run_finetune then evaluate_splits at every grid point, from one setup."""

    name = "finetune_grid"

    def __init__(self, seed: int, gen: dict | None = None, train: dict | None = None):
        self.gen_config = benchgen.GenConfig(**{**(gen or {}), "seed": seed})
        self.train_config = training.TrainConfig(**{**(train or {}), "seed": seed})
        self.steps = expected_steps(
            _shape(self.gen_config)["finetune"],
            self.train_config.batch_size,
            self.train_config.epochs,
        )
        self.bundle = self.start = self.index = None

    def prepare(self) -> str:
        """Benchgen, pretrain and index; returns a digest of what they built."""
        self.bundle = benchgen.generate_benchmark(self.gen_config)
        self.start, _ = training.pretrain(self.bundle.pretrain_pool, self.train_config)
        self.index = anchors.build_candidate_index(self.start.params, self.bundle.candidates)
        return _sha256(
            bundle_digest(self.bundle),
            self.start.id,
            self.index.image_embeddings.tobytes(),
            self.index.text_embeddings.tobytes(),
        )

    def operations(self, work: Path) -> list[Op]:
        return [
            Op(name, partial(self._finetune, replace(self.train_config, **overrides)), self._check)
            for name, overrides in GRID
        ]

    def _finetune(self, config):
        b = self.bundle
        t0 = perf_counter()
        checkpoint, log = training.run_finetune(
            b.finetune, b.prompts_id, b.captions, self.index, b.candidates, self.start, config
        )
        train_s = perf_counter() - t0
        return checkpoint, log, evaluation.evaluate_splits(checkpoint.params, b), train_s

    def _check(self, result) -> dict:
        checkpoint, log, metrics, train_s = result
        check_log(log, self.steps)
        doc = metrics.to_dict()
        return {
            "digest": _sha256(checkpoint.id, json.dumps(doc), json.dumps(log)),
            "checkpoint_id": checkpoint.id,
            "accuracy": _accuracies(doc),
            "steps": len(log),
            "train_s": train_s,
        }


class Datagen:
    """Generate, write and load the bundles of two seeds derived from the workload seed."""

    name = "datagen"

    def __init__(self, seed: int, gen: dict | None = None, train: dict | None = None):
        self.configs = [
            benchgen.GenConfig(**{**(gen or {}), "seed": s}) for s in (2 * seed, 2 * seed + 1)
        ]

    def prepare(self) -> None:
        """Nothing beyond the imports."""

    def operations(self, work: Path) -> list[Op]:
        ops = []
        for i, config in enumerate(self.configs):
            made: dict = {}
            directory = work / f"bundle{i}"
            ops += [
                Op(f"generate{i}", partial(self._generate, config, made),
                   partial(self._check_generated, config)),
                Op(f"write{i}", partial(self._write, directory, made),
                   lambda _, d=directory: _tree_facts(d)),
                Op(f"load{i}", lambda d=directory: fileio.load_bundle(d),
                   partial(self._check_loaded, made)),
            ]
        return ops

    @staticmethod
    def _generate(config, made: dict):
        made["bundle"] = benchgen.generate_benchmark(config)
        return made["bundle"]

    @staticmethod
    def _write(directory: Path, made: dict) -> None:
        fileio.write_bundle(directory, made["bundle"])

    @staticmethod
    def _check_generated(config, bundle) -> dict:
        shape = _shape(config)
        got = {
            "pretrain": len(bundle.pretrain_pool),
            "finetune": len(bundle.finetune),
            "candidates": len(bundle.candidates),
            "zsl_test": len(bundle.zsl_test),
        }
        if got != shape or len(bundle.captions) != shape["finetune"]:
            raise CheckFailed(f"bundle shape {got}, config gives {shape}")
        return {"digest": bundle_digest(bundle)}

    @staticmethod
    def _check_loaded(made: dict, loaded) -> dict:
        digest = bundle_digest(loaded, "<f4")
        if digest != bundle_digest(made["bundle"], "<f4"):
            raise CheckFailed("loaded bundle differs from the generated one")
        return {"digest": digest}


WORKLOADS = {w.name: w for w in (Pipeline, FinetuneGrid, Datagen)}


def make_workload(name: str, seed: int, tiny: bool = False):
    shape = TINY if tiny else {}
    return WORKLOADS[name](seed, shape.get("gen"), shape.get("train"))
