"""Zero-shot prompt classification, split metrics, and weight ensembling."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .anchors import _top_k
from .encoders import DualEncoderParams, encode_batch
from .numerics import as_float_array

if TYPE_CHECKING:
    from .anchors import PromptTable, SampleSet
    from .benchgen import BenchmarkBundle
    from .fileio import BundleReader
    from .training import Checkpoint

__all__ = [
    "EmptySplitError",
    "EnsembleCurve",
    "Metrics",
    "SplitResult",
    "best_alpha",
    "build_prompt_classifier",
    "classify",
    "ensemble_sweep",
    "ensemble_weights",
    "evaluate_splits",
]

EVAL_SPLITS = ("id", "ds", "zsl")


class EmptySplitError(ValueError):
    """A requested evaluation split has no samples."""


@dataclass
class SplitResult:
    split_name: str
    n: int
    correct: int
    accuracy_percent: float


@dataclass
class Metrics:
    """Per-split accuracies plus the unweighted mean over non-ID splits."""

    splits: list[SplitResult]
    avg_ood: float | None

    def accuracy(self, split_name: str) -> float:
        for result in self.splits:
            if result.split_name == split_name:
                return result.accuracy_percent
        raise KeyError(split_name)

    @property
    def split_names(self) -> list[str]:
        return [r.split_name for r in self.splits]

    def to_dict(self) -> dict:
        return {
            "splits": [
                {
                    "split": r.split_name,
                    "n": r.n,
                    "correct": r.correct,
                    "accuracy_percent": r.accuracy_percent,
                }
                for r in self.splits
            ],
            "avg_ood": self.avg_ood,
        }


def build_prompt_classifier(params: DualEncoderParams, prompts: "PromptTable") -> np.ndarray:
    """Encode each class prompt; row order follows prompts.class_ids."""
    classifier, _ = encode_batch(params, "text", prompts.prompt_features)
    return classifier


def classify(
    params: DualEncoderParams,
    images: np.ndarray,
    classifier: np.ndarray,
    class_ids: Sequence[int],
) -> np.ndarray:
    """Predict a class id per row of a raw image feature matrix.

    Each row gets the class of maximum embedding similarity; ties go to the
    lowest class id, as in retrieval (anchors._top_k with k=1).
    """
    classifier = as_float_array(classifier, name="classifier")
    ids = np.asarray(class_ids, dtype=np.int64)
    if classifier.ndim != 2 or classifier.shape[0] != ids.size:
        raise ValueError("classifier must have one row per class id")
    if len(set(ids.tolist())) != ids.size:
        raise ValueError("class ids must be unique")
    embeddings, _ = encode_batch(params, "image", images)
    return _top_k(embeddings, classifier, ids, 1)[0][:, 0]


def _accuracy(
    params, samples: "SampleSet", classifier: np.ndarray, class_ids, split_name: str
) -> SplitResult:
    predictions = classify(params, samples.features, classifier, class_ids)
    correct = int(np.sum(predictions == samples.class_ids))
    return SplitResult(
        split_name=split_name,
        n=len(samples),
        correct=correct,
        accuracy_percent=100.0 * correct / len(samples),
    )


def _classifier(params, prompts: "PromptTable") -> tuple[np.ndarray, np.ndarray]:
    return build_prompt_classifier(params, prompts), prompts.class_ids


def _bundle_splits(bundle: "BenchmarkBundle | BundleReader") -> list[str]:
    """Every split the bundle has: ds only when it has a shifted domain."""
    return [s for s in EVAL_SPLITS if s != "ds" or bundle.gen_config.n_domains > 1]


def evaluate_splits(
    params: DualEncoderParams,
    bundle: "BenchmarkBundle | BundleReader",
    splits: Iterable[str] | None = None,
    *,
    zsl_strict: bool = False,
) -> Metrics:
    """Accuracy on the requested splits of a benchmark bundle, by default all it has.

    `id` and the per-domain `ds` splits classify over the seen-class prompts;
    `zsl` classifies over the held-out-class prompts only, unless zsl_strict
    widens the label space to the union of both prompt tables. `bundle` is
    a BenchmarkBundle or a fileio.BundleReader: only the test splits and
    prompt tables of the requested splits are touched, so a reader reads
    no other file.
    """
    requested = _bundle_splits(bundle) if splits is None else list(splits)
    if not requested:
        raise ValueError("need at least one split")
    unknown = [s for s in requested if s not in EVAL_SPLITS]
    if unknown:
        raise ValueError(f"unknown splits {unknown}; choose from {EVAL_SPLITS}")

    # id and every ds split share one seen-class classifier, encoded on first use
    seen = cache(lambda: _classifier(params, bundle.prompts_id))
    results: list[SplitResult] = []
    for split in EVAL_SPLITS:  # fixed output order regardless of request order
        if split not in requested:
            continue
        if split == "id":
            if not bundle.id_test:
                raise EmptySplitError("id split is empty")
            results.append(_accuracy(params, bundle.id_test, *seen(), "id"))
        elif split == "ds":
            if not bundle.ds_tests:
                raise EmptySplitError("no domain-shift splits in this bundle")
            for domain in sorted(bundle.ds_tests):
                samples = bundle.ds_tests[domain]
                if not samples:
                    raise EmptySplitError(f"ds split for domain {domain} is empty")
                results.append(_accuracy(params, samples, *seen(), f"ds{domain}"))
        else:
            if not bundle.zsl_test:
                raise EmptySplitError("zsl split is empty")
            prompts = bundle.prompts_zsl
            if zsl_strict:
                prompts = bundle.prompts_id.concat(bundle.prompts_zsl)
            zsl = _classifier(params, prompts)
            results.append(_accuracy(params, bundle.zsl_test, *zsl, "zsl"))

    ood = [r.accuracy_percent for r in results if r.split_name != "id"]
    return Metrics(splits=results, avg_ood=float(np.mean(ood)) if ood else None)


def ensemble_weights(
    pre: "Checkpoint", ft: "Checkpoint", alpha: float
) -> DualEncoderParams:
    """Elementwise (1 - alpha) * pretrained + alpha * finetuned, log_tau included.

    The endpoints return exact copies so alpha = 0 and alpha = 1 reproduce
    the inputs bit for bit.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    p, q = pre.params, ft.params
    if p.dims != q.dims:
        raise ValueError("checkpoints have incongruent parameter shapes")
    if alpha == 0.0:
        return p.copy()
    if alpha == 1.0:
        return q.copy()
    return DualEncoderParams((1.0 - alpha) * p.theta + alpha * q.theta, p.dims)


def best_alpha(alphas: Sequence[float], id_accuracies: Sequence[float]) -> float:
    """The mixing weight with the highest ID accuracy; ties go to the smaller alpha."""
    return max(zip(id_accuracies, alphas), key=lambda row: (row[0], -row[1]))[1]


@dataclass
class EnsembleCurve:
    """Metrics along the interpolation path plus the ID-selected mixing weight."""

    rows: list[tuple[float, Metrics]]
    best_id_alpha: float


def ensemble_sweep(
    pre: "Checkpoint",
    ft: "Checkpoint",
    alphas: Sequence[float],
    bundle: "BenchmarkBundle | BundleReader",
    splits: Iterable[str] | None = None,
) -> EnsembleCurve:
    """Evaluate every interpolated model; pick the best alpha with best_alpha.

    `bundle` is taken as by evaluate_splits. Alphas must be strictly
    increasing within [0, 1].
    """
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise ValueError("need at least one alpha")
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("alphas must be strictly increasing")
    requested = _bundle_splits(bundle) if splits is None else list(splits)
    if "id" not in requested:
        raise ValueError("the sweep selects by ID accuracy; include the id split")

    rows = []
    for alpha in alphas:
        params = ensemble_weights(pre, ft, alpha)
        rows.append((alpha, evaluate_splits(params, bundle, requested)))

    best_id_alpha = best_alpha(alphas, [metrics.accuracy("id") for _, metrics in rows])
    return EnsembleCurve(rows=rows, best_id_alpha=best_id_alpha)
