"""Dual-encoder contrastive finetuning with caption and retrieval anchors.

The package covers the full loop at desk scale: generate a synthetic
multi-domain benchmark, pretrain a two-tower encoder, finetune with anchor
regularizers, evaluate in-distribution / domain-shift / held-out-class
accuracy, and ensemble checkpoints by weight interpolation. `anchorft --help`
exposes the same pipeline as a CLI.

The root holds the names of that loop. Everything else is imported from its
module: datasets and retrieval from `anchorft.anchors`, the generator from
`anchorft.benchgen`, parameters from `anchorft.encoders`, the loss from
`anchorft.contrastive`, checkpoints and training from `anchorft.training`,
metrics from `anchorft.evaluation` and the file formats from `anchorft.fileio`.
"""

from .anchors import build_candidate_index
from .benchgen import GenConfig, generate_benchmark
from .evaluation import ensemble_sweep, evaluate_splits
from .training import TrainConfig, pretrain, run_finetune

__version__ = "0.1.0"

__all__ = [
    "GenConfig",
    "TrainConfig",
    "build_candidate_index",
    "ensemble_sweep",
    "evaluate_splits",
    "generate_benchmark",
    "pretrain",
    "run_finetune",
]
