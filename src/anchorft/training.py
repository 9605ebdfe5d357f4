"""Training loops: contrastive pretraining and anchored finetuning.

The finetuning objective is a weighted sum of three pair-loss terms: the
class-prompt term, the caption-anchor term, and the retrieved-anchor term.
Retrieval assignments are computed once from the starting checkpoint and
stay fixed for the whole run. Optimization is decoupled-weight-decay Adam;
the temperature is only updated when tau_trainable is set.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .anchors import (
    ANCHOR_LAYOUTS,
    RETRIEVAL_MODES,
    AnchorBatch,
    CandidateIndex,
    CaptionRecord,
    MissingAssignmentError,
    MissingCaptionError,
    PairSet,
    SampleSet,
    assemble_anchor_batch,
    lookup_rows,
    retrieve,
)
from .contrastive import PairBatch, contrastive_loss_and_grads
from .encoders import (
    DualEncoderParams,
    encode_batch,
    encoder_backward_batch,
    init_params,
    param_fingerprint,
)
from .evaluation import PromptTable
from .numerics import NonFiniteError, RandomStream, derive_seed

__all__ = [
    "CheckReport",
    "Checkpoint",
    "DivergenceError",
    "EmptyFinetuneSetError",
    "LOSS_TERMS",
    "LossBreakdown",
    "OptimizerState",
    "TrainConfig",
    "adamw_update",
    "check_gradients",
    "checkpoint_id",
    "compute_total_loss_and_grads",
    "config_fingerprint",
    "finetune_batcher",
    "init_optimizer_state",
    "make_checkpoint",
    "pretrain",
    "run_finetune",
]

LOSS_TERMS = ("cl", "cap", "ret")

_TAG_PRETRAIN_EPOCH = 31
_TAG_FINETUNE_EPOCH = 32

# Adam moment decays and the denominator floor; bias correction is applied.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class EmptyFinetuneSetError(ValueError):
    """Finetuning was started with no samples."""


class DivergenceError(ValueError):
    """A training step produced a non-finite loss, gradient or embedding."""


@dataclass
class TrainConfig:
    """Optimizer, loss mix, and architecture settings for one run (desk-scale defaults)."""

    batch_size: int = 32
    epochs: int = 10
    learning_rate: float = 1e-3
    weight_decay: float = 0.1
    lambda_cl: float = 1.0
    lambda_cap: float = 1.0
    lambda_ret: float = 1.0
    enabled_losses: tuple[str, ...] = LOSS_TERMS
    anchor_layout: str = "sep"
    retrieval_mode: str = "v2t"
    retrieval_k: int = 1
    tau_trainable: bool = False
    hidden: int = 64
    embed_dim: int = 16
    seed: int = 0

    def __post_init__(self):
        self.enabled_losses = tuple(self.enabled_losses)

    def validate(self) -> None:
        if self.batch_size < 2:
            raise ValueError("batch_size must be at least 2")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        if min(self.lambda_cl, self.lambda_cap, self.lambda_ret) < 0:
            raise ValueError("loss weights must be non-negative")
        unknown = [t for t in self.enabled_losses if t not in LOSS_TERMS]
        if unknown or len(set(self.enabled_losses)) != len(self.enabled_losses):
            raise ValueError(f"enabled_losses must be distinct terms from {LOSS_TERMS}")
        if self.anchor_layout not in ANCHOR_LAYOUTS:
            raise ValueError(f"anchor_layout must be one of {ANCHOR_LAYOUTS}")
        if self.anchor_layout == "merge" and "ret" in self.enabled_losses and (
            "cap" not in self.enabled_losses
        ):
            raise ValueError("merge layout folds retrieved pairs into the caption term")
        if self.retrieval_mode not in RETRIEVAL_MODES:
            raise ValueError(f"retrieval_mode must be one of {RETRIEVAL_MODES}")
        if self.retrieval_k < 1:
            raise ValueError("retrieval_k must be at least 1")
        if self.hidden < 1 or self.embed_dim < 2:
            raise ValueError("hidden must be positive and embed_dim at least 2")

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out


def config_fingerprint(config: TrainConfig) -> str:
    """Hash of the canonical config JSON; ties checkpoints to their recipe."""
    payload = json.dumps(config.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


@dataclass
class Checkpoint:
    """Trained parameters plus provenance and a verifiable content id."""

    params: DualEncoderParams
    config_fingerprint: str
    provenance: str  # "pretrained" or "finetuned"
    id: str


def checkpoint_id(params: DualEncoderParams, config_fp: str, provenance: str) -> str:
    """Content hash over the parameter bytes, config fingerprint, and provenance."""
    digest = hashlib.sha256()
    digest.update(param_fingerprint(params).encode())
    digest.update(config_fp.encode())
    digest.update(provenance.encode())
    return digest.hexdigest()


def make_checkpoint(
    params: DualEncoderParams, config: TrainConfig, provenance: str
) -> Checkpoint:
    fp = config_fingerprint(config)
    return Checkpoint(
        params=params,
        config_fingerprint=fp,
        provenance=provenance,
        id=checkpoint_id(params, fp, provenance),
    )


@dataclass
class LossBreakdown:
    """Per-term unweighted losses; total applies the lambda weights.

    The field order is the key order of the step log's records.
    """

    l_cl: float
    l_cap: float
    l_ret: float
    total: float
    skip_ret: bool


@dataclass
class OptimizerState:
    """Adam first/second moments (vectors shaped like theta) and step count."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0


def init_optimizer_state(params: DualEncoderParams) -> OptimizerState:
    return OptimizerState(m=np.zeros_like(params.theta), v=np.zeros_like(params.theta), step=0)


def _pair_term(
    params: DualEncoderParams,
    images: np.ndarray,
    texts: np.ndarray,
    grads: np.ndarray,
    weight: float,
    tau_trainable: bool,
) -> float:
    """One contrastive term over row-aligned raw image and text matrices.

    Adds weight times the term's gradient into the theta-shaped vector grads
    and returns the unweighted loss. Gradient work is skipped entirely when
    the weight is zero so that zero-weight runs match disabled-term runs bit
    for bit.
    """
    f, cache_f = encode_batch(params, "image", images)
    g, cache_g = encode_batch(params, "text", texts)
    loss, df, dg, dlog_tau = contrastive_loss_and_grads(PairBatch(f, g), params.tau)
    if weight != 0.0:
        grads[params.span("image")] += weight * encoder_backward_batch(
            params, "image", cache_f, df
        )
        grads[params.span("text")] += weight * encoder_backward_batch(
            params, "text", cache_g, dg
        )
        if tau_trainable:
            grads[-1] += weight * dlog_tau
    return loss.total


def compute_total_loss_and_grads(
    params: DualEncoderParams,
    batch: SampleSet,
    prompts: np.ndarray,
    anchor_batch: AnchorBatch,
    config: TrainConfig,
) -> tuple[LossBreakdown, np.ndarray]:
    """Weighted sum of the enabled pair-loss terms, with its gradient over theta.

    prompts holds the class-prompt feature of each batch row. Accumulation
    order is fixed (cl, then cap, then ret) so runs are bit-reproducible.
    Disabled terms and a skipped retrieval term are exactly 0. Class prompts
    go through the text tower, so the prompt embeddings receive text-tower
    gradients like any caption would.
    """
    grads = np.zeros_like(params.theta)
    enabled = set(config.enabled_losses)
    l_cl = l_cap = l_ret = 0.0

    if "cl" in enabled and len(batch):
        l_cl = _pair_term(
            params, batch.features, prompts, grads, config.lambda_cl, config.tau_trainable
        )

    captions = anchor_batch.caption_pairs
    if "cap" in enabled and len(captions):
        if anchor_batch.layout == "sep" and len(captions) != len(batch):
            raise ValueError("caption pairs must cover the batch exactly in the sep layout")
        l_cap = _pair_term(
            params, captions.images, captions.texts, grads, config.lambda_cap,
            config.tau_trainable,
        )

    retrieved = anchor_batch.retrieved_pairs
    if (
        "ret" in enabled
        and anchor_batch.layout == "sep"
        and not anchor_batch.skip_ret
        and len(retrieved)
    ):
        l_ret = _pair_term(
            params, retrieved.images, retrieved.texts, grads, config.lambda_ret,
            config.tau_trainable,
        )

    total = config.lambda_cl * l_cl + config.lambda_cap * l_cap + config.lambda_ret * l_ret
    breakdown = LossBreakdown(
        l_cl=l_cl, l_cap=l_cap, l_ret=l_ret, total=total, skip_ret=anchor_batch.skip_ret
    )
    return breakdown, grads


@dataclass
class CheckReport:
    """Outcome of a finite-difference gradient check."""

    max_rel_err: float
    n_checked: int
    eps: float
    passed: bool


def check_gradients(
    params: DualEncoderParams,
    batch: SampleSet,
    prompts: np.ndarray,
    anchor_batch: AnchorBatch,
    config: TrainConfig,
    *,
    eps: float = 1e-5,
    skip_below: float = 1e-8,
    tol: float = 1e-4,
) -> CheckReport:
    """Check compute_total_loss_and_grads' gradient against central differences.

    Every element of theta whose analytic gradient exceeds skip_below in
    magnitude, log_tau included, is moved by +-eps in place and restored.
    The check passes iff the worst relative error is at most tol.
    """

    def total_loss() -> float:
        breakdown, _ = compute_total_loss_and_grads(params, batch, prompts, anchor_batch, config)
        return breakdown.total

    _, analytic = compute_total_loss_and_grads(params, batch, prompts, anchor_batch, config)
    theta = params.theta
    checked = np.flatnonzero(np.abs(analytic) > skip_below)
    worst = 0.0
    for i in checked:
        orig = theta[i]
        theta[i] = orig + eps
        hi = total_loss()
        theta[i] = orig - eps
        lo = total_loss()
        theta[i] = orig
        numeric = (hi - lo) / (2 * eps)
        a = analytic[i]
        worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric)))
    return CheckReport(
        max_rel_err=float(worst), n_checked=int(checked.size), eps=eps, passed=bool(worst <= tol)
    )


def adamw_update(
    params: DualEncoderParams,
    grads: np.ndarray,
    state: OptimizerState,
    lr: float,
    wd: float,
    *,
    tau_trainable: bool = False,
) -> tuple[DualEncoderParams, OptimizerState]:
    """One decoupled-weight-decay Adam step with bias correction.

    theta <- theta - lr * (m_hat / (sqrt(v_hat) + eps) + wd * theta).
    log_tau is left untouched (moments included) unless tau_trainable.
    """
    t = state.step + 1
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grads
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grads * grads
    step_dir = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    theta = params.theta - lr * (step_dir + wd * params.theta)
    if not tau_trainable:
        theta[-1], m[-1], v[-1] = params.theta[-1], state.m[-1], state.v[-1]
    return DualEncoderParams(theta, params.dims), OptimizerState(m=m, v=v, step=t)


def _epoch_batches(
    n: int, batch_size: int, seed: int, epoch: int, tag: int
) -> list[np.ndarray]:
    """Seeded shuffle split into index arrays; a trailing batch of 1 is dropped."""
    perm = np.array(RandomStream(derive_seed(seed, tag, epoch)).permutation(n), dtype=np.int64)
    batches = [perm[i : i + batch_size] for i in range(0, n, batch_size)]
    return [b for b in batches if len(b) >= 2]


def _optimize(
    params: DualEncoderParams,
    config: TrainConfig,
    n_items: int,
    tag: int,
    step_loss: Callable[[DualEncoderParams, np.ndarray], tuple[LossBreakdown, np.ndarray]],
) -> tuple[DualEncoderParams, list[dict]]:
    """The epoch loop shared by pretraining and finetuning.

    step_loss maps the current parameters and an index array of items to
    the step's losses and gradient. The log gets one record per step:
    {step, epoch, l_cl, l_cap, l_ret, total, skip_ret}. The first step with
    a non-finite loss, gradient or embedding, or whose update moves a
    trainable temperature out of its range, raises DivergenceError.
    """
    state = init_optimizer_state(params)
    log: list[dict] = []
    for epoch in range(config.epochs):
        for batch_idx in _epoch_batches(n_items, config.batch_size, config.seed, epoch, tag):
            where = f"training diverged at step {len(log)} (epoch {epoch})"
            try:
                breakdown, grads = step_loss(params, batch_idx)
            except NonFiniteError as exc:
                raise DivergenceError(f"{where}: {exc}") from exc
            if not (math.isfinite(breakdown.total) and np.isfinite(grads).all()):
                raise DivergenceError(f"{where}: non-finite loss or gradient")
            try:
                params, state = adamw_update(
                    params,
                    grads,
                    state,
                    config.learning_rate,
                    config.weight_decay,
                    tau_trainable=config.tau_trainable,
                )
            except ValueError as exc:  # the updated tau left its range
                raise DivergenceError(f"{where}: {exc}") from exc
            log.append({"step": len(log), "epoch": epoch, **asdict(breakdown)})
    return params, log


def pretrain(pool: PairSet, config: TrainConfig) -> tuple[Checkpoint, list[dict]]:
    """Contrastive pretraining over an (image, text) pair pool.

    Freshly initialized towers are trained with the pair loss alone. Returns
    the checkpoint and a per-step log (same record shape as finetuning, with
    the anchor terms zero).
    """
    config.validate()
    if len(pool) < config.batch_size:
        raise ValueError(
            f"pool of {len(pool)} pairs is smaller than one batch of {config.batch_size}"
        )
    input_dims = (pool.images.shape[1], pool.texts.shape[1])
    params = init_params(config.seed, input_dims, config.hidden, config.embed_dim)

    def pair_step(params: DualEncoderParams, batch_idx: np.ndarray):
        grads = np.zeros_like(params.theta)
        loss = _pair_term(
            params, pool.images[batch_idx], pool.texts[batch_idx], grads, 1.0,
            config.tau_trainable,
        )
        return LossBreakdown(l_cl=loss, l_cap=0.0, l_ret=0.0, total=loss, skip_ret=True), grads

    params, log = _optimize(params, config, len(pool), _TAG_PRETRAIN_EPOCH, pair_step)
    return make_checkpoint(params, config, "pretrained"), log


def finetune_batcher(
    finetune_set: SampleSet,
    prompt_table: PromptTable,
    captions: Sequence[CaptionRecord],
    candidate_index: CandidateIndex | None,
    candidates: PairSet | None,
    params: DualEncoderParams,
    config: TrainConfig,
) -> Callable[[np.ndarray], tuple[SampleSet, np.ndarray, AnchorBatch]]:
    """Build what every finetuning step reads, once, and return its batch cutter.

    That is each finetune sample's class-prompt and caption rows and, with
    the ret term, its retrieved candidates as row positions in `candidates`.
    A sample without a caption raises MissingCaptionError here. The cutter
    maps an index array of finetune rows to (batch, prompts, anchor_batch).
    """
    prompts = prompt_table.prompt_features[
        lookup_rows(prompt_table.class_ids, finetune_set.class_ids)
    ]
    try:
        caption_rows = lookup_rows([r.sample_id for r in captions], finetune_set.ids)
    except KeyError as exc:
        raise MissingCaptionError(f"no caption for sample {exc.args[0]}") from None
    caption_features = np.array([captions[i].caption_feature for i in caption_rows.tolist()])

    assignments = None
    if "ret" in config.enabled_losses:
        if candidate_index is None or candidates is None or not len(candidates):
            raise ValueError("retrieval anchors need a candidate index and the pool")
        queries = finetune_set.features if config.retrieval_mode[0] == "v" else prompts
        candidate_ids, _ = retrieve(
            candidate_index, queries, params, config.retrieval_mode, config.retrieval_k
        )
        try:
            ranked = lookup_rows(candidates.ids, candidate_ids)
        except KeyError as exc:
            raise MissingAssignmentError(f"candidate {exc.args[0]} is not in the pool") from None
        assignments = dict(zip(finetune_set.ids.tolist(), ranked))

    def batch_inputs(batch_idx: np.ndarray) -> tuple[SampleSet, np.ndarray, AnchorBatch]:
        batch = finetune_set[batch_idx]
        anchor_batch = assemble_anchor_batch(
            batch, caption_features[batch_idx], assignments, candidates, config.anchor_layout
        )
        return batch, prompts[batch_idx], anchor_batch

    return batch_inputs


def run_finetune(
    finetune_set: SampleSet,
    prompt_table: PromptTable,
    captions: Sequence[CaptionRecord],
    candidate_index: CandidateIndex | None,
    candidates: PairSet | None,
    start: Checkpoint,
    config: TrainConfig,
) -> tuple[Checkpoint, list[dict]]:
    """Anchored finetuning from a pretrained checkpoint.

    Retrieval assignments are computed once, with the starting parameters,
    then reused for every epoch. The log has the same records as pretraining.
    """
    config.validate()
    if not len(finetune_set):
        raise EmptyFinetuneSetError("finetune set is empty")
    if start.provenance != "pretrained":
        raise ValueError(f"finetuning must start from a pretrained checkpoint, got "
                         f"{start.provenance!r}")
    batch_inputs = finetune_batcher(
        finetune_set, prompt_table, captions, candidate_index, candidates, start.params, config
    )

    def anchored_step(params: DualEncoderParams, batch_idx: np.ndarray):
        return compute_total_loss_and_grads(params, *batch_inputs(batch_idx), config)

    params, log = _optimize(
        start.params.copy(), config, len(finetune_set), _TAG_FINETUNE_EPOCH, anchored_step
    )
    return make_checkpoint(params, config, "finetuned"), log
