"""Training loops: contrastive pretraining and anchored finetuning.

The finetuning objective is a weighted sum of three pair-loss terms: the
class-prompt term, the caption-anchor term, and the retrieved-anchor term.
Retrieval assignments are computed once from the starting checkpoint and
stay fixed for the whole run. Optimization is decoupled-weight-decay Adam;
the temperature is only updated when tau_trainable is set.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .anchors import (
    ANCHOR_LAYOUTS,
    RETRIEVAL_MODES,
    AnchorBatch,
    CandidateIndex,
    CaptionSet,
    MissingAssignmentError,
    MissingCaptionError,
    PairSet,
    PromptTable,
    SampleSet,
    assemble_anchor_batch,
    lookup_rows,
    retrieve,
)
from .contrastive import PairBatch, contrastive_loss_and_grads
from .encoders import (
    MODALITIES,
    DualEncoderParams,
    encode_batch,
    encoder_backward_batch,
    init_params,
    param_fingerprint,
)
from .numerics import NonFiniteError, RandomStream, check_finite_fields, derive_seed

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
        check_finite_fields(self)
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
        if not self.enabled_losses:
            raise ValueError("enabled_losses must name at least one term")
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
    """Adam first/second moments (vectors shaped like theta) and step count.

    work is the update's scratch space, two rows shaped like theta, made
    once so that no update allocates a theta-sized array.
    """

    m: np.ndarray
    v: np.ndarray
    step: int
    work: np.ndarray = field(repr=False)


def init_optimizer_state(params: DualEncoderParams) -> OptimizerState:
    zeros = np.zeros_like(params.theta)
    return OptimizerState(zeros, zeros.copy(), 0, np.empty((2, *zeros.shape)))


def _pair_term(
    params: DualEncoderParams, images: np.ndarray, texts: np.ndarray, weights, tau_trainable: bool
) -> tuple[list[float], list[np.ndarray]]:
    """Contrastive terms over one raw image matrix, run as one stacked kernel.

    texts is the term's text matrix, row-aligned with images, and weights
    its weight; or texts is a (T, n, text_in) stack of T terms' text
    matrices and weights holds T weights. Returns the unweighted losses and
    the weighted gradient over theta of each term whose weight is not zero,
    in stack order. So zero-weight runs match disabled-term runs bit for
    bit, and with every weight zero no gradient work runs. The embeddings
    go to the loss without a second unit-row scan: encode_batch has checked
    their norms. The loss writes its embedding gradients straight into the
    array the backward reads, and d(loss)/d(log tau) is only computed when
    tau is trained.
    """
    single = np.ndim(texts) == 2
    weights = (weights,) if single else weights
    e, cache = encode_batch(params, MODALITIES, (images, texts))
    de = np.empty_like(e)
    loss, df, dg, dlog_tau = contrastive_loss_and_grads(
        PairBatch._from_encoded(e[..., 0, :, :], e[..., 1, :, :]),
        params.tau,
        log_tau_grad=tau_trainable,
        out=de,
    )
    losses = [loss.total] if single else loss.total.tolist()
    if not any(weights):
        return losses, []
    for side, grad in enumerate((df, dg)):
        if grad.base is not de:  # returned in an array of its own, not written into de
            de[..., side, :, :] = grad
    rows = encoder_backward_batch(params, cache, de).reshape(len(weights), -1)
    if tau_trainable:
        rows[:, -1] = dlog_tau
    grads = []
    for weight, row in zip(weights, rows):
        if weight != 0.0:
            if weight != 1.0:  # x * 1.0 is x
                row *= weight
            grads.append(row)
    return losses, grads


def compute_total_loss_and_grads(
    params: DualEncoderParams,
    batch: SampleSet,
    prompts: np.ndarray,
    anchor_batch: AnchorBatch,
    config: TrainConfig,
) -> tuple[LossBreakdown, np.ndarray]:
    """Weighted sum of the enabled pair-loss terms, with its gradient over theta.

    prompts holds the class-prompt feature of each batch row. Accumulation
    order is fixed (cl, then cap, then ret) so runs are bit-reproducible:
    the gradient is the first engaged term's row, with the others added
    into it. Adding that row into zeros would only turn its -0.0 entries
    into +0.0, which adamw_update cannot tell apart. Disabled terms and a
    skipped retrieval term are exactly 0. Class prompts go through the text
    tower, so the prompt embeddings receive text-tower gradients like any
    caption would. When the caption pairs' image matrix is batch.features
    itself, cl and cap run as one two-term stack.
    """
    rows: list[np.ndarray] = []
    enabled = set(config.enabled_losses)
    l_cl = l_cap = l_ret = 0.0
    captions = anchor_batch.caption_pairs
    use_cl = "cl" in enabled and len(batch)
    use_cap = "cap" in enabled and len(captions)
    if use_cap and anchor_batch.layout == "sep" and len(captions) != len(batch):
        raise ValueError("caption pairs must cover the batch exactly in the sep layout")

    if use_cl and use_cap and captions.images is batch.features:
        (l_cl, l_cap), rows = _pair_term(
            params, batch.features, np.array((prompts, captions.texts)),
            (config.lambda_cl, config.lambda_cap), config.tau_trainable,
        )
    else:
        if use_cl:
            (l_cl,), rows = _pair_term(
                params, batch.features, prompts, config.lambda_cl, config.tau_trainable
            )
        if use_cap:
            (l_cap,), cap_rows = _pair_term(
                params, captions.images, captions.texts, config.lambda_cap, config.tau_trainable
            )
            rows += cap_rows

    retrieved = anchor_batch.retrieved_pairs
    if (
        "ret" in enabled
        and anchor_batch.layout == "sep"
        and not anchor_batch.skip_ret
        and len(retrieved)
    ):
        (l_ret,), ret_rows = _pair_term(
            params, retrieved.images, retrieved.texts, config.lambda_ret, config.tau_trainable
        )
        rows += ret_rows

    total = config.lambda_cl * l_cl + config.lambda_cap * l_cap + config.lambda_ret * l_ret
    breakdown = LossBreakdown(
        l_cl=l_cl, l_cap=l_cap, l_ret=l_ret, total=total, skip_ret=anchor_batch.skip_ret
    )
    if not rows:
        return breakdown, np.zeros_like(params.theta)
    for row in rows[1:]:
        rows[0] += row
    return breakdown, rows[0]


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
    The check passes iff the worst relative error is at most tol. eps
    must be a positive finite number.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be a positive finite number, got {eps}")

    problem = (params, batch, prompts, anchor_batch, config)

    def total_loss() -> float:
        try:
            return compute_total_loss_and_grads(*problem)[0].total
        except NonFiniteError as exc:
            raise ValueError(f"a step of eps={eps} left the model non-finite: {exc}") from exc

    _, analytic = compute_total_loss_and_grads(*problem)
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
    """One decoupled-weight-decay Adam step with bias correction, in place.

    theta <- theta - lr * (m_hat / (sqrt(v_hat) + eps) + wd * theta), with
    the out-of-place formula's elementwise order, so its bits. theta, m and
    v are overwritten, every intermediate goes to state.work, and the same
    params and state are returned. log_tau is
    left untouched (moments included) unless tau_trainable; a trained tau
    that leaves its range raises ValueError.
    """
    t = state.step + 1
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    theta, m, v = params.theta, state.m, state.v
    step, tmp = state.work
    frozen = (theta[-1], m[-1], v[-1])
    m *= ADAM_BETA1
    m += np.multiply(1.0 - ADAM_BETA1, grads, out=tmp)
    v *= ADAM_BETA2
    np.multiply(1.0 - ADAM_BETA2, grads, out=tmp)
    v += np.multiply(tmp, grads, out=tmp)
    np.divide(v, bc2, out=tmp)
    np.add(np.sqrt(tmp, out=tmp), ADAM_EPS, out=tmp)
    if bc1 == 1.0:  # from step 356 at beta1 0.9; m / 1.0 is m bit for bit, -0.0 included
        np.divide(m, tmp, out=step)
    else:
        np.divide(m, bc1, out=step)
        step /= tmp
    step += np.multiply(wd, theta, out=tmp)
    step *= lr
    theta -= step
    state.step = t
    if tau_trainable:
        params.check_tau()
    else:
        theta[-1], m[-1], v[-1] = frozen
    return params, state


def _epoch_batches(
    n: int, batch_size: int, seed: int, epoch: int, tag: int
) -> tuple[np.ndarray, ...]:
    """Seeded shuffle split into read-only index arrays; a trailing batch of 1 is dropped."""
    perm = np.array(RandomStream(derive_seed(seed, tag, epoch)).permutation(n), dtype=np.int64)
    perm.flags.writeable = False  # its slices are read-only too
    batches = (perm[i : i + batch_size] for i in range(0, n, batch_size))
    return tuple(b for b in batches if len(b) >= 2)


@functools.lru_cache(maxsize=32)
def _finetune_epoch_batches(
    n: int, batch_size: int, seed: int, epoch: int
) -> tuple[np.ndarray, ...]:
    """A finetuning epoch's batches, memoized per process.

    Finetuning runs over one finetune set with one seed, such as the points
    of a grid sweep, draw the same shuffles, so they share one read-only
    set instead of each re-drawing it in pure Python. A process that runs
    one finetuning gains nothing from it. Pretraining shuffles are not kept.
    """
    return _epoch_batches(n, batch_size, seed, epoch, _TAG_FINETUNE_EPOCH)


def _diverged(step: int, epoch: int, why) -> DivergenceError:
    return DivergenceError(f"training diverged at step {step} (epoch {epoch}): {why}")


def _optimize(
    params: DualEncoderParams,
    config: TrainConfig,
    epoch_batches: Callable[[int], tuple[np.ndarray, ...]],
    step_loss: Callable[[DualEncoderParams, np.ndarray], tuple[LossBreakdown, np.ndarray]],
) -> tuple[DualEncoderParams, list[dict]]:
    """The epoch loop shared by pretraining and finetuning.

    epoch_batches maps an epoch to its index arrays of items. step_loss
    maps the current parameters and an index array of items to the step's
    losses and gradient. params is updated in place, so callers
    pass parameters they own. The log gets one record per step:
    {step, epoch, l_cl, l_cap, l_ret, total, skip_ret}. The first step with
    a non-finite loss, gradient or embedding, or whose update moves a
    trainable temperature out of its range, raises DivergenceError.
    """
    state = init_optimizer_state(params)
    log: list[dict] = []
    for epoch in range(config.epochs):
        for batch_idx in epoch_batches(epoch):
            try:
                breakdown, grads = step_loss(params, batch_idx)
            except NonFiniteError as exc:
                raise _diverged(len(log), epoch, exc) from exc
            if not (math.isfinite(breakdown.total) and np.isfinite(grads).all()):
                raise _diverged(len(log), epoch, "non-finite loss or gradient")
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
                raise _diverged(len(log), epoch, exc) from exc
            log.append({"step": len(log), "epoch": epoch, **vars(breakdown)})
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
        (loss,), (grads,) = _pair_term(
            params, pool.images[batch_idx], pool.texts[batch_idx], 1.0, config.tau_trainable
        )
        return LossBreakdown(l_cl=loss, l_cap=0.0, l_ret=0.0, total=loss, skip_ret=True), grads

    shuffle = functools.partial(
        _epoch_batches, len(pool), config.batch_size, config.seed, tag=_TAG_PRETRAIN_EPOCH
    )
    params, log = _optimize(params, config, shuffle, pair_step)
    return make_checkpoint(params, config, "pretrained"), log


def finetune_batcher(
    finetune_set: SampleSet,
    prompt_table: PromptTable,
    captions: CaptionSet,
    candidate_index: CandidateIndex | None,
    candidates: PairSet | None,
    params: DualEncoderParams,
    config: TrainConfig,
) -> Callable[[np.ndarray], tuple[SampleSet, np.ndarray, AnchorBatch]]:
    """Build what every finetuning step reads, once, and return its batch cutter.

    That is each finetune sample's class-prompt and caption rows and, with
    the ret term, its retrieved candidates as a tuple of row positions in
    `candidates`, best first.
    A sample without a caption raises MissingCaptionError here; building
    the CaptionSet checked every caption row, so the steps do not scan
    them again. In the merge layout, a retrieved candidate whose id is
    also a finetune sample id raises ValueError here too. The cutter maps
    an index array of finetune rows to (batch, prompts, anchor_batch).
    """
    prompts = prompt_table.prompt_features[
        lookup_rows(prompt_table.class_ids, finetune_set.class_ids)
    ]
    try:
        caption_features = captions.features[lookup_rows(captions.ids, finetune_set.ids)]
    except KeyError as exc:
        raise MissingCaptionError(f"no caption for sample {exc.args[0]}") from None

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
        if config.anchor_layout == "merge":
            shared = np.intersect1d(candidate_ids, finetune_set.ids)
            if shared.size:
                raise ValueError(
                    f"the merge layout puts retrieved candidates and finetune samples in "
                    f"one pair set, so their ids must be distinct; retrieved candidate "
                    f"{shared[0]} is also a finetune sample id"
                )
        assignments = dict(zip(finetune_set.ids.tolist(), map(tuple, ranked.tolist())))

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
    captions: CaptionSet,
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

    shuffle = functools.partial(
        _finetune_epoch_batches, len(finetune_set), config.batch_size, config.seed
    )
    params, log = _optimize(start.params.copy(), config, shuffle, anchored_step)
    return make_checkpoint(params, config, "finetuned"), log
