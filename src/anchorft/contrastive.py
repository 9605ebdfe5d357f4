"""Bidirectional InfoNCE over embedding batches, with closed-form gradients.

For similarities S_ij = (f_i . g_j)/tau the loss is the mean row-wise
cross-entropy at the diagonal plus the mean column-wise one. With P the
row softmax and Q the column softmax of S,

    dL/dS = ((P - I) + (Q - I)) / B,
    dL/dF = (dL/dS) G / tau,      dL/dG = (dL/dS)^T F / tau,
    dL/d log_tau = -sum(dL/dS * S).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import as_float_array

__all__ = [
    "LossValue",
    "PairBatch",
    "contrastive_loss",
    "contrastive_loss_and_grads",
]

_UNIT_ROW_TOL = 1e-9


@dataclass
class PairBatch:
    """Aligned unit-embedding batches; row i of each side is a positive pair."""

    image_embeddings: np.ndarray
    text_embeddings: np.ndarray

    def __post_init__(self):
        f = as_float_array(self.image_embeddings, name="image embeddings")
        g = as_float_array(self.text_embeddings, name="text embeddings")
        if f.ndim != 2 or f.shape != g.shape or f.shape[0] < 1:
            raise ValueError(f"embedding batches must match, got {f.shape} vs {g.shape}")
        for name, side in (("image", f), ("text", g)):
            norms = np.linalg.norm(side, axis=1)
            if np.max(np.abs(norms - 1.0)) > _UNIT_ROW_TOL:
                raise ValueError(f"{name} embeddings must have unit rows")
        self.image_embeddings = f
        self.text_embeddings = g

    @property
    def size(self) -> int:
        return self.image_embeddings.shape[0]


@dataclass
class LossValue:
    total: float
    image_to_text: float
    text_to_image: float


def _log_softmax_rows(s: np.ndarray) -> np.ndarray:
    shifted = s - s.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _similarity_terms(batch: PairBatch, tau: float):
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    s = batch.image_embeddings @ batch.text_embeddings.T / tau
    row_ls = _log_softmax_rows(s)
    col_ls = _log_softmax_rows(s.T).T
    return s, row_ls, col_ls


def contrastive_loss(batch: PairBatch, tau: float) -> LossValue:
    """Mean bidirectional cross-entropy at the diagonal. 0 for a single pair."""
    _, row_ls, col_ls = _similarity_terms(batch, tau)
    i2t = float(-np.mean(np.diag(row_ls)))
    t2i = float(-np.mean(np.diag(col_ls)))
    return LossValue(total=i2t + t2i, image_to_text=i2t, text_to_image=t2i)


def contrastive_loss_and_grads(
    batch: PairBatch, tau: float
) -> tuple[LossValue, np.ndarray, np.ndarray, float]:
    """Loss plus embedding gradients and d(loss)/d(log tau), sharing one pass."""
    s, row_ls, col_ls = _similarity_terms(batch, tau)
    b = batch.size
    p = np.exp(row_ls)
    q = np.exp(col_ls)
    dlds = (p + q - 2.0 * np.eye(b)) / b
    df = dlds @ batch.text_embeddings / tau
    dg = dlds.T @ batch.image_embeddings / tau
    dlog_tau = float(-np.sum(dlds * s))
    loss = LossValue(
        total=float(-np.mean(np.diag(row_ls)) - np.mean(np.diag(col_ls))),
        image_to_text=float(-np.mean(np.diag(row_ls))),
        text_to_image=float(-np.mean(np.diag(col_ls))),
    )
    return loss, df, dg, dlog_tau
