"""Bidirectional InfoNCE over embedding batches, with closed-form gradients.

For similarities S_ij = (f_i . g_j)/tau the loss is the mean row-wise
cross-entropy at the diagonal plus the mean column-wise one. With P the
row softmax and Q the column softmax of S,

    dL/dS = ((P - I) + (Q - I)) / B,
    dL/dF = (dL/dS) G / tau,      dL/dG = (dL/dS)^T F / tau,
    dL/d log_tau = -sum(dL/dS * S).

A batch may also hold a stack of T independent terms, (T, n, d) per side.
Every result then gains a leading T axis, and each slice is bit for bit
what the batch of that slice alone gives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import as_float_array

__all__ = [
    "LossValue",
    "PairBatch",
    "contrastive_loss_and_grads",
]

_UNIT_ROW_TOL = 1e-9


@dataclass
class PairBatch:
    """Aligned unit-embedding batches; row i of each side is a positive pair.

    Each side is (n, d), or (T, n, d) for a stack of T batches. Training
    steps build theirs with _from_encoded, which skips the finite and
    unit-row scan: encode_batch has just checked those rows' norms.
    """

    image_embeddings: np.ndarray
    text_embeddings: np.ndarray

    def __post_init__(self):
        f = as_float_array(self.image_embeddings, name="image embeddings")
        g = as_float_array(self.text_embeddings, name="text embeddings")
        self.image_embeddings = f
        self.text_embeddings = g
        self._check_shapes()
        for name, side in (("image", f), ("text", g)):
            norms = np.linalg.norm(side, axis=-1)
            if np.max(np.abs(norms - 1.0)) > _UNIT_ROW_TOL:
                raise ValueError(f"{name} embeddings must have unit rows")

    @classmethod
    def _from_encoded(cls, f: np.ndarray, g: np.ndarray) -> "PairBatch":
        """A batch over two encode_batch outputs: only the shapes are checked."""
        out = cls.__new__(cls)
        out.image_embeddings, out.text_embeddings = f, g
        out._check_shapes()
        return out

    def _check_shapes(self) -> None:
        f, g = self.image_embeddings, self.text_embeddings
        if f.ndim not in (2, 3) or f.shape != g.shape or f.shape[-2] < 1:
            raise ValueError(f"embedding batches must match, got {f.shape} vs {g.shape}")

    @property
    def size(self) -> int:
        """Rows per batch."""
        return self.image_embeddings.shape[-2]


@dataclass
class LossValue:
    """Floats for one batch; (T,) arrays for a stack of T."""

    total: float | np.ndarray
    image_to_text: float | np.ndarray
    text_to_image: float | np.ndarray


def _log_softmax_rows(s: np.ndarray) -> np.ndarray:
    shifted = s - s.max(axis=-1, keepdims=True)
    shifted -= np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted


def _similarity_terms(batch: PairBatch, tau: float):
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    s = batch.image_embeddings @ batch.text_embeddings.mT
    s /= tau
    row_ls = _log_softmax_rows(s)
    col_ls = _log_softmax_rows(s.mT).mT
    return s, row_ls, col_ls


def _diagonal_mean(ls: np.ndarray, b: int):
    """Minus the diagonal mean; sum()/b is np.mean's own arithmetic, bit for bit."""
    mean = -(ls.diagonal(0, -2, -1).sum(axis=-1) / b)
    return float(mean) if mean.ndim == 0 else mean


def _loss_value(row_ls: np.ndarray, col_ls: np.ndarray, b: int) -> LossValue:
    i2t, t2i = _diagonal_mean(row_ls, b), _diagonal_mean(col_ls, b)
    return LossValue(total=i2t + t2i, image_to_text=i2t, text_to_image=t2i)


def contrastive_loss_and_grads(
    batch: PairBatch, tau: float, *, log_tau_grad: bool = True, out: np.ndarray | None = None
) -> tuple[LossValue, np.ndarray, np.ndarray, float | np.ndarray | None]:
    """Loss plus embedding gradients and d(loss)/d(log tau), sharing one pass.

    The loss is the mean bidirectional cross-entropy at the diagonal (0 for
    one pair). For a stack of T batches, dlog_tau is a (T,) array like the
    losses. With log_tau_grad False it is None, and its n x n pass is
    skipped. out, if given, is a ([T,] 2, n, d) array that receives df in
    [..., 0, :, :] and dg in [..., 1, :, :], the layout of encode_batch's
    pair embeddings; the returned df and dg are those views.
    """
    s, row_ls, col_ls = _similarity_terms(batch, tau)
    f, g = batch.image_embeddings, batch.text_embeddings
    b = batch.size
    lead = s.shape[:-2]
    df = dg = None
    if out is not None:
        if out.shape != (*lead, 2, *f.shape[-2:]):
            raise ValueError(f"out must have shape {(*lead, 2, *f.shape[-2:])}, got {out.shape}")
        df, dg = out[..., 0, :, :], out[..., 1, :, :]
    loss = _loss_value(row_ls, col_ls, b)
    # Past their diagonals the log-softmaxes are only needed as P and Q, so
    # they turn into them in place. Both are C-ordered like s, so the
    # reshapes below are views.
    dlds = np.exp(row_ls, out=row_ls)
    dlds += np.exp(col_ls, out=col_ls)
    # minus 2I: x - 0.0 is x, so off-diagonals need no pass
    dlds.reshape(*lead, b * b)[..., :: b + 1] -= 2.0
    dlds /= b
    df = np.matmul(dlds, g, out=df)
    df /= tau
    dg = np.matmul(dlds.mT, f, out=dg)
    dg /= tau
    if not log_tau_grad:
        return loss, df, dg, None
    s *= dlds
    dlog_tau = -s.reshape(*lead, b * b).sum(axis=-1)
    return loss, df, dg, float(dlog_tau) if not lead else dlog_tau
