"""Two-tower MLP encoders mapping raw features to unit embeddings.

Each tower is affine -> tanh -> affine followed by L2 normalization.
Backpropagation is closed-form; for pre-normalization output u with unit
embedding e = u/|u|, the normalization Jacobian is (I - e e^T)/|u|.

All parameters live in one flat float64 vector theta, laid out as image
w1, b1, w2, b2, then text w1, b1, w2, b2, then log_tau. The named leaves
are reshaped views into it; gradients and optimizer moments are vectors
with the same layout.

Training encodes pairs with both towers at once: every array after the
first-layer product carries a tower axis, behind a term axis when several
terms share the images, and each slice of it is computed with the
one-tower arithmetic, bit for bit. numpy's matmul over leading axes makes
one GEMM per slice, the same call as a 2-D product, and the elementwise
ops and last-axis reductions treat each slice alike.
"""

from __future__ import annotations

import hashlib
import math
import struct
from typing import NamedTuple

import numpy as np

from .numerics import (
    ZERO_NORM_THRESHOLD,
    NonFiniteError,
    RandomStream,
    ZeroVectorError,
    as_float_array,
)

__all__ = [
    "DEFAULT_LOG_TAU",
    "MODALITIES",
    "DualEncoderParams",
    "EncoderParams",
    "encode_batch",
    "encoder_backward_batch",
    "init_params",
    "param_fingerprint",
]

# Temperature starts at 0.07, the usual contrastive default, and must stay
# in a sane band.
DEFAULT_LOG_TAU = math.log(0.07)
TAU_MIN = 1e-4
TAU_MAX = 10.0

# The towers in theta's order. As the modality of encode_batch or
# encoder_backward_batch, it runs both towers at once.
MODALITIES = ("image", "text")


class EncoderParams(NamedTuple):
    """One tower: w1 (hidden, in), b1 (hidden,), w2 (embed, hidden), b2 (embed,)."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    @property
    def input_dim(self) -> int:
        return self.w1.shape[1]


def _tower_size(in_dim: int, hidden: int, embed: int) -> int:
    return hidden * in_dim + hidden + embed * hidden + embed


def _tower_views(vec: np.ndarray, start: int, in_dim: int, hidden: int, embed: int):
    """EncoderParams of reshaped views into vec, beginning at offset start."""
    shapes = ((hidden, in_dim), (hidden,), (embed, hidden), (embed,))
    views = []
    for shape in shapes:
        size = math.prod(shape)
        views.append(vec[start : start + size].reshape(shape))
        start += size
    return EncoderParams(*views)


def _tail_views(vec: np.ndarray, dims: tuple[int, int, int, int]):
    """(..., 2, ·) views of both towers' b1, w2 and b2 over the C-ordered buffer vec.

    The last axis of vec has theta's layout and becomes the tower axis;
    leading axes stay in front. After w1 both towers lay out b1, w2 and b2
    alike, so each text leaf sits a fixed distance after its image twin.
    """
    image_in, text_in, hidden, embed = dims
    gap = _tower_size(image_in, hidden, embed) + hidden * (text_in - image_in)
    w2_end = hidden + embed * hidden
    item = vec.itemsize
    tails = np.ndarray(
        (*vec.shape[:-1], 2, w2_end + embed), vec.dtype, vec, hidden * image_in * item,
        (*vec.strides[:-1], gap * item, item),
    )
    w2 = tails[..., hidden:w2_end].reshape(*tails.shape[:-1], embed, hidden)
    return tails[..., :hidden], w2, tails[..., w2_end:]


def _param_count(dims: tuple[int, int, int, int]) -> int:
    """Length of theta for dims (image_in, text_in, hidden, embed)."""
    image_in, text_in, hidden, embed = dims
    return _tower_size(image_in, hidden, embed) + _tower_size(text_in, hidden, embed) + 1


class DualEncoderParams:
    """Both towers plus the shared temperature, stored as one vector theta.

    dims is (image_in, text_in, hidden, embed). `image` and `text` are
    EncoderParams of views into theta, and theta[-1] is log_tau, so writing
    through any of them changes the others. The pair forward reads b1, w2
    and b2 of both towers through (2, ...) views over theta, built here
    once: theta is only ever updated in place, so they stay valid.
    """

    def __init__(self, theta, dims: tuple[int, int, int, int]):
        self.dims = tuple(int(d) for d in dims)
        image_in, text_in, hidden, embed = self.dims
        if min(image_in, text_in, hidden) < 1 or embed < 2:
            raise ValueError("dims must be positive and embed_dim at least 2")
        self.theta = np.ascontiguousarray(theta, dtype=np.float64)
        if self.theta.shape != (_param_count(self.dims),):
            raise ValueError(
                f"theta must have shape ({_param_count(self.dims)},) for dims {self.dims}, "
                f"got {self.theta.shape}"
            )
        split = _tower_size(image_in, hidden, embed)
        self.image = _tower_views(self.theta, 0, image_in, hidden, embed)
        self.text = _tower_views(self.theta, split, text_in, hidden, embed)
        self._spans = {"image": slice(0, split), "text": slice(split, self.theta.size - 1)}
        b1, w2, b2 = _tail_views(self.theta, self.dims)
        # Shaped to broadcast over ([term,] tower, row, ·) stacks.
        self._pair_leaves = (b1[:, None], w2, b2[:, None])
        self.check_tau()

    def check_tau(self) -> None:
        """Raise ValueError unless tau lies in (TAU_MIN, TAU_MAX)."""
        if not TAU_MIN < self.tau < TAU_MAX:
            raise ValueError(f"tau {self.tau:.4g} outside ({TAU_MIN}, {TAU_MAX})")

    @property
    def log_tau(self) -> float:
        return float(self.theta[-1])

    @property
    def tau(self) -> float:
        return math.exp(self.log_tau)

    @property
    def embed_dim(self) -> int:
        return self.dims[3]

    def copy(self) -> "DualEncoderParams":
        return DualEncoderParams(self.theta.copy(), self.dims)

    def tower(self, modality: str) -> EncoderParams:
        if modality == "image":
            return self.image
        if modality == "text":
            return self.text
        raise ValueError(f"unknown modality {modality!r}")

    def span(self, modality: str) -> slice:
        """The slice of theta that holds one tower."""
        if modality not in self._spans:
            raise ValueError(f"unknown modality {modality!r}")
        return self._spans[modality]


def init_params(
    seed: int, input_dims: tuple[int, int], hidden: int, embed_dim: int
) -> DualEncoderParams:
    """Seeded initialization: gaussian weights scaled by 1/sqrt(fan_in), zero biases.

    Draw order is fixed: image tower w1 then w2 (row-major), then the text
    tower, so a given seed always produces the same parameters.
    """
    dims = (input_dims[0], input_dims[1], hidden, embed_dim)
    theta = np.zeros(_param_count(dims))
    theta[-1] = DEFAULT_LOG_TAU
    params = DualEncoderParams(theta, dims)
    stream = RandomStream(seed)
    for tower in (params.image, params.text):
        tower.w1[...] = stream.normal_matrix(hidden, tower.input_dim) / math.sqrt(tower.input_dim)
        tower.w2[...] = stream.normal_matrix(embed_dim, hidden) / math.sqrt(hidden)
    return params


def _check_norms(norms: np.ndarray, modalities: tuple[str, ...]) -> None:
    """Raise for the first bad slice, towers first, as one-tower checks would.

    norms is (..., len(modalities), n), or one tower's (n,).
    """
    if (
        np.minimum.reduce(norms, None, initial=np.inf) > ZERO_NORM_THRESHOLD
        and np.maximum.reduce(norms, None, initial=0.0) < np.inf
    ):
        return  # a NaN fails the first test, an infinity the second
    terms = norms.reshape(-1, len(modalities), norms.shape[-1])
    for i, modality in enumerate(modalities):
        for term_norms in terms[:, i]:
            if not np.isfinite(term_norms).all():
                raise NonFiniteError(
                    f"{modality} encoder produced a non-finite pre-normalization norm"
                )
            if (term_norms <= ZERO_NORM_THRESHOLD).any():
                raise ZeroVectorError("encoder produced a zero-length pre-normalization vector")


def _embed(z1: np.ndarray, b1, w2, b2, modalities: tuple[str, ...]):
    """Everything after the first-layer product z1 (..., n, hidden): (h, e, norms).

    z1 is overwritten with h. The leaves broadcast against it, and
    modalities names its towers (one name for an (n, hidden) z1). The
    embeddings are only formed once every norm has passed its check.
    """
    z1 += b1
    h = np.tanh(z1, out=z1)
    u = h @ w2.mT
    u += b2
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt(np.add.reduce(u * u, axis=-1))  # np.linalg.norm's own formula
    _check_norms(norms, modalities)
    u /= norms[..., None]
    return h, u, norms


def _encode_pairs(params: DualEncoderParams, images, texts) -> tuple[np.ndarray, tuple]:
    image_in, text_in, hidden, embed = params.dims
    x_image = as_float_array(images, name="raw features")
    x_text = as_float_array(texts, name="raw features")
    if x_image.ndim != 2 or x_image.shape[1] != image_in:
        raise ValueError(
            f"image features must have {image_in} columns, got shape {x_image.shape}"
        )
    if x_text.ndim not in (2, 3) or x_text.shape[-1] != text_in:
        raise ValueError(
            f"text features must have {text_in} columns, got shape {x_text.shape}"
        )
    n = x_text.shape[-2]
    if n != len(x_image):
        raise ValueError(
            f"image and text embedding batches must match, got {(len(x_image), embed)} "
            f"vs {(n, embed)}"
        )
    z1 = np.empty((*x_text.shape[:-2], 2, n, hidden))
    if x_text.ndim == 2:
        np.matmul(x_image, params.image.w1.T, out=z1[0])
    else:
        np.matmul(x_image, params.image.w1.T, out=z1[0, 0])
        z1[1:, 0] = z1[0, 0]  # every term reads the same image rows
    np.matmul(x_text, params.text.w1.T, out=z1[..., 1, :, :])
    h, e, norms = _embed(z1, *params._pair_leaves, MODALITIES)
    return e, ((x_image, x_text), h, e, norms)


def encode_batch(
    params: DualEncoderParams, modality: str | tuple[str, str], raw_batch
) -> tuple[np.ndarray, tuple]:
    """Embed a batch of raw feature rows; returns unit embeddings and the cache.

    With modality "image" or "text", raw_batch is an (n, in) matrix or one
    row and the embeddings are (n, embed). With modality MODALITIES, both
    towers run at once on pairs: raw_batch is (images, texts), an
    (n, image_in) matrix and a row-aligned (n, text_in) text matrix, or a
    (T, n, text_in) stack of T text matrices that all pair with the same
    images. The embeddings are then (2, n, embed), or (T, 2, n, embed):
    [..., 0, :, :] embeds the images and [..., 1, :, :] the texts, each
    slice bit for bit what the one-tower call gives.

    The cache is the tuple (x, h, e, norms) of what the backward reads: the
    raw rows (the (images, texts) pair for MODALITIES), the post-tanh
    activations, the embeddings and the pre-normalization lengths.
    """
    if modality == MODALITIES:
        return _encode_pairs(params, *raw_batch)
    tower = params.tower(modality)
    x = as_float_array(raw_batch, name="raw features")
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != tower.input_dim:
        raise ValueError(
            f"{modality} features must have {tower.input_dim} columns, got shape {x.shape}"
        )
    h, e, norms = _embed(x @ tower.w1.T, tower.b1, tower.w2, tower.b2, (modality,))
    return e, (x, h, e, norms)


def encoder_backward_batch(
    params: DualEncoderParams, modality: tuple[str, str], cache: tuple, grad_embeddings
) -> np.ndarray:
    """Gradient over theta given d(loss)/d(embeddings) and encode_batch's pair cache.

    modality must be MODALITIES, and grad_embeddings is shaped like the
    pair embeddings. Gradients of all rows are summed. The normalization
    backward is du = (dE - (dE . e) e)/|u| per row. The result is shaped
    like theta, or (T, theta.size) for a stack of T terms, one gradient per
    term, with log_tau's entry 0. Each tower's span of a term's gradient is
    bit for bit that tower's 2-D backward over the term's rows.
    grad_embeddings is not scanned for non-finite entries; training rejects
    a non-finite gradient at its step.
    """
    if modality != MODALITIES:
        raise ValueError(f"the backward runs both towers: modality must be {MODALITIES}")
    (x_image, x_text), h, e, norms = cache
    de = np.asarray(grad_embeddings, dtype=np.float64)
    if de.shape != e.shape:
        raise ValueError("embedding grads must match the cached embeddings' shape")
    lead = de.shape[:-3]
    hidden = params.dims[2]
    du = de * e
    proj = np.add.reduce(du, axis=-1, keepdims=True)
    np.subtract(de, np.multiply(proj, e, out=du), out=du)
    du /= norms[..., None]
    dz1 = h**2
    np.subtract(1.0, dz1, out=dz1)
    dz1 *= du @ params._pair_leaves[1]
    out = np.empty((*lead, params.theta.size))
    for i, x in enumerate((x_image, x_text)):
        start, width = params.span(MODALITIES[i]).start, x.shape[-1]
        w1 = out[..., start : start + hidden * width].reshape(*lead, hidden, width)
        np.matmul(dz1[..., i, :, :].mT, x, out=w1)
    b1, w2, b2 = _tail_views(out, params.dims)
    np.add.reduce(dz1, axis=-2, out=b1)
    np.matmul(du.mT, h, out=w2)
    np.add.reduce(du, axis=-2, out=b2)
    out[..., -1] = 0.0
    return out


def param_fingerprint(params: DualEncoderParams) -> str:
    """Content hash of the parameters (canonical little-endian bytes).

    Ties candidate indexes to the exact checkpoint that produced them. The
    hash names every leaf, so it is the same as when the leaves were stored
    as separate arrays.
    """
    digest = hashlib.sha256()
    for tower_name in MODALITIES:
        for leaf_name, arr in zip(EncoderParams._fields, params.tower(tower_name)):
            digest.update(f"{tower_name}.{leaf_name}".encode())
            digest.update(struct.pack("<q", arr.ndim))
            for dim in arr.shape:
                digest.update(struct.pack("<q", dim))
            digest.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    digest.update(b"log_tau")
    digest.update(struct.pack("<d", params.log_tau))
    return digest.hexdigest()
