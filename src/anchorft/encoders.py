"""Two-tower MLP encoders mapping raw features to unit embeddings.

Each tower is affine -> tanh -> affine followed by L2 normalization.
Backpropagation is closed-form; for pre-normalization output u with unit
embedding e = u/|u|, the normalization Jacobian is (I - e e^T)/|u|.

All parameters live in one flat float64 vector theta, laid out as image
w1, b1, w2, b2, then text w1, b1, w2, b2, then log_tau. Every reader takes
its leaves from one tuple of reshaped views into it (_leaf_views);
gradients and optimizer moments are vectors with the same layout.

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

# The towers in theta's order. As the modality of encode_batch, it runs
# both towers at once; encoder_backward_batch always runs both.
MODALITIES = ("image", "text")

# Each tower's leaves, in theta's order.
_LEAF_NAMES = ("w1", "b1", "w2", "b2")


def _tower_size(in_dim: int, hidden: int, embed: int) -> int:
    return hidden * in_dim + hidden + embed * hidden + embed


def _leaf_views(vec: np.ndarray, dims: tuple[int, int, int, int]):
    """Views of theta's leaves over vec, whose last axis has theta's layout.

    Returns (image w1, text w1, b1, w2, b2): each w1 is (..., hidden, in),
    and b1, w2 and b2 are (..., 2, ·), the tower axis in front of the
    leaf's own axes. Leading axes of vec stay in front. After w1 both towers
    lay out b1, w2 and b2 alike, so each text leaf sits a fixed distance
    after its image twin.
    """
    image_in, text_in, hidden, embed = dims
    lead = vec.shape[:-1]
    split = _tower_size(image_in, hidden, embed)
    w1_image = vec[..., : hidden * image_in].reshape(*lead, hidden, image_in)
    w1_text = vec[..., split : split + hidden * text_in].reshape(*lead, hidden, text_in)
    w2_end = hidden + embed * hidden
    item = vec.itemsize
    tails = np.ndarray(
        (*lead, 2, w2_end + embed), vec.dtype, vec, hidden * image_in * item,
        (*vec.strides[:-1], (split + hidden * (text_in - image_in)) * item, item),
    )
    w2 = tails[..., hidden:w2_end].reshape(*lead, 2, embed, hidden)
    return w1_image, w1_text, tails[..., :hidden], w2, tails[..., w2_end:]


def _param_count(dims: tuple[int, int, int, int]) -> int:
    """Length of theta for dims (image_in, text_in, hidden, embed)."""
    image_in, text_in, hidden, embed = dims
    return _tower_size(image_in, hidden, embed) + _tower_size(text_in, hidden, embed) + 1


def _leaf_at(position: int, dims: tuple[int, int, int, int]) -> str:
    """The name of the leaf ("image w1" ... "text b2", "log_tau") holding theta[position].

    Dims below 1 lay out no towers, and name the whole of "theta".
    """
    if min(dims) < 1:
        return "theta"
    w1_image, w1_text, *shared = _leaf_views(np.arange(_param_count(dims)), dims)
    for name, leaves in zip(_LEAF_NAMES, ((w1_image, w1_text), *shared)):
        for modality, leaf in zip(MODALITIES, leaves):
            if position in leaf:
                return f"{modality} {name}"
    return "log_tau"


class DualEncoderParams:
    """Both towers plus the shared temperature, stored as one vector theta.

    dims is (image_in, text_in, hidden, embed). The leaves are the tuple
    _leaf_views(theta, dims) returns, built here once: theta is only ever
    updated in place, so the views stay valid, and writing through one
    changes theta. tower(modality) reads one tower's leaves from it, and
    theta[-1] is log_tau.
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
        self._leaves = _leaf_views(self.theta, self.dims)
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

    def copy(self) -> "DualEncoderParams":
        return DualEncoderParams(self.theta.copy(), self.dims)

    def tower(self, modality: str) -> tuple[np.ndarray, ...]:
        """One tower's (w1, b1, w2, b2): (hidden, in), (hidden,), (embed, hidden), (embed,)."""
        if modality not in MODALITIES:
            raise ValueError(f"unknown modality {modality!r}")
        i = MODALITIES.index(modality)
        b1, w2, b2 = self._leaves[2:]
        return self._leaves[i], b1[i], w2[i], b2[i]


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
    for w1, _, w2, _ in map(params.tower, MODALITIES):
        w1[...] = stream.normal_matrix(hidden, w1.shape[1]) / math.sqrt(w1.shape[1])
        w2[...] = stream.normal_matrix(embed_dim, hidden) / math.sqrt(hidden)
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
    w1_image, w1_text, b1, w2, b2 = params._leaves
    z1 = np.empty((*x_text.shape[:-2], 2, n, hidden))
    if x_text.ndim == 2:
        np.matmul(x_image, w1_image.T, out=z1[0])
    else:
        np.matmul(x_image, w1_image.T, out=z1[0, 0])
        z1[1:, 0] = z1[0, 0]  # every term reads the same image rows
    np.matmul(x_text, w1_text.T, out=z1[..., 1, :, :])
    # The biases get a row axis to broadcast over ([term,] tower, row, ·).
    h, e, norms = _embed(z1, b1[:, None], w2, b2[:, None], MODALITIES)
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
    w1, b1, w2, b2 = params.tower(modality)
    x = as_float_array(raw_batch, name="raw features")
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != w1.shape[1]:
        raise ValueError(
            f"{modality} features must have {w1.shape[1]} columns, got shape {x.shape}"
        )
    h, e, norms = _embed(x @ w1.T, b1, w2, b2, (modality,))
    return e, (x, h, e, norms)


def encoder_backward_batch(params: DualEncoderParams, cache: tuple, grad_embeddings) -> np.ndarray:
    """Gradient over theta given d(loss)/d(embeddings) and encode_batch's MODALITIES cache.

    grad_embeddings is shaped like the pair embeddings. Gradients of all
    rows are summed. The normalization backward is
    du = (dE - (dE . e) e)/|u| per row. The result is shaped
    like theta, or (T, theta.size) for a stack of T terms, one gradient per
    term, with log_tau's entry 0. Each tower's span of a term's gradient is
    bit for bit that tower's 2-D backward over the term's rows.
    grad_embeddings is not scanned for non-finite entries; training rejects
    a non-finite gradient at its step.
    """
    (x_image, x_text), h, e, norms = cache
    de = np.asarray(grad_embeddings, dtype=np.float64)
    if de.shape != e.shape:
        raise ValueError("embedding grads must match the cached embeddings' shape")
    lead = de.shape[:-3]
    du = de * e
    proj = np.add.reduce(du, axis=-1, keepdims=True)
    np.subtract(de, np.multiply(proj, e, out=du), out=du)
    du /= norms[..., None]
    dz1 = h**2
    np.subtract(1.0, dz1, out=dz1)
    dz1 *= du @ params._leaves[3]
    out = np.empty((*lead, params.theta.size))
    w1_image, w1_text, b1, w2, b2 = _leaf_views(out, params.dims)
    np.matmul(dz1[..., 0, :, :].mT, x_image, out=w1_image)
    np.matmul(dz1[..., 1, :, :].mT, x_text, out=w1_text)
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
        for leaf_name, arr in zip(_LEAF_NAMES, params.tower(tower_name)):
            digest.update(f"{tower_name}.{leaf_name}".encode())
            digest.update(struct.pack("<q", arr.ndim))
            for dim in arr.shape:
                digest.update(struct.pack("<q", dim))
            digest.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    digest.update(b"log_tau")
    digest.update(struct.pack("<d", params.log_tau))
    return digest.hexdigest()
