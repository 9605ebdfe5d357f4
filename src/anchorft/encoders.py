"""Two-tower MLP encoders mapping raw features to unit embeddings.

Each tower is affine -> tanh -> affine followed by L2 normalization.
Backpropagation is closed-form; for pre-normalization output u with unit
embedding e = u/|u|, the normalization Jacobian is (I - e e^T)/|u|.

All parameters live in one flat float64 vector theta, laid out as image
w1, b1, w2, b2, then text w1, b1, w2, b2, then log_tau. The named leaves
are reshaped views into it; gradients and optimizer moments are vectors
with the same layout.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
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
    "DualEncoderParams",
    "EncodeCache",
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


def _param_count(dims: tuple[int, int, int, int]) -> int:
    """Length of theta for dims (image_in, text_in, hidden, embed)."""
    image_in, text_in, hidden, embed = dims
    return _tower_size(image_in, hidden, embed) + _tower_size(text_in, hidden, embed) + 1


class DualEncoderParams:
    """Both towers plus the shared temperature, stored as one vector theta.

    dims is (image_in, text_in, hidden, embed). `image` and `text` are
    EncoderParams of views into theta, and theta[-1] is log_tau, so writing
    through any of them changes the others.
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


@dataclass
class EncodeCache:
    """Forward activations kept for the backward pass."""

    x: np.ndarray  # (n, in)
    h: np.ndarray  # (n, hidden), post-tanh
    e: np.ndarray  # (n, embed), unit rows
    norms: np.ndarray  # (n,), pre-normalization lengths


def encode_batch(
    params: DualEncoderParams, modality: str, raw_batch
) -> tuple[np.ndarray, EncodeCache]:
    """Embed a batch of raw feature rows; returns unit embeddings and the cache."""
    tower = params.tower(modality)
    x = as_float_array(raw_batch, name="raw features")
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != tower.input_dim:
        raise ValueError(
            f"{modality} features must have {tower.input_dim} columns, got shape {x.shape}"
        )
    h = np.tanh(x @ tower.w1.T + tower.b1)
    u = h @ tower.w2.T + tower.b2
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(u, axis=1)
    if not np.all(np.isfinite(norms)):
        raise NonFiniteError(f"{modality} encoder produced a non-finite pre-normalization norm")
    if np.any(norms <= ZERO_NORM_THRESHOLD):
        raise ZeroVectorError("encoder produced a zero-length pre-normalization vector")
    e = u / norms[:, None]
    return e, EncodeCache(x=x, h=h, e=e, norms=norms)


def encoder_backward_batch(
    params: DualEncoderParams, modality: str, cache: EncodeCache, grad_embeddings
) -> np.ndarray:
    """Gradient of one tower's slice of theta given d(loss)/d(embeddings).

    Gradients of all rows are summed. The normalization backward is
    du = (dE - (dE . e) e)/|u| per row. The result lines up with
    theta[params.span(modality)].
    """
    tower = params.tower(modality)
    de = as_float_array(grad_embeddings, name="embedding grads")
    if de.shape != cache.e.shape:
        raise ValueError("embedding grads must match the cached embeddings' shape")
    proj = np.sum(de * cache.e, axis=1, keepdims=True)
    du = (de - proj * cache.e) / cache.norms[:, None]
    span = params.span(modality)
    _, _, hidden, embed = params.dims
    grad = np.empty(span.stop - span.start)
    dw1, db1, dw2, db2 = _tower_views(grad, 0, tower.input_dim, hidden, embed)
    dw2[...] = du.T @ cache.h
    db2[...] = du.sum(axis=0)
    dh = du @ tower.w2
    dz1 = (1.0 - cache.h**2) * dh
    dw1[...] = dz1.T @ cache.x
    db1[...] = dz1.sum(axis=0)
    return grad


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
