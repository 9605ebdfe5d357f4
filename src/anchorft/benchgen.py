"""Synthetic multi-domain benchmark with seen and held-out classes.

Classes are unit gaussian prototypes in a latent space. Each sample's latent
content is its prototype plus a per-id sum of context bank vectors; images
lift that content isometrically into raw image space (plus noise and a
per-domain rotation), captions lift the same content into raw text space
(plus noise). Captions therefore describe their image beyond the class
label, while prompts carry the class lift alone plus a fixed template
offset: the generator's stand-ins for natural captions versus "a photo of
a ..." prompts. Domain 0 is the identity; every higher domain applies a
seeded random rotation to raw image space.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .anchors import CaptionRecord, PairSet, Sample, SampleSet, attach_captions
from .evaluation import PromptTable
from .numerics import RandomStream, derive_seed, l2_normalize

__all__ = [
    "BenchmarkBundle",
    "GenConfig",
    "RotationError",
    "SynthCaptionProvider",
    "generate_benchmark",
    "random_rotation",
]

# Sub-stream tags; every stream the generator touches is derived from
# (seed, tag[, index]) so draws for one entity never shift another's.
_TAG_PROTO = 11
_TAG_LIFT_IMG = 12
_TAG_LIFT_TXT = 13
_TAG_TEMPLATE = 14
_TAG_CONTEXT = 15
_TAG_CAPTION = 22
_TAG_ROTATION = 23
_TAG_CONTEXT_PICK = 24
_TAG_IMG_NOISE = 25


class RotationError(RuntimeError):
    """Could not draw a usable rotation matrix (degenerate after retries)."""


@dataclass
class GenConfig:
    """Benchmark shape and noise knobs.

    Defaults are the calibrated desk-scale setting shipped in defaults.json;
    a regression test keeps the two in sync. n_pretrain_per_class counts per
    class per domain, the finetune/test counts are per class.
    """

    n_id_classes: int = 12
    n_zsl_classes: int = 48
    n_domains: int = 3
    d_latent: int = 28
    d_img_raw: int = 48
    d_txt_raw: int = 48
    n_pretrain_per_class: int = 30
    n_finetune_per_class: int = 100
    n_test_per_class: int = 20
    candidate_pool_size: int = 2048
    sigma_img: float = 0.15
    sigma_txt: float = 0.02
    context_bank_size: int = 24
    context_strength: float = 0.30
    contexts_per_sample: int = 1
    template_offset_scale: float = 0.15
    seed: int = 0

    def validate(self) -> None:
        if self.n_id_classes < 2 or self.n_zsl_classes < 2:
            raise ValueError("need at least two seen and two held-out classes")
        if self.n_domains < 1:
            raise ValueError("n_domains must be at least 1")
        if not 2 <= self.d_latent <= min(self.d_img_raw, self.d_txt_raw):
            raise ValueError("d_latent must be >= 2 and fit inside both raw spaces")
        n_classes = self.n_id_classes + self.n_zsl_classes
        if self.candidate_pool_size < n_classes:
            raise ValueError("candidate pool must be able to cover every class")
        if not 0 <= self.contexts_per_sample <= self.context_bank_size:
            raise ValueError("contexts_per_sample must fit in the context bank")
        if min(self.sigma_img, self.sigma_txt, self.context_strength) < 0:
            raise ValueError("noise scales must be non-negative")
        if min(
            self.n_pretrain_per_class, self.n_finetune_per_class, self.n_test_per_class
        ) < 1:
            raise ValueError("per-class sample counts must be positive")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class BenchmarkBundle:
    """Everything one experiment needs, generated from a single seed."""

    gen_config: GenConfig
    id_class_ids: list[int]
    zsl_class_ids: list[int]
    pretrain_pool: PairSet
    finetune: SampleSet
    captions: list[CaptionRecord]
    prompts_id: PromptTable
    prompts_zsl: PromptTable
    candidates: PairSet
    id_test: SampleSet
    ds_tests: dict[int, SampleSet]
    zsl_test: SampleSet


def random_rotation(seed: int, dim: int) -> np.ndarray:
    """Seeded random orthogonal matrix via Gram-Schmidt.

    Columns of a seeded gaussian matrix are orthonormalized in order
    (modified Gram-Schmidt); each pivot is the positive residual norm, which
    fixes the orientation deterministically. Numerically dependent draws are
    retried with a reseeded matrix, at most 8 times.
    """
    if dim < 1:
        raise ValueError("dim must be positive")
    for attempt in range(8):
        stream = RandomStream(derive_seed(seed, _TAG_ROTATION, attempt))
        a = stream.normal_matrix(dim, dim)
        q = np.empty_like(a)
        ok = True
        for j in range(dim):
            v = a[:, j].copy()
            for i in range(j):
                v -= np.dot(q[:, i], v) * q[:, i]
            norm = np.linalg.norm(v)
            if norm < 1e-10:
                ok = False
                break
            q[:, j] = v / norm
        if ok and np.max(np.abs(q.T @ q - np.eye(dim))) <= 1e-12:
            return q
    raise RotationError(f"no well-conditioned rotation for seed {seed} after 8 attempts")


@dataclass
class SynthCaptionProvider:
    """Deterministic caption features grounded in per-id latent content.

    Entity i of class c has latent content prototype[c] + strength * ctx_i,
    where ctx_i is the sum of a per-id subset of distinct context bank rows.
    Its caption lifts that content into text space and adds noise:

        caption_i = m_txt @ (prototype[c] + strength * ctx_i) + sigma_txt * eta_i

    Images are built from the identical latent point, so a caption carries
    the semantics of its image beyond the class label, the way a natural
    caption describes more than the class word. The subset and eta depend
    only on (seed, i): captions never change between calls.
    """

    seed: int
    latent_prototypes: dict[int, np.ndarray]
    context_bank: np.ndarray
    m_txt: np.ndarray
    strength: float
    contexts_per_sample: int
    sigma_txt: float

    def context_mix(self, entity_id: int) -> np.ndarray:
        if self.contexts_per_sample == 0:
            return np.zeros(self.context_bank.shape[1])
        stream = RandomStream(derive_seed(self.seed, _TAG_CONTEXT_PICK, entity_id))
        picks = stream.sample_indices(self.context_bank.shape[0], self.contexts_per_sample)
        return self.context_bank[picks].sum(axis=0)

    def content_latent(self, entity_id: int, class_id: int) -> np.ndarray:
        return self.latent_prototypes[class_id] + self.strength * self.context_mix(entity_id)

    def caption_feature(self, entity_id: int, class_id: int) -> np.ndarray:
        stream = RandomStream(derive_seed(self.seed, _TAG_CAPTION, entity_id))
        noise = stream.normals(self.m_txt.shape[0])
        return self.m_txt @ self.content_latent(entity_id, class_id) + self.sigma_txt * noise

    def __call__(self, sample: Sample) -> np.ndarray:
        return self.caption_feature(sample.id, sample.class_id)


def _unit_rows(stream: RandomStream, n: int, dim: int) -> np.ndarray:
    return np.stack([l2_normalize(stream.normals(dim)) for _ in range(n)])


def generate_benchmark(cfg: GenConfig) -> BenchmarkBundle:
    """Build the full bundle; identical configs give identical bundles."""
    cfg.validate()
    seed = cfg.seed

    id_classes = list(range(cfg.n_id_classes))
    zsl_classes = list(range(cfg.n_id_classes, cfg.n_id_classes + cfg.n_zsl_classes))
    all_classes = id_classes + zsl_classes

    proto_stream = RandomStream(derive_seed(seed, _TAG_PROTO))
    prototypes = {
        c: l2_normalize(proto_stream.normals(cfg.d_latent)) for c in all_classes
    }
    # First d_latent columns of a random rotation: an exact isometry, so
    # latent geometry survives the lift into each raw space.
    m_img = random_rotation(derive_seed(seed, _TAG_LIFT_IMG), cfg.d_img_raw)[:, : cfg.d_latent]
    m_txt = random_rotation(derive_seed(seed, _TAG_LIFT_TXT), cfg.d_txt_raw)[:, : cfg.d_latent]

    rotations = {0: np.eye(cfg.d_img_raw)}
    for domain in range(1, cfg.n_domains):
        rotations[domain] = random_rotation(seed ^ domain, cfg.d_img_raw)

    template = l2_normalize(RandomStream(derive_seed(seed, _TAG_TEMPLATE)).normals(cfg.d_txt_raw))
    prompt_rows = np.stack(
        [m_txt @ prototypes[c] + cfg.template_offset_scale * template for c in all_classes]
    )
    prompts_id = PromptTable(id_classes, prompt_rows[: len(id_classes)])
    prompts_zsl = PromptTable(zsl_classes, prompt_rows[len(id_classes):])

    context_bank = _unit_rows(
        RandomStream(derive_seed(seed, _TAG_CONTEXT)), cfg.context_bank_size, cfg.d_latent
    )
    provider = SynthCaptionProvider(
        seed=seed,
        latent_prototypes=prototypes,
        context_bank=context_bank,
        m_txt=m_txt,
        strength=cfg.context_strength,
        contexts_per_sample=cfg.contexts_per_sample,
        sigma_txt=cfg.sigma_txt,
    )

    next_id = 0

    def take_ids(n: int) -> np.ndarray:
        nonlocal next_id
        next_id += n
        return np.arange(next_id - n, next_id, dtype=np.int64)

    def image_feature(entity_id: int, class_id: int, domain: int) -> np.ndarray:
        latent = provider.content_latent(entity_id, class_id)
        stream = RandomStream(derive_seed(seed, _TAG_IMG_NOISE, entity_id))
        raw = m_img @ latent + cfg.sigma_img * stream.normals(cfg.d_img_raw)
        return rotations[domain] @ raw

    # Every entity's features come from streams keyed by its own id, so only
    # the order in which ids are handed out fixes the bundle.
    def pair_set(class_ids: np.ndarray, domain_ids: np.ndarray) -> PairSet:
        ids = take_ids(class_ids.size).tolist()
        images = [image_feature(*e) for e in zip(ids, class_ids.tolist(), domain_ids.tolist())]
        texts = [provider.caption_feature(*e) for e in zip(ids, class_ids.tolist())]
        return PairSet(ids, np.array(images), np.array(texts))

    def sample_set(class_list: Sequence[int], per_class: int, domain: int) -> SampleSet:
        class_ids = np.repeat(class_list, per_class)
        ids = take_ids(class_ids.size)
        features = [image_feature(i, c, domain) for i, c in zip(ids.tolist(), class_ids.tolist())]
        return SampleSet(ids, np.array(features), class_ids, np.full(ids.size, domain))

    n_classes, n_domains = len(all_classes), cfg.n_domains
    pretrain_pool = pair_set(
        np.repeat(all_classes, n_domains * cfg.n_pretrain_per_class),
        np.tile(np.repeat(np.arange(n_domains), cfg.n_pretrain_per_class), n_classes),
    )

    finetune = sample_set(id_classes, cfg.n_finetune_per_class, 0)
    captions = attach_captions(finetune, provider)

    # Round-robin over classes so any pool of at least n_classes candidates
    # covers every class, seen and held-out alike. Most candidates live in
    # domain 0; every fourth is drawn from a rotated domain in turn, so the
    # pool keeps a slice of every domain's geometry without being dominated
    # by it.
    slots = np.arange(cfg.candidate_pool_size)
    candidate_classes = np.asarray(all_classes)[slots % n_classes]
    candidate_domains = np.zeros_like(slots)
    if n_domains > 1:
        shifted = slots % 4 == 3
        candidate_domains[shifted] = 1 + (slots[shifted] // 4) % (n_domains - 1)
    if set(candidate_classes.tolist()) != set(all_classes):
        raise RuntimeError("candidate pool failed to cover every class")
    candidates = pair_set(candidate_classes, candidate_domains)

    id_test = sample_set(id_classes, cfg.n_test_per_class, 0)
    ds_tests = {
        domain: sample_set(id_classes, cfg.n_test_per_class, domain)
        for domain in range(1, n_domains)
    }
    zsl_test = sample_set(zsl_classes, cfg.n_test_per_class, 0)

    return BenchmarkBundle(
        gen_config=cfg,
        id_class_ids=id_classes,
        zsl_class_ids=zsl_classes,
        pretrain_pool=pretrain_pool,
        finetune=finetune,
        captions=captions,
        prompts_id=prompts_id,
        prompts_zsl=prompts_zsl,
        candidates=candidates,
        id_test=id_test,
        ds_tests=ds_tests,
        zsl_test=zsl_test,
    )
