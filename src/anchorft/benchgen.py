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

Draw order. The bundle-wide draws come first: class prototypes, the image
and text lifts, the domain rotations, the prompt template and the context
bank, each from its own scalar stream. Ids are then handed out to the sets
in a fixed order (pretraining pool, finetune set, candidate pool, then the
test splits: seen classes in domain 0, in each shifted domain, held-out
classes), and every per-entity stream is keyed by (seed, tag, id). A set
draws each of its streams in one call over its ids: its context picks
(lane_sample_indices), its image noise and, for a caption set, its caption
noise (lane_normals). Images and captions follow one recipe
(SynthCaptionProvider.noisy_lift): each noise matrix becomes the set's
feature matrix in place, scaled, then each row's lifted latent added,
_LIFT_ROWS rows at a time. No stream is shared between entities, so only
the order of the ids fixes the bytes, and the order or grouping of the
calls does not.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .anchors import CaptionSet, PairSet, PromptTable, SampleSet
from .numerics import (
    RandomStream,
    check_finite_fields,
    derive_seed,
    derive_seeds,
    l2_normalize,
    lane_normals,
    lane_sample_indices,
)

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

# Rows whose latents are lifted, or whose images are rotated, per matrix
# product; bounds the temporaries beside a set's draws. Generating and
# writing a default bundle three times in one process peaked 0.2 MB lower
# with 512 rows than with 1,024, and 0.5 MB lower than with whole sets
# (x86-64, one CPU, glibc malloc).
_LIFT_ROWS = 512


class RotationError(RuntimeError):
    """Could not draw a usable rotation matrix (degenerate after retries)."""


@dataclass
class GenConfig:
    """Benchmark shape and noise knobs.

    Defaults are the calibrated desk-scale setting; the seed-0 bundle's
    golden digests pin them. n_pretrain_per_class counts per class per
    domain, the finetune/test counts are per class. With n_domains 1 the
    bundle has no domain-shift split.
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
        check_finite_fields(self)
        if self.n_id_classes < 2 or self.n_zsl_classes < 2:
            raise ValueError("need at least two seen and two held-out classes")
        if self.n_domains < 1:
            raise ValueError("n_domains must be at least 1")
        if not 2 <= self.d_latent <= min(self.d_img_raw, self.d_txt_raw):
            raise ValueError("d_latent must be >= 2 and fit inside both raw spaces")
        n_classes = self.n_id_classes + self.n_zsl_classes
        if self.candidate_pool_size < n_classes:
            raise ValueError("candidate pool must be able to cover every class")
        if self.context_bank_size < 1:
            raise ValueError("context_bank_size must be at least 1")
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
    pretrain_pool: PairSet
    finetune: SampleSet
    captions: CaptionSet
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
    fixes the orientation deterministically. Once column j is normalized,
    its projection leaves every later column in one `np.vecdot` call, so
    each column still takes its projections in the order j = 0, 1, ...
    `np.vecdot` makes one BLAS ddot per (column, earlier column) pair, the
    call `np.dot` makes, with the same strides; a matrix-vector product
    over the later columns would round differently. Numerically dependent
    draws are retried with a reseeded matrix, at most 8 times.
    """
    if dim < 1:
        raise ValueError("dim must be positive")
    for attempt in range(8):
        stream = RandomStream(derive_seed(seed, _TAG_ROTATION, attempt))
        # Row k of the working copy is column k of the draw.
        rows = stream.normal_matrix(dim, dim).T.copy()
        q = np.empty_like(rows)
        for j in range(dim):
            norm = np.linalg.norm(rows[j])
            if norm < 1e-10:
                break
            q[:, j] = rows[j] / norm
            later = rows[j + 1 :]
            later -= np.vecdot(q[:, j], later)[:, None] * q[:, j]
        else:
            if np.max(np.abs(q.T @ q - np.eye(dim))) <= 1e-12:
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
    only on (seed, i): captions never change between calls. context_picks,
    noisy_lift and caption_feature take a column of entity ids and draw
    their streams in lockstep; the other methods take picks already drawn
    for such a column. Row k of a result belongs to the k-th entity.
    """

    seed: int
    latent_prototypes: np.ndarray  # row c is class c's unit prototype
    context_bank: np.ndarray
    m_txt: np.ndarray
    strength: float
    contexts_per_sample: int
    sigma_txt: float

    def context_picks(self, ids: np.ndarray) -> np.ndarray:
        """(len(ids), contexts_per_sample) int64: each id's distinct bank rows, in pick order."""
        return lane_sample_indices(
            derive_seeds(self.seed, _TAG_CONTEXT_PICK, ids),
            self.context_bank.shape[0],
            self.contexts_per_sample,
        )

    def context_mix(self, picks: np.ndarray) -> np.ndarray:
        """Each row's sum of its picked context bank rows, added in pick order."""
        if not picks.shape[1]:
            return np.zeros((len(picks), self.context_bank.shape[1]))
        mix = self.context_bank[picks[:, 0]]
        for column in picks[:, 1:].T:
            mix += self.context_bank[column]
        return mix

    def lift(self, out: np.ndarray, matrix: np.ndarray, class_ids: np.ndarray, picks: np.ndarray):
        """Add matrix @ latent to each row of out: the latent content of class_ids and picks.

        Each latent, prototype + strength * mix, is built in place in its
        mix, _LIFT_ROWS rows at a time to bound the temporaries. A float sum
        commutes and each row's product is its own (_matvec_rows), so the
        bits depend on neither the order nor the block.
        """
        for start in range(0, len(out), _LIFT_ROWS):
            rows = slice(start, start + _LIFT_ROWS)
            latents = self.context_mix(picks[rows])
            latents *= self.strength
            latents += self.latent_prototypes[class_ids[rows]]
            out[rows] += _matvec_rows(matrix, latents)

    def noisy_lift(self, tag: int, ids: np.ndarray, matrix: np.ndarray, sigma: float,
                   class_ids: np.ndarray, picks: np.ndarray) -> np.ndarray:
        """matrix @ latent + sigma * noise for each of the ids, its noise keyed by (seed, tag, id).

        All the noise is drawn in one lane_normals call and built in place;
        float sums and products commute, so each row has the formula's bits.
        """
        rows = lane_normals(derive_seeds(self.seed, tag, ids), matrix.shape[0])
        rows *= sigma
        self.lift(rows, matrix, class_ids, picks)
        return rows

    def caption_feature(self, ids: np.ndarray, class_ids: np.ndarray, picks: np.ndarray):
        """Caption rows of the entities ids, of classes class_ids, whose context_picks are picks."""
        return self.noisy_lift(_TAG_CAPTION, ids, self.m_txt, self.sigma_txt, class_ids, picks)


def _matvec_rows(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """matrix @ rows[k] for every row k, one output row each.

    Each row stays its own matrix-vector product: numpy's matmul loop runs
    one BLAS gemv per (dim, 1) column of the broadcast operand, the same
    call a per-row `matrix @ row` makes. A single matrix product over all
    rows rounds differently, and the bundle's bytes are fixed by the
    per-row products.
    """
    out = np.empty((len(rows), matrix.shape[0]))
    np.matmul(matrix, rows[:, :, None], out=out[:, :, None])
    return out


def _unit_rows(stream: RandomStream, n: int, dim: int) -> np.ndarray:
    """n unit rows of width dim: the stream's next n * dim normals in row order, normalized."""
    return np.stack([l2_normalize(row) for row in stream.normal_matrix(n, dim)])


def generate_benchmark(cfg: GenConfig) -> BenchmarkBundle:
    """Build the full bundle; identical configs give identical bundles."""
    cfg.validate()
    seed = cfg.seed

    id_classes = list(range(cfg.n_id_classes))
    zsl_classes = list(range(cfg.n_id_classes, cfg.n_id_classes + cfg.n_zsl_classes))
    all_classes = id_classes + zsl_classes

    prototypes = _unit_rows(
        RandomStream(derive_seed(seed, _TAG_PROTO)), len(all_classes), cfg.d_latent
    )
    # First d_latent columns of a random rotation: an exact isometry, so
    # latent geometry survives the lift into each raw space.
    m_img = random_rotation(derive_seed(seed, _TAG_LIFT_IMG), cfg.d_img_raw)[:, : cfg.d_latent]
    m_txt = random_rotation(derive_seed(seed, _TAG_LIFT_TXT), cfg.d_txt_raw)[:, : cfg.d_latent]

    rotations = {
        domain: random_rotation(seed ^ domain, cfg.d_img_raw) for domain in range(1, cfg.n_domains)
    }

    template = _unit_rows(RandomStream(derive_seed(seed, _TAG_TEMPLATE)), 1, cfg.d_txt_raw)[0]
    prompt_rows = _matvec_rows(m_txt, prototypes) + cfg.template_offset_scale * template
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

    # Every entity's features come from streams keyed by its own id, so only
    # the order in which ids are handed out fixes the bundle. A set draws
    # each of its streams in one call: context picks, image noise and, for
    # a caption set, caption noise.
    def entities(class_ids: np.ndarray, domain_ids: np.ndarray, captions: bool):
        nonlocal next_id
        ids = np.arange(next_id, next_id + class_ids.size, dtype=np.int64)
        next_id += ids.size
        picks = provider.context_picks(ids)
        # Images are noisy lifts, as captions are; then the shifted domains
        # are rotated in place. Domain 0's rows are the raw images.
        images = provider.noisy_lift(_TAG_IMG_NOISE, ids, m_img, cfg.sigma_img, class_ids, picks)
        for start in range(0, ids.size, _LIFT_ROWS):
            block = images[start : start + _LIFT_ROWS]
            block_domains = domain_ids[start : start + _LIFT_ROWS]
            for domain, rotation in rotations.items():
                in_domain = block_domains == domain
                block[in_domain] = _matvec_rows(rotation, block[in_domain])
        texts = provider.caption_feature(ids, class_ids, picks) if captions else None
        return ids, images, texts

    def pair_set(class_ids: np.ndarray, domain_ids: np.ndarray) -> PairSet:
        return PairSet(*entities(class_ids, domain_ids, captions=True))

    def sample_set(class_list: Sequence[int], per_class: int, domain: int) -> SampleSet:
        class_ids = np.repeat(class_list, per_class)
        domain_ids = np.full(class_ids.size, domain)
        ids, features, _ = entities(class_ids, domain_ids, captions=False)
        return SampleSet(ids, features, class_ids, domain_ids)

    n_classes, n_domains = len(all_classes), cfg.n_domains
    pretrain_pool = pair_set(
        np.repeat(all_classes, n_domains * cfg.n_pretrain_per_class),
        np.tile(np.repeat(np.arange(n_domains), cfg.n_pretrain_per_class), n_classes),
    )

    finetune_classes = np.repeat(id_classes, cfg.n_finetune_per_class)
    finetune_domains = np.zeros_like(finetune_classes)
    ids, features, caption_rows = entities(finetune_classes, finetune_domains, captions=True)
    finetune = SampleSet(ids, features, finetune_classes, finetune_domains)
    captions = CaptionSet(ids, caption_rows)

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
    candidates = pair_set(candidate_classes, candidate_domains)

    id_test = sample_set(id_classes, cfg.n_test_per_class, 0)
    ds_tests = {
        domain: sample_set(id_classes, cfg.n_test_per_class, domain)
        for domain in range(1, n_domains)
    }
    zsl_test = sample_set(zsl_classes, cfg.n_test_per_class, 0)

    return BenchmarkBundle(
        gen_config=cfg,
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
