"""Release-gating checks: one test per shipped guarantee.

Run with -v for a one-line verdict per guarantee. Covers exact loss
identities, agreement with independent oracles, gradient fidelity against
finite differences, retrieval exactness, ensemble interpolation identities,
bytewise run determinism, the anchored-finetuning effect under the frozen
defaults, per-seed ablation direction, argmax scale invariance, and codec
integrity. Tolerances are pinned here and nowhere else.
"""

import hashlib
import json
import time
from dataclasses import replace

import numpy as np
import pytest

from anchorft.anchors import PairSet, RETRIEVAL_MODES, build_candidate_index, retrieve
from anchorft.benchgen import GenConfig, generate_benchmark
from anchorft.cli import main
from anchorft.contrastive import PairBatch, contrastive_loss
from anchorft.encoders import encode_batch, init_params
from anchorft.evaluation import (
    PromptTable,
    build_prompt_classifier,
    classify,
    ensemble_weights,
    evaluate_splits,
)
from anchorft.fileio import (
    BadMagicError,
    FeatureSet,
    HashMismatchError,
    ManifestRecord,
    read_checkpoint,
    read_feature_set,
    write_checkpoint,
    write_feature_set,
)
from anchorft.numerics import RandomStream, derive_seed, l2_normalize
from anchorft.training import (
    TrainConfig,
    check_gradients,
    compute_total_loss_and_grads,
    finetune_batcher,
    make_checkpoint,
    pretrain,
    run_finetune,
)

TOL_SINGLE_PAIR = 1e-12
TOL_LOSS_ORACLE = 1e-10
FD_STEP = 1e-5
FD_REL_TOL = 1e-4
FD_SKIP_BELOW = 1e-8
TOL_MIDPOINT = 1e-15
ZSL_MARGIN = 5.0
ID_SLACK = 2.0
WINS_REQUIRED = 8

SMALL_GEN = dict(
    n_id_classes=3,
    n_zsl_classes=2,
    n_domains=2,
    d_latent=4,
    d_img_raw=6,
    d_txt_raw=7,
    n_pretrain_per_class=4,
    n_finetune_per_class=3,
    n_test_per_class=2,
    candidate_pool_size=12,
    seed=0,
)
SMALL_TRAIN = dict(batch_size=4, epochs=2, hidden=8, embed_dim=4, seed=0)

# sha256 of every file the SMALL_GEN/SMALL_TRAIN pipeline writes. A change
# that alters artifact bytes on purpose updates these and says so.
GOLDEN_SMALL_PIPELINE = {
    "bench/candidates.image.arfm": "9377ad9b123d8788e4d2715207494d5ce7d73feb97f82b221ced15c5324e8050",
    "bench/candidates.image.manifest.jsonl": "be1406d042c347c8f85d072ec6e44ee40e22d2ca5c33dd85b7e1e35e4d255de6",
    "bench/candidates.text.arfm": "81aba3ff2caf365da8abf75a440f7ce09c583e2a4f5511a2bd9fb0def97e7dd6",
    "bench/candidates.text.manifest.jsonl": "c192ad27751bb80afe6f7199215b8b4ce4cae8d92623e1a63dd13c64427f1be0",
    "bench/captions.arfm": "a58038ffe896784e091ee0dfa5f0d0945b6003015d2cc8c303ac7e5f4206d429",
    "bench/captions.manifest.jsonl": "2c5365cfa4a5f7b4fbe39903719c8a4856e0a6e3f8c2f2c4bdf652baa14b227d",
    "bench/finetune.arfm": "6ba54e7d727408e7dd4a56e0e6ee32cf3df4042d34559e5b64b3692334880bfe",
    "bench/finetune.manifest.jsonl": "2829a202119affb94569421c56cdda830f4b9aa44b9dd985300e4b6e7b2184a4",
    "bench/gen_config.json": "1c1a47c525c4b5248833ba02749512144a6b917b8eba34113adf9ab333a6e46e",
    "bench/pretrain.image.arfm": "0f24128acccdfe117897e36ce89e27a97b1885fda1801b06e40713bbd8381eb1",
    "bench/pretrain.image.manifest.jsonl": "08bcc62f8199077efc19875764e0775f1e6b81f513fa0df354b3e6f3ab7cc2d0",
    "bench/pretrain.text.arfm": "f71b68fc391259224e257fd5831e6c51228a8a80245db32a43787fc0e81412cb",
    "bench/pretrain.text.manifest.jsonl": "6fffbebb0e95fc1f8dea103822dd57d143c38e7e4e528e4629ec764aa592fe71",
    "bench/prompts_id.arfm": "8c70cca24b7ce23426841e7baea8ce3626e46e97a9ce53b631a123ea2d504925",
    "bench/prompts_id.manifest.jsonl": "853fa753faaac3b46bf3e0072d4ecad1ebd387caf41c02072cabf93520ffeddc",
    "bench/prompts_zsl.arfm": "7ed96131339f9a02e18de814c47aca54396682cb015cdf6a7c29a86dc7557a53",
    "bench/prompts_zsl.manifest.jsonl": "a351cebbd3ae7422a739c72eeed6a878c371af719e403fe6df5d3fc3b251174f",
    "bench/test_ds1.arfm": "154ec65e2195cc15b18f3f8c2f9e56ede7f6432e394476fc0fb531b4f05ad3b8",
    "bench/test_ds1.manifest.jsonl": "da54a7c13ee70aa899a1461454f9e7264dc473099d9b6f646c16fbda65b6aae8",
    "bench/test_id.arfm": "1b01d9462ffc5d662fa7d375d7f269ae9772c289bd2144690277654b3c4b1aa2",
    "bench/test_id.manifest.jsonl": "93c9fd55f3e06fb3d48ff871417f8c17f1394d698f719864d89c582787e04da5",
    "bench/test_zsl.arfm": "a51a7758666d44bb986b8dd79d37a6df674a0c458677df9e6856bbd26c147927",
    "bench/test_zsl.manifest.jsonl": "3441181bd424e106662818a76a5dc13093adc9f01c9cf94c1fd4ee3547091fa2",
    "curve.csv": "8a84e27c7b448389583bfd89eb838e91e7629e88c777f79c8e1154489439097d",
    "ft.json": "eb0bd784ca9d3f4d6ba6e56523989414262a37da7f54905da1e2a913708374b9",
    "ft.log.jsonl": "caff07f57b7f8640e35258b3169df80f2c516070f351d08c7afa036db31c4e0d",
    "gen.json": "e23b4302d28950e71de4ffee6857d21a27e64f5e126d435e0906c9d6c529aa55",
    "index/image_embeddings.arfi": "01984c2bd733451bc9cf81cb45d78568ea2cfa9d70686bba96c78d81096086a8",
    "index/meta.json": "4cc40d47d491081cb9f1a980e1a56c9a729cd94a5d1b2eab5c13cb2f3ef0cbcc",
    "index/text_embeddings.arfi": "dff56df08e8067f06dfe83fc9a5622f44cf25ef85f93f640d81483ad5e1b5375",
    "metrics.json": "cf602347fc48ec02f2f038bdd332a9eee784f510ef0ad9df819ae27e2ea7d9b7",
    "pre.json": "df2899f56db62330b728e3682e5b9379807c411a0d6d859f069a9a8696416742",
    "pre.log.jsonl": "31c6499b4f569d9a083a74effdc9536487cb0f60daa4385ff98aebea306a24c6",
    "train.json": "0f77e92899c0b5b06f7597193f8017d27609e543455244c4d538a58777e27e50",
}
# Seed-0 checkpoint ids under the shipped defaults.
GOLDEN_SEED0_PRETRAINED_ID = "f8f633a1c635555bd7f8380d3ef4397ae0f8ed96fe23e0c9b8b000c591f1e771"
GOLDEN_SEED0_ANCHORED_ID = "8aeba7979a620c46c74fcd04066302e6d41909f3ebe902b89fa1ee4560d752b6"


def _ds_mean(metrics) -> float:
    vals = [r.accuracy_percent for r in metrics.splits if r.split_name.startswith("ds")]
    return float(np.mean(vals))


def test_single_pair_loss_is_zero():
    # A batch of one positive pair has nothing to contrast against.
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(100):
        stream = RandomStream(derive_seed(901, i))
        d = 2 + i % 7
        f = l2_normalize(stream.normals(d)).reshape(1, d)
        g = l2_normalize(stream.normals(d)).reshape(1, d)
        tau = float(np.exp(np.clip(stream.normal(), -2.0, 1.5)))
        worst = max(worst, abs(contrastive_loss(PairBatch(f, g), tau).total))
    elapsed = time.perf_counter() - t0
    assert worst <= TOL_SINGLE_PAIR
    assert elapsed < 1.0
    print(f"[PASS] single-pair loss |L| <= {worst:.2e} over 100 pairs in {elapsed:.2f}s")


def test_loss_matches_softmax_cross_entropy_oracle():
    # Oracle: plain log-sum-exp cross entropy on the similarity matrix,
    # written against the public definition rather than the shipped code.
    def oracle(f: np.ndarray, g: np.ndarray, tau: float) -> float:
        logits = f @ g.T / tau

        def direction(m: np.ndarray) -> float:
            lse = np.logaddexp.reduce(m, axis=1)
            return float(np.mean(lse - np.diag(m)))

        return direction(logits) + direction(logits.T)

    t0 = time.perf_counter()
    worst = 0.0
    for i in range(200):
        stream = RandomStream(derive_seed(902, i))
        b = 1 + stream.next_u64() % 16
        d = 2 + stream.next_u64() % 7
        f = np.stack([l2_normalize(stream.normals(d)) for _ in range(b)])
        g = np.stack([l2_normalize(stream.normals(d)) for _ in range(b)])
        tau = float(np.exp(np.clip(stream.normal(), -2.0, 1.5)))
        got = contrastive_loss(PairBatch(f, g), tau).total
        worst = max(worst, abs(got - oracle(f, g, tau)))
    elapsed = time.perf_counter() - t0
    assert worst <= TOL_LOSS_ORACLE
    assert elapsed < 5.0
    print(f"[PASS] loss vs oracle max |diff| {worst:.2e} over 200 instances in {elapsed:.2f}s")


def test_full_objective_gradients_match_finite_differences():
    # Every parameter element of both towers plus log_tau, with all three
    # loss terms engaged through real anchors, against central differences.
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    for seed in range(20):
        gen = GenConfig(
            n_id_classes=4,
            n_zsl_classes=2,
            n_domains=1,
            d_latent=5,
            d_img_raw=6,
            d_txt_raw=7,
            n_pretrain_per_class=1,
            n_finetune_per_class=4,
            n_test_per_class=1,
            candidate_pool_size=10,
            seed=seed,
        )
        bundle = generate_benchmark(gen)
        cfg = TrainConfig(
            batch_size=4,
            hidden=8,
            embed_dim=4,
            seed=seed,
            enabled_losses=("cl", "cap", "ret"),
            retrieval_k=2,
            tau_trainable=True,
        )
        params = init_params(seed, (gen.d_img_raw, gen.d_txt_raw), cfg.hidden, cfg.embed_dim)
        index = build_candidate_index(params, bundle.candidates)
        batch_inputs = finetune_batcher(
            bundle.finetune[:4], bundle.prompts_id, bundle.captions, index, bundle.candidates,
            params, cfg,
        )
        problem = (params, *batch_inputs(np.arange(4)), cfg)

        breakdown, _ = compute_total_loss_and_grads(*problem)
        assert breakdown.l_cap > 0.0 and breakdown.l_ret > 0.0 and not breakdown.skip_ret

        report = check_gradients(
            *problem, eps=FD_STEP, skip_below=FD_SKIP_BELOW, tol=FD_REL_TOL
        )
        worst = max(worst, report.max_rel_err)
        checked += report.n_checked
    elapsed = time.perf_counter() - t0
    assert worst <= FD_REL_TOL
    assert elapsed < 60.0
    print(
        f"[PASS] full-objective gradients: max rel err {worst:.2e} "
        f"over {checked} elements, 20 seeds, in {elapsed:.1f}s"
    )


def test_retrieval_matches_brute_force_oracle():
    # 5000 candidates built from a 500-row codebook, so every embedding
    # appears ten times and exact score ties are everywhere; candidate ids
    # are a shuffled permutation so id order differs from row order.
    t0 = time.perf_counter()
    n_candidates, n_queries, book = 5000, 1000, 500
    stream = RandomStream(derive_seed(904, 0))
    params = init_params(17, (6, 7), 8, 4)
    img_book = stream.normal_matrix(book, 6)
    txt_book = stream.normal_matrix(book, 7)
    ids = stream.permutation(n_candidates)
    rows = np.arange(n_candidates) % book
    candidates = PairSet(ids, img_book[rows], txt_book[rows])
    index = build_candidate_index(params, candidates)
    ids_arr = np.asarray(index.candidate_ids, dtype=np.int64)

    queries_raw = {
        "v": stream.normal_matrix(n_queries, 6),
        "t": stream.normal_matrix(n_queries, 7),
    }

    def oracle_top_k(row: np.ndarray, k: int) -> list[int]:
        row = row.copy()
        out = []
        for _ in range(k):
            tied = np.nonzero(row == row.max())[0]
            pos = tied[np.argmin(ids_arr[tied])]
            out.append(int(ids_arr[pos]))
            row[pos] = -np.inf
        return out

    for mode in RETRIEVAL_MODES:
        raw = queries_raw[mode[0]]
        modality = "image" if mode[0] == "v" else "text"
        side = index.text_embeddings if mode[-1] == "t" else index.image_embeddings
        query_emb, _ = encode_batch(params, modality, raw)
        scores = query_emb @ side.T
        for k in (1, 5):
            hit_ids, hit_scores = retrieve(index, raw, params, mode, k)
            assert hit_ids.shape == hit_scores.shape == (n_queries, k)
            for q in range(n_queries):
                assert hit_ids[q].tolist() == oracle_top_k(scores[q], k)

    # Three candidates with identical features and only ids to tell them
    # apart: the winner must be the smallest id.
    twins = PairSet([42, 7, 99], img_book[[0, 0, 0]], txt_book[[0, 0, 0]])
    twin_index = build_candidate_index(params, twins)
    hit_ids, _ = retrieve(twin_index, queries_raw["v"][:1], params, "v2t", 1)
    assert hit_ids[0, 0] == 7

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(
        f"[PASS] retrieval equals brute-force oracle: {n_queries}x{n_candidates}, "
        f"4 modes, k in (1, 5), in {elapsed:.1f}s"
    )


@pytest.fixture(scope="module")
def small_checkpoints():
    bundle = generate_benchmark(GenConfig(**SMALL_GEN))
    cfg = TrainConfig(**SMALL_TRAIN)
    start, _ = pretrain(bundle.pretrain_pool, cfg)
    index = build_candidate_index(start.params, bundle.candidates)
    ft, _ = run_finetune(
        bundle.finetune, bundle.prompts_id, bundle.captions, index, bundle.candidates, start, cfg
    )
    return start, ft


def test_ensemble_interpolation_identities(small_checkpoints):
    pre, ft = small_checkpoints
    for alpha, reference in ((0.0, pre.params), (1.0, ft.params)):
        assert ensemble_weights(pre, ft, alpha).theta.tobytes() == reference.theta.tobytes()

    mid = ensemble_weights(pre, ft, 0.5)
    worst = float(np.max(np.abs(mid.theta - (pre.params.theta + ft.params.theta) / 2.0)))
    assert worst <= TOL_MIDPOINT
    print(f"[PASS] ensemble endpoints bit-exact; midpoint within {worst:.2e} of the mean")


def _run_pipeline(root) -> None:
    root.mkdir(parents=True, exist_ok=True)
    (root / "gen.json").write_text(json.dumps(SMALL_GEN))
    (root / "train.json").write_text(json.dumps(SMALL_TRAIN))
    steps = [
        ["benchgen", "--out", str(root / "bench"), "--config", str(root / "gen.json")],
        ["pretrain", "--bundle", str(root / "bench"), "--out", str(root / "pre.json"),
         "--config", str(root / "train.json")],
        ["precompute", "--checkpoint", str(root / "pre.json"),
         "--bundle", str(root / "bench"), "--out", str(root / "index")],
        ["train", "--bundle", str(root / "bench"), "--start", str(root / "pre.json"),
         "--index", str(root / "index"), "--out", str(root / "ft.json"),
         "--config", str(root / "train.json")],
        ["eval", "--checkpoint", str(root / "ft.json"), "--bundle", str(root / "bench"),
         "--out", str(root / "metrics.json")],
        ["ensemble", "--pre", str(root / "pre.json"), "--ft", str(root / "ft.json"),
         "--bundle", str(root / "bench"), "--alphas", "0,0.25,0.5,0.75,1",
         "--out", str(root / "curve.csv")],
    ]
    for argv in steps:
        assert main(argv) == 0, argv[0]


def test_identical_runs_are_byte_identical(tmp_path):
    _run_pipeline(tmp_path / "a")
    _run_pipeline(tmp_path / "b")

    def tree(root):
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }

    left, right = tree(tmp_path / "a"), tree(tmp_path / "b")
    assert left.keys() == right.keys()
    for name in left:
        assert left[name] == right[name], f"{name} differs between identical runs"
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in left.items()}
    assert digests.keys() == GOLDEN_SMALL_PIPELINE.keys()
    for name, digest in digests.items():
        assert digest == GOLDEN_SMALL_PIPELINE[name], f"{name} differs from its golden digest"
    print(
        f"[PASS] two identical pipeline runs agree byte for byte on {len(left)} files, "
        f"all matching their golden digests"
    )


@pytest.fixture(scope="module")
def frozen_default_runs():
    """All four loss mixes under the shipped defaults, seeds 0-9."""
    variants = {
        "base": ("cl",),
        "cap": ("cl", "cap"),
        "ret": ("cl", "ret"),
        "anchored": ("cl", "cap", "ret"),
    }
    results = {name: [] for name in variants}
    seed0_ids = {}
    run_seconds = []
    t_total = time.perf_counter()
    for seed in range(10):
        t_shared = time.perf_counter()
        bundle = generate_benchmark(GenConfig(seed=seed))
        start, _ = pretrain(bundle.pretrain_pool, TrainConfig(seed=seed))
        index = build_candidate_index(start.params, bundle.candidates)
        shared = time.perf_counter() - t_shared
        if seed == 0:
            seed0_ids["pretrained"] = start.id
        for name, losses in variants.items():
            t_run = time.perf_counter()
            cfg = replace(TrainConfig(seed=seed), enabled_losses=losses)
            ckpt, _ = run_finetune(
                bundle.finetune, bundle.prompts_id, bundle.captions,
                index, bundle.candidates, start, cfg,
            )
            if seed == 0:
                seed0_ids[name] = ckpt.id
            metrics = evaluate_splits(ckpt.params, bundle)
            results[name].append(
                (metrics.accuracy("id"), _ds_mean(metrics), metrics.accuracy("zsl"))
            )
            run_seconds.append(shared + time.perf_counter() - t_run)
    return results, run_seconds, time.perf_counter() - t_total, seed0_ids


def test_anchored_finetune_preserves_transfer_under_frozen_defaults(frozen_default_runs):
    results, run_seconds, total, _ = frozen_default_runs
    base = np.mean(results["base"], axis=0)
    anchored = np.mean(results["anchored"], axis=0)
    id_gap = anchored[0] - base[0]
    ds_gap = anchored[1] - base[1]
    zsl_gap = anchored[2] - base[2]
    assert zsl_gap >= ZSL_MARGIN, f"mean ZSL gap {zsl_gap:+.2f} under {ZSL_MARGIN}"
    assert id_gap >= -ID_SLACK, f"mean ID gap {id_gap:+.2f} under -{ID_SLACK}"
    assert ds_gap >= 0.0, f"mean DS gap {ds_gap:+.2f} negative"
    assert max(run_seconds) <= 30.0
    assert total <= 600.0
    print(
        f"[PASS] anchored vs baseline means over 10 seeds: "
        f"ZSL {zsl_gap:+.1f} (>= +{ZSL_MARGIN}), ID {id_gap:+.1f} (>= -{ID_SLACK}), "
        f"DS {ds_gap:+.1f} (>= 0); worst run {max(run_seconds):.1f}s, total {total:.0f}s"
    )


def test_each_anchor_alone_beats_baseline_zsl_per_seed(frozen_default_runs):
    results, _, _, _ = frozen_default_runs
    wins = {}
    for name in ("cap", "ret"):
        wins[name] = sum(
            1 for v, b in zip(results[name], results["base"]) if v[2] > b[2]
        )
        assert wins[name] >= WINS_REQUIRED, f"{name} beats baseline ZSL in only {wins[name]}/10"
    print(
        f"[PASS] per-seed ZSL wins over baseline: captions {wins['cap']}/10, "
        f"retrieval {wins['ret']}/10 (need >= {WINS_REQUIRED})"
    )


def test_seed0_default_checkpoints_match_golden_ids(frozen_default_runs):
    _, _, _, seed0_ids = frozen_default_runs
    assert seed0_ids["pretrained"] == GOLDEN_SEED0_PRETRAINED_ID
    assert seed0_ids["anchored"] == GOLDEN_SEED0_ANCHORED_ID
    print("[PASS] seed-0 pretrained and anchored checkpoint ids match their golden values")


def test_classification_invariant_under_positive_score_scaling():
    count = 0
    for i in range(100):
        stream = RandomStream(derive_seed(909, i))
        d_img = 5 + i % 4
        n_classes = 3 + i % 10
        params = init_params(derive_seed(909, i, 1), (d_img, 6), 8, 4)
        ids = stream.permutation(64)[:n_classes]
        prompts = PromptTable(ids, stream.normal_matrix(n_classes, 6))
        classifier = build_prompt_classifier(params, prompts)
        images = stream.normal_matrix(7, d_img)
        scale = float(np.exp(np.clip(3.0 * stream.normal(), -7.0, 7.0)))
        before = classify(params, images, classifier, ids)
        after = classify(params, images, scale * classifier, ids)
        assert np.array_equal(before, after)
        count += 1
    print(f"[PASS] predictions unchanged under positive score scaling on {count} sets")


def test_codecs_round_trip_and_reject_corruption(tmp_path):
    stream = RandomStream(derive_seed(910, 0))
    records = [
        ManifestRecord(id=50 + i, kind="image", class_id=i % 3, domain_id=i % 2)
        for i in range(6)
    ]
    matrix = stream.normal_matrix(6, 5)
    write_feature_set(tmp_path / "fs", FeatureSet(records=records, matrix=matrix))
    loaded = read_feature_set(tmp_path / "fs")
    stored = matrix.astype(np.float32).astype(np.float64)
    assert loaded.matrix.tobytes() == stored.tobytes()
    assert loaded.records == records

    payload = (tmp_path / "fs.arfm").read_bytes()
    (tmp_path / "fs.arfm").write_bytes(b"XXXX" + payload[4:])
    with pytest.raises(BadMagicError):
        read_feature_set(tmp_path / "fs")

    params = init_params(3, (6, 7), 8, 4)
    ckpt = make_checkpoint(params, TrainConfig(**SMALL_TRAIN), "pretrained")
    write_checkpoint(tmp_path / "ckpt.json", ckpt)
    reread = read_checkpoint(tmp_path / "ckpt.json")
    assert reread.params.theta.tobytes() == ckpt.params.theta.tobytes()
    assert reread.id == ckpt.id

    doc = json.loads((tmp_path / "ckpt.json").read_text())
    doc["image"]["w1"][0][0] += 1.0
    (tmp_path / "ckpt.json").write_text(json.dumps(doc))
    with pytest.raises(HashMismatchError):
        read_checkpoint(tmp_path / "ckpt.json")
    print("[PASS] codecs round trip bit-exactly and reject corrupted magic and hash")
