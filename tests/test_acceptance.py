"""Release-gating checks: one test per shipped guarantee.

Run with -v for a one-line verdict per guarantee. Covers exact loss
identities, agreement with independent oracles, gradient fidelity against
finite differences, retrieval exactness, ensemble interpolation identities,
bytewise run determinism, the anchored-finetuning effect under the frozen
defaults, per-seed ablation direction, argmax scale invariance, and codec
integrity. Tolerances are pinned here and nowhere else.
"""

import ctypes
import hashlib
import json
import platform
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from anchorft import benchgen, cli, numerics
from anchorft.anchors import (
    PairSet,
    PromptTable,
    RETRIEVAL_MODES,
    SampleSet,
    build_candidate_index,
    retrieve,
)
from anchorft.benchgen import GenConfig, generate_benchmark
from anchorft.cli import main
from anchorft.contrastive import PairBatch, contrastive_loss_and_grads
from anchorft.encoders import encode_batch, init_params
from anchorft.evaluation import (
    build_prompt_classifier,
    classify,
    ensemble_weights,
    evaluate_splits,
)
from anchorft.fileio import (
    BadMagicError,
    HashMismatchError,
    read_checkpoint,
    read_feature_set,
    write_bundle,
    write_checkpoint,
    write_feature_set,
)
from anchorft.numerics import RandomStream, derive_seed, l2_normalize
from anchorft.training import (
    TrainConfig,
    check_gradients,
    compute_total_loss_and_grads,
    make_checkpoint,
    pretrain,
    run_finetune,
)
from test_fileio import checkpoint_theta, rewrite_theta

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

# Every golden below was pinned with numpy 2.4.6, glibc 2.36 and OpenBLAS
# 0.3.31 on its SkylakeX core. Another BLAS kernel may sum in another order
# and round differently, so a failing golden names the host it ran on.

# sha256 of every file the SMALL_GEN/SMALL_TRAIN pipeline writes. A change
# that alters artifact bytes on purpose updates these and says so.
GOLDEN_SMALL_PIPELINE = {
    "bench/candidates.arft": "45a8d94e1927cf068d477cdc0babba38742a3afbde7b44020fcf6772e130478d",
    "bench/captions.arft": "02408f7036549ea527564f0ce148139121f3ec9020ce1136b3a3c4cf424e801d",
    "bench/finetune.arft": "72aa8b20bb3a4639acdbdb110fa5b3a5c9311febf560696b8b9bd8615c2f48f7",
    "bench/gen_config.json": "1c1a47c525c4b5248833ba02749512144a6b917b8eba34113adf9ab333a6e46e",
    "bench/pretrain.arft": "5879ce968f4f3840f66003bc20d7f90bc58330fc800d6652dc0ebc5e51a9de78",
    "bench/prompts_id.arft": "0d6363c39fc798c965ffad05cccb289c3f80dea28d77ea2923b4fc9bac883afc",
    "bench/prompts_zsl.arft": "120f516ba53523dbd1ad1a3476d7160ed560a173e405901a07ea7564b5ed4d71",
    "bench/test_ds1.arft": "ac2c7f5dba14ee7751430c96e2b42ab9943658433d6c5b6195b83f23a5f575d9",
    "bench/test_id.arft": "2333408b7e493e475a36061f03e30a3020e23cdda4801a5d4d420b6f7615789c",
    "bench/test_zsl.arft": "d3613e85340b30f823da67898f93d9104dfebb7edde6faae6935a184fab5171f",
    "curve.csv": "8a84e27c7b448389583bfd89eb838e91e7629e88c777f79c8e1154489439097d",
    "ft.json": "6d01021146ea574c4c5c10416afff67f811ae7d95e2c2ec10c56c867fb8c8e92",
    "ft.log.jsonl": "caff07f57b7f8640e35258b3169df80f2c516070f351d08c7afa036db31c4e0d",
    "gen.json": "e23b4302d28950e71de4ffee6857d21a27e64f5e126d435e0906c9d6c529aa55",
    "index/embeddings.arft": "bf67a356aeacf09f8067428f95f33dfa286634a2ff8dc920890afe8286314104",
    "index/meta.json": "ee640f19142e073fe8e5ff7ec978f0d90f0f6d28e047974084ff9954cfb9467e",
    "metrics.json": "cf602347fc48ec02f2f038bdd332a9eee784f510ef0ad9df819ae27e2ea7d9b7",
    "pre.json": "31b2179f86461e0f4c2ed4aa2e70ea9167dd402f194008c2a10b9f6f826488d4",
    "pre.log.jsonl": "31c6499b4f569d9a083a74effdc9536487cb0f60daa4385ff98aebea306a24c6",
    "train.json": "0f77e92899c0b5b06f7597193f8017d27609e543455244c4d538a58777e27e50",
}
# Seed-0 checkpoint ids under the shipped defaults.
GOLDEN_SEED0_PRETRAINED_ID = "f8f633a1c635555bd7f8380d3ef4397ae0f8ed96fe23e0c9b8b000c591f1e771"
GOLDEN_SEED0_ANCHORED_ID = "8aeba7979a620c46c74fcd04066302e6d41909f3ebe902b89fa1ee4560d752b6"
# The seed-0 default bundle: every file write_bundle writes, plus "float64"
# over the in-memory columns (see _bundle_digests).
GOLDEN_SEED0_BUNDLE = {
    "candidates.arft": "330fbfaee7148b80745fcfe7b7e6bf307dc31acee256e07d1c6fe4579608ca6b",
    "captions.arft": "3754530676a0f5029eed597de7dd38df785be1d082530f51959d850158d95556",
    "finetune.arft": "a9b3366d9ae39bb954c8b433a8493c4f35d470b90401636dfffdb74d39907cc4",
    "gen_config.json": "6544f6bb1610fe213d9e5c50dfb6b1c1dd98b3f383afb528351d85dbb2e32f38",
    "pretrain.arft": "8f893ada69fedce8ae568fdb0e0e4bc9d6267f667594a6ef73f7c65f07b7ba55",
    "prompts_id.arft": "b08d925ae74e9314b6f9991ce6394474cfd8590c40b00fbe2486d63cfd73845c",
    "prompts_zsl.arft": "2a130ba3885cadc036ce096386a2cfeafba2c84091546a9a90459e68ae3925aa",
    "test_ds1.arft": "581400c509c7bfcfa557e18860668cef789d32cb0b1baf4fa5e98db752ff0796",
    "test_ds2.arft": "0c9aeba9b38cb328518e40bfdf9f4bb50dcafabb72ac1cea402c2a6ee666420a",
    "test_id.arft": "a6c68195c389107cd1a8a22ddcc94755e2c849dce50f898f2b6ddc1ba6f08e33",
    "test_zsl.arft": "1c5cd47370d66bb998b293aece67b9afa09c70fd0029e850371151cdaacf32bd",
    "float64": "714c91e8931f67d9392f35beebd49b091d9cdd5e0443e43ed00da8ce5075d7e0",
}
# Step variants finetuned from the SMALL_GEN/SMALL_TRAIN pretrained
# checkpoint: the TrainConfig changes of each, and its (checkpoint id,
# sha256 of the JSON-lines step log). The default anchored run is pinned by
# ft.json and ft.log.jsonl above.
SMALL_VARIANTS = {
    "cl": {"enabled_losses": ("cl",)},
    "cl_cap": {"enabled_losses": ("cl", "cap")},
    "cap": {"enabled_losses": ("cap",)},
    "ret": {"enabled_losses": ("ret",)},
    "merge": {"anchor_layout": "merge"},
    "k2": {"retrieval_k": 2},
    "v2v": {"retrieval_mode": "v2v"},
    "t2t": {"retrieval_mode": "t2t"},
    "t2v": {"retrieval_mode": "t2v"},
    "tau_trainable": {"tau_trainable": True},
}
GOLDEN_SMALL_VARIANTS = {
    "cl": (
        "b817874e85f7f575fecb96f2accedfc5624997785266cb33d6d9cc1344646e71",
        "53d1cbd22895d3d3c85c96d4a65d95bdbb596d5d1fb6a3872ca3cd3b2a858353",
    ),
    "cl_cap": (
        "fa85d9a899305adc3adf2ec405d9af0292a962a105ef8f9a404c75faa102a5cf",
        "cb6788084e477c011b3617c25503644c8cd88dc21a28c3a0b087056530108375",
    ),
    "cap": (
        "82b2380511863186fe28b535e64f35c1d1deba82e2933e7b9d556a3da77a498e",
        "6e9f4193854de2f6c7f5d1c7f69678699f541c89f7c294e25d3e7a43d8fa5ce1",
    ),
    "ret": (
        "c908560272c7c048d27e6b8d3a2f2322af198d9287a2087b6b2033e618b3ef34",
        "a3c75baa158414c03f541888938e5863809785c513025631023d5d88324d1226",
    ),
    "merge": (
        "4b90b4b9425c179aaa1dd326d9bf2b8032b3051360b890a4717d1da0f0d7db3f",
        "37cbc06e7aa65c02dd0ea1cf3bd16532626f22c2402c32ca9f50b6e25685c2e5",
    ),
    "k2": (
        "2092c1d90eaf8e9472f8f284661db8b4e65d45777466e4d555999f170c7ebf35",
        "a95bea2d8a6ca93236c6b6870616da7b8a67c26d691c6781cb02b3129122dc3a",
    ),
    "v2v": (
        "f5108d704ea0a3fdbce919e868c79bb56eb26ac91c5eaa9786a566464f2ca52d",
        "b2b4ed88b67ee7fa27a31b0430631dad75d8009c70f70e839334b3f624097c28",
    ),
    "t2t": (
        "0b66ae8ba75cb277886b291dc37f78d3adfbd5ea789e06f34868de2e2ca5f19a",
        "e46d868c09b7393f0795d65cbe8d4d5a31784cd7b07a0871cf93ef497befb850",
    ),
    "t2v": (
        "2ce00f091ace2a032455d9af29bb07c2754d8566cfccca4815508b37ebce4df1",
        "52528bef73c973a1d6c65828fd8f592fdcafc2582113d19883931b0af203106a",
    ),
    "tau_trainable": (
        "87ba833d4cbee9b2b8f52bda5b8f1da295f14fd2146f22b43ddb49a4b245764f",
        "dcea8fcdbbbc71184f2de4759653eaee84c684cce0cf4ad4492df5e9b124ff58",
    ),
}
# SMALL_GEN with d_img_raw=9, by contexts_per_sample: (digest of the
# _bundle_digests dict, its "float64" entry).
GOLDEN_SMALL_BUNDLES = {
    0: (
        "7323622ba1191342d53b3f3b3e8559b450f310755a177a2b1f3a0783e5eab9e4",
        "f6a12eb31f24bfcc6be99639433b08d752596cd4189cbd7c0dd04522ef414828",
    ),
    3: (
        "b9d59182e48dca73d6ed2a2d905137697033bdd8c8b0a4665fab43c99cd4903a",
        "67d7f632745ef417c618648d8d8472410a86e41e7d40a7f600bab9e2ed857381",
    ),
}


def host_versions() -> str:
    """The numpy version, libc version and OpenBLAS core this process runs on."""
    libc = " ".join(platform.libc_ver()).strip() or "libc unknown"
    return f"numpy {np.__version__}, {libc}, OpenBLAS core {_openblas_core()}"


def _openblas_core() -> str:
    """The kernel family numpy's bundled OpenBLAS picked, or "unknown" without one."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes = []
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def _bundle_digests(bundle, root) -> dict[str, str]:
    """sha256 of every file write_bundle writes, plus "float64" over the columns in memory.

    The feature files store float32, so "float64" is what pins the
    generator's own output bit for bit.
    """
    write_bundle(root, bundle)
    digests = {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }
    columns = hashlib.sha256()
    splits = [bundle.pretrain_pool, bundle.finetune, bundle.candidates, bundle.id_test,
              *(bundle.ds_tests[d] for d in sorted(bundle.ds_tests)), bundle.zsl_test]
    for split in splits:
        for f in fields(split):
            columns.update(getattr(split, f.name).tobytes())
    for record in bundle.captions:
        columns.update(record.caption_feature.tobytes())
    for table in (bundle.prompts_id, bundle.prompts_zsl):
        columns.update(table.prompt_features.tobytes())
    digests["float64"] = columns.hexdigest()
    return digests


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
        loss = contrastive_loss_and_grads(PairBatch(f, g), tau, log_tau_grad=False)[0]
        worst = max(worst, abs(loss.total))
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
        got = contrastive_loss_and_grads(PairBatch(f, g), tau, log_tau_grad=False)[0].total
        worst = max(worst, abs(got - oracle(f, g, tau)))
    elapsed = time.perf_counter() - t0
    assert worst <= TOL_LOSS_ORACLE
    assert elapsed < 5.0
    print(f"[PASS] loss vs oracle max |diff| {worst:.2e} over 200 instances in {elapsed:.2f}s")


def test_full_objective_gradients_match_finite_differences():
    # Every parameter element of both towers plus log_tau, with all three
    # loss terms engaged through real anchors, against central differences:
    # the step `anchorft gradcheck` checks, at seeds 0-19.
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    for seed in range(20):
        problem = cli._gradcheck_problem(seed)
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
def small_start():
    """The SMALL_GEN bundle, its SMALL_TRAIN pretrained checkpoint and the index."""
    bundle = generate_benchmark(GenConfig(**SMALL_GEN))
    start, _ = pretrain(bundle.pretrain_pool, TrainConfig(**SMALL_TRAIN))
    return bundle, start, build_candidate_index(start.params, bundle.candidates)


def _small_finetune(small_start, **changes):
    bundle, start, index = small_start
    return run_finetune(
        bundle.finetune, bundle.prompts_id, bundle.captions, index, bundle.candidates, start,
        replace(TrainConfig(**SMALL_TRAIN), **changes),
    )


@pytest.fixture(scope="module")
def small_checkpoints(small_start):
    ft, _ = _small_finetune(small_start)
    return small_start[1], ft


def test_ensemble_interpolation_identities(small_checkpoints):
    pre, ft = small_checkpoints
    for alpha, reference in ((0.0, pre.params), (1.0, ft.params)):
        assert ensemble_weights(pre, ft, alpha).theta.tobytes() == reference.theta.tobytes()

    mid = ensemble_weights(pre, ft, 0.5)
    worst = float(np.max(np.abs(mid.theta - (pre.params.theta + ft.params.theta) / 2.0)))
    assert worst <= TOL_MIDPOINT
    print(f"[PASS] ensemble endpoints bit-exact; midpoint within {worst:.2e} of the mean")


@pytest.mark.parametrize("variant", sorted(SMALL_VARIANTS))
def test_small_finetune_variants_match_golden_ids(small_start, variant):
    ckpt, log = _small_finetune(small_start, **SMALL_VARIANTS[variant])
    log_digest = hashlib.sha256("".join(json.dumps(r) + "\n" for r in log).encode()).hexdigest()
    assert (ckpt.id, log_digest) == GOLDEN_SMALL_VARIANTS[variant], host_versions()
    print(f"[PASS] the {variant} finetune matches its golden checkpoint id and step log")


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
        assert digest == GOLDEN_SMALL_PIPELINE[name], (
            f"{name} differs from its golden digest on {host_versions()}"
        )
    print(
        f"[PASS] two identical pipeline runs agree byte for byte on {len(left)} files, "
        f"all matching their golden digests"
    )


@pytest.mark.parametrize("contexts", [0, 3])
def test_small_bundles_match_golden_digests(contexts, tmp_path):
    # No context pick and a sum of three picks, with an odd image width so
    # every image stream ends on half a Box-Muller pair.
    config = GenConfig(**{**SMALL_GEN, "contexts_per_sample": contexts, "d_img_raw": 9})
    digests = _bundle_digests(generate_benchmark(config), tmp_path)
    files = hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()
    assert (files, digests["float64"]) == GOLDEN_SMALL_BUNDLES[contexts], (
        f"{digests} on {host_versions()}"
    )
    print(f"[PASS] small bundle with {contexts} context picks matches its golden digests")


@pytest.mark.parametrize("block", sorted({1, 7, 256, numerics.LANE_BLOCK}))
def test_small_bundle_digests_do_not_depend_on_the_lane_block(block, tmp_path, monkeypatch):
    # Lanes are independent streams and each entity's products are its own,
    # so how many streams are stepped, or rows lifted, at once cannot change
    # a byte.
    monkeypatch.setattr(numerics, "LANE_BLOCK", block)
    monkeypatch.setattr(benchgen, "_LIFT_ROWS", block)
    config = GenConfig(**{**SMALL_GEN, "contexts_per_sample": 3, "d_img_raw": 9})
    digests = _bundle_digests(generate_benchmark(config), tmp_path)
    files = hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()
    assert (files, digests["float64"]) == GOLDEN_SMALL_BUNDLES[3], (
        f"block {block} on {host_versions()}"
    )
    print(f"[PASS] small bundle built in blocks of {block} matches its golden digests")


@pytest.fixture(scope="module")
def frozen_default_runs(tmp_path_factory):
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
            seed0_ids["bundle"] = _bundle_digests(bundle, tmp_path_factory.mktemp("seed0"))
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
    assert seed0_ids["pretrained"] == GOLDEN_SEED0_PRETRAINED_ID, host_versions()
    assert seed0_ids["anchored"] == GOLDEN_SEED0_ANCHORED_ID, host_versions()
    print("[PASS] seed-0 pretrained and anchored checkpoint ids match their golden values")


def test_seed0_default_bundle_matches_golden_digests(frozen_default_runs):
    _, _, _, seed0_ids = frozen_default_runs
    assert seed0_ids["bundle"] == GOLDEN_SEED0_BUNDLE, host_versions()
    print(f"[PASS] seed-0 default bundle matches its {len(GOLDEN_SEED0_BUNDLE)} golden digests")


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
    rows = np.arange(6)
    samples = SampleSet(50 + rows, stream.normal_matrix(6, 5), rows % 3, rows % 2)
    write_feature_set(tmp_path / "t.arft", "samples", samples)
    loaded = read_feature_set(tmp_path / "t.arft", "samples", {"features": 5})
    stored = samples.features.astype(np.float32).astype(np.float64)
    assert loaded.features.tobytes() == stored.tobytes()
    assert all(
        np.array_equal(getattr(loaded, name), getattr(samples, name))
        for name in ("ids", "class_ids", "domain_ids")
    )

    payload = (tmp_path / "t.arft").read_bytes()
    (tmp_path / "t.arft").write_bytes(b"XXXX" + payload[4:])
    with pytest.raises(BadMagicError):
        read_feature_set(tmp_path / "t.arft", "samples", {"features": 5})

    params = init_params(3, (6, 7), 8, 4)
    ckpt = make_checkpoint(params, TrainConfig(**SMALL_TRAIN), "pretrained")
    write_checkpoint(tmp_path / "ckpt.json", ckpt)
    reread = read_checkpoint(tmp_path / "ckpt.json")
    assert reread.params.theta.tobytes() == ckpt.params.theta.tobytes()
    assert reread.id == ckpt.id

    theta = checkpoint_theta(tmp_path / "ckpt.json")
    theta[0] += 1.0
    rewrite_theta(tmp_path / "ckpt.json", theta)
    with pytest.raises(HashMismatchError):
        read_checkpoint(tmp_path / "ckpt.json")
    print("[PASS] codecs round trip bit-exactly and reject corrupted magic and hash")
