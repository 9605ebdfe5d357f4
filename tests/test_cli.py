"""End-to-end pipeline runs, exit codes, and flag resolution."""

import contextlib
import io
import json
import shutil
import struct
from dataclasses import fields
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorft import cli
from anchorft.benchgen import GenConfig
from anchorft.cli import _config, build_parser, main
from anchorft.fileio import CodecError, load_bundle, parse_train_config, read_checkpoint
from anchorft.training import CheckReport, TrainConfig

GEN = {
    "n_id_classes": 3,
    "n_zsl_classes": 2,
    "n_domains": 2,
    "d_latent": 4,
    "d_img_raw": 6,
    "d_txt_raw": 7,
    "n_pretrain_per_class": 4,
    "n_finetune_per_class": 3,
    "n_test_per_class": 2,
    "candidate_pool_size": 12,
    "seed": 0,
}
TRAIN = {"batch_size": 4, "epochs": 1, "hidden": 8, "embed_dim": 4, "seed": 0}


def run_pipeline(root, gen=GEN):
    """benchgen through ensemble under one directory; returns its path."""
    root.mkdir(parents=True, exist_ok=True)
    (root / "gen.json").write_text(json.dumps(gen))
    (root / "train.json").write_text(json.dumps(TRAIN))
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
         "--bundle", str(root / "bench"), "--alphas", "0,0.5,1",
         "--out", str(root / "curve.csv")],
    ]
    for argv in steps:
        assert main(argv) == 0, argv[0]
    return root


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    return run_pipeline(tmp_path_factory.mktemp("run") / "a")


class TestPipeline:
    def test_artifacts_exist(self, pipeline):
        for name in ("pre.json", "pre.log.jsonl", "ft.json", "ft.log.jsonl",
                     "metrics.json", "curve.csv"):
            assert (pipeline / name).exists()
        assert (pipeline / "index" / "meta.json").exists()

    def test_rerun_is_byte_identical(self, pipeline, tmp_path):
        other = run_pipeline(tmp_path / "b")
        for name in ("pre.json", "pre.log.jsonl", "ft.json", "ft.log.jsonl",
                     "metrics.json", "curve.csv"):
            assert (pipeline / name).read_bytes() == (other / name).read_bytes(), name

    def test_eval_split_selection(self, pipeline, capsys):
        assert main(["eval", "--checkpoint", str(pipeline / "ft.json"),
                     "--bundle", str(pipeline / "bench"), "--splits", "id"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("id:")
        assert "zsl" not in out

    def test_train_without_index_when_ret_disabled(self, pipeline, tmp_path):
        assert main(["train", "--bundle", str(pipeline / "bench"),
                     "--start", str(pipeline / "pre.json"),
                     "--out", str(tmp_path / "ft2.json"),
                     "--config", str(pipeline / "train.json"),
                     "--losses", "cl,cap"]) == 0

    def test_one_domain_bundle_runs_every_stage(self, tmp_path, capsys):
        # No domain-shift split exists, so eval and ensemble default to id and zsl.
        root = run_pipeline(tmp_path / "one", gen={**GEN, "n_domains": 1})
        metrics = json.loads((root / "metrics.json").read_text())
        assert [row["split"] for row in metrics["splits"]] == ["id", "zsl"]
        assert (root / "curve.csv").read_text().splitlines()[0] == "alpha,id,zsl,avg_ood"
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(root / "ft.json"),
                     "--bundle", str(root / "bench"), "--splits", "ds"]) == 1
        assert "no domain-shift splits in this bundle" in capsys.readouterr().err

    def test_empty_split_and_alpha_lists(self, pipeline, tmp_path, capsys):
        bundle = ["--bundle", str(pipeline / "bench")]
        for splits in (",", ""):
            assert main(["eval", "--checkpoint", str(pipeline / "ft.json"), *bundle,
                         "--splits", splits, "--out", str(tmp_path / "m.json")]) == 1
            assert "need at least one split" in capsys.readouterr().err
            assert not (tmp_path / "m.json").exists()
        assert main(["ensemble", "--pre", str(pipeline / "pre.json"),
                     "--ft", str(pipeline / "ft.json"), *bundle, "--alphas", ",",
                     "--out", str(tmp_path / "c.csv")]) == 1
        assert "need at least one alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,losses", [
        (["--losses", ""], None), (["--losses", ","], None), ([], {"enabled_losses": []}),
    ])
    def test_empty_loss_set_exits_one(self, pipeline, tmp_path, capsys, flags, losses):
        (tmp_path / "train.json").write_text(json.dumps({**TRAIN, **(losses or {})}))
        argv = stage_argvs(pipeline, pipeline / "bench", tmp_path)["train"]
        argv[argv.index("--config") + 1] = str(tmp_path / "train.json")
        assert main([*argv, *flags]) == 1
        assert "enabled_losses must name at least one term" in capsys.readouterr().err
        assert not (tmp_path / "ft.json").exists()

    def test_tampered_checkpoint_fails_validation(self, pipeline, tmp_path, capsys):
        doc = json.loads((pipeline / "pre.json").read_text())
        doc["theta"][0] += 1.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["precompute", "--checkpoint", str(bad),
                     "--bundle", str(pipeline / "bench"),
                     "--out", str(tmp_path / "idx")]) == 1
        assert "error" in capsys.readouterr().err

    def test_report_md_and_csv(self, pipeline, capsys):
        args = ["report", "--metrics", f"ft={pipeline / 'metrics.json'}",
                "--curve", str(pipeline / "curve.csv")]
        assert main(args) == 0
        md = capsys.readouterr().out
        assert md.splitlines()[0].startswith("| run |")
        assert "best alpha by id accuracy" in md
        assert main(args + ["--format", "csv"]) == 0
        csv_text = capsys.readouterr().out
        assert csv_text.splitlines()[0].startswith("run,")

    def test_report_to_file(self, pipeline, tmp_path):
        out = tmp_path / "report.md"
        assert main(["report", "--metrics", f"ft={pipeline / 'metrics.json'}",
                     "--out", str(out)]) == 0
        assert out.read_text().startswith("| run |")


def flip_first_byte(path):
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0x01
    path.write_bytes(bytes(raw))


def edited_copy(source, directory, edit, byte, data):
    """A copy of source in directory with one byte flipped (xor byte), deleted or inserted."""
    raw = bytearray(source.read_bytes())
    at = data.draw(st.integers(0, len(raw) - (edit != "insert")), label="at")
    if edit == "flip":
        raw[at] ^= byte
    elif edit == "delete":
        del raw[at]
    else:
        raw.insert(at, byte)
    path = directory / source.name
    path.write_bytes(bytes(raw))
    return path


def stage_argvs(pipeline, bench, out) -> dict[str, list[str]]:
    """The five bundle-reading stages of run_pipeline on `bench`, writing under `out`.

    Every stage but pretrain starts from the pipeline's own checkpoints and index.
    """
    argvs = {
        "pretrain": ["pretrain", "--bundle", bench, "--out", out / "pre.json",
                     "--config", pipeline / "train.json"],
        "precompute": ["precompute", "--checkpoint", pipeline / "pre.json", "--bundle", bench,
                       "--out", out / "index"],
        "train": ["train", "--bundle", bench, "--start", pipeline / "pre.json",
                  "--index", pipeline / "index", "--out", out / "ft.json",
                  "--config", pipeline / "train.json"],
        "eval": ["eval", "--checkpoint", pipeline / "ft.json", "--bundle", bench,
                 "--out", out / "metrics.json"],
        "ensemble": ["ensemble", "--pre", pipeline / "pre.json", "--ft", pipeline / "ft.json",
                     "--bundle", bench, "--alphas", "0,0.5,1", "--out", out / "curve.csv"],
    }
    return {stage: [str(a) for a in argv] for stage, argv in argvs.items()}


class TestPerStageReads:
    @pytest.fixture
    def bench(self, pipeline, tmp_path):
        return shutil.copytree(pipeline / "bench", tmp_path / "bench")

    def test_only_pretrain_reads_the_pretraining_pool(self, pipeline, bench, tmp_path, capsys):
        table = bench / "pretrain.arft"
        flip_first_byte(table)
        out = tmp_path / "out"
        out.mkdir()
        argvs = stage_argvs(pipeline, bench, out)
        for stage in ("precompute", "train", "eval", "ensemble"):
            assert main(argvs[stage]) == 0, stage
        outputs = ["ft.json", "ft.log.jsonl", "metrics.json", "curve.csv"]
        outputs += [f"index/{p.name}" for p in (pipeline / "index").iterdir()]
        for name in outputs:
            assert (out / name).read_bytes() == (pipeline / name).read_bytes(), name
        capsys.readouterr()
        assert main(argvs["pretrain"]) == 1
        assert f"{table}: magic" in capsys.readouterr().err
        with pytest.raises(CodecError):
            load_bundle(bench)

    def test_missing_file_rejected_by_every_stage_at_open(
        self, pipeline, bench, tmp_path, monkeypatch, capsys
    ):
        def no_step(*args, **kwargs):
            raise AssertionError("a stage started work on an incomplete bundle")

        for name in ("pretrain", "build_candidate_index", "run_finetune", "evaluate_splits",
                     "ensemble_sweep"):
            monkeypatch.setattr(cli, name, no_step)
        names = sorted(p.name for p in bench.iterdir())
        assert len(names) == 10
        for name in names:
            partial = shutil.copytree(bench, tmp_path / "partial")
            (partial / name).unlink()
            for stage, argv in stage_argvs(pipeline, partial, tmp_path / "out").items():
                assert main(argv) == 1, (name, stage)
                assert str(partial / name) in capsys.readouterr().err, (name, stage)
            assert not (tmp_path / "out").exists()
            shutil.rmtree(partial)

    def test_eval_id_split_reads_only_its_files(self, pipeline, bench, capsys):
        flip_first_byte(bench / "test_zsl.arft")
        argv = ["eval", "--checkpoint", str(pipeline / "ft.json"), "--bundle", str(bench)]
        assert main(argv + ["--splits", "id"]) == 0
        assert capsys.readouterr().out.startswith("id:")
        assert main(argv) == 1
        assert f"{bench / 'test_zsl.arft'}: magic" in capsys.readouterr().err

    def test_cl_baseline_does_not_read_the_candidate_pool(self, pipeline, bench, tmp_path, capsys):
        flip_first_byte(bench / "candidates.arft")
        argv = stage_argvs(pipeline, bench, tmp_path)["train"]
        assert main(argv + ["--losses", "cl"]) == 0
        capsys.readouterr()
        assert main(argv) == 1
        assert f"{bench / 'candidates.arft'}: magic" in capsys.readouterr().err

    @settings(max_examples=100, deadline=None)
    @given(
        stem=st.sampled_from(["test_id", "test_ds1", "test_zsl", "prompts_id", "prompts_zsl",
                              "candidates"]),
        edit=st.sampled_from(["flip", "delete", "insert"]),
        byte=st.integers(1, 255),
        data=st.data(),
    )
    def test_one_byte_edit_of_a_bundle_file_exits_zero_or_one(
        self, pipeline, tmp_path_factory, stem, edit, byte, data
    ):
        # eval reads every test split and prompt table, precompute the candidates.
        root = tmp_path_factory.mktemp("edit")
        bench = shutil.copytree(pipeline / "bench", root / "bench")
        edited_copy(bench / (stem + ".arft"), bench, edit, byte, data)
        stage = "precompute" if stem.startswith("candidates") else "eval"
        argv = stage_argvs(pipeline, bench, root)[stage]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1)


class TestCheckpointAndIndexInputs:
    def test_non_finite_index_embedding_exits_one(self, pipeline, tmp_path, capsys):
        index = shutil.copytree(pipeline / "index", tmp_path / "index")
        path = index / "embeddings.arft"
        raw = bytearray(path.read_bytes())
        size = struct.unpack_from("<I", raw, 8)[0]
        rows = json.loads(raw[12 : 12 + size])["rows"]
        first_id = struct.unpack_from("<q", raw, 12 + size)[0]
        struct.pack_into("<d", raw, 12 + size + 8 * rows, float("nan"))  # past the ids
        path.write_bytes(bytes(raw))
        argv = stage_argvs(pipeline, pipeline / "bench", tmp_path)["train"]
        argv[argv.index("--index") + 1] = str(index)
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {path}: CandidateIndex.image_embeddings: the row with candidate_ids "
            f"{first_id} contains non-finite entries"
        )
        assert not (tmp_path / "ft.json").exists()

    def test_version_1_index_exits_one(self, pipeline, tmp_path, capsys):
        index = shutil.copytree(pipeline / "index", tmp_path / "index")
        meta = json.loads((index / "meta.json").read_text())
        (index / "meta.json").write_text(json.dumps({**meta, "version": 1}))
        argv = stage_argvs(pipeline, pipeline / "bench", tmp_path)["train"]
        argv[argv.index("--index") + 1] = str(index)
        assert main(argv) == 1
        assert "version 1, supported 2" in capsys.readouterr().err
        assert not (tmp_path / "ft.json").exists()

    @pytest.mark.parametrize("at", [-1, 0], ids=["log-tau", "leaf"])
    def test_integer_past_float_range_exits_one(self, pipeline, tmp_path, capsys, at):
        # log_tau is theta's last element and every other element is a tower leaf.
        doc = json.loads((pipeline / "ft.json").read_text())
        doc["theta"][at] = 10**400
        bad = tmp_path / "ft.json"
        bad.write_text(json.dumps(doc))
        argv = ["eval", "--checkpoint", str(bad), "--bundle", str(pipeline / "bench")]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")

    @settings(max_examples=200, deadline=None)
    @given(
        edit=st.sampled_from(["flip", "delete", "insert"]),
        byte=st.integers(1, 255),
        data=st.data(),
    )
    def test_one_byte_edit_of_a_checkpoint_exits_zero_or_one(
        self, pipeline, tmp_path_factory, edit, byte, data
    ):
        path = edited_copy(pipeline / "ft.json", tmp_path_factory.mktemp("edit"), edit, byte, data)
        argv = ["eval", "--checkpoint", str(path), "--bundle", str(pipeline / "bench")]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1)


class TestReportInputs:
    def test_mistyped_metrics_exit_one(self, pipeline, tmp_path, capsys):
        doc = json.loads((pipeline / "metrics.json").read_text())
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps({**doc, "splits": 5}))
        assert main(["report", "--metrics", f"a={bad}"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: splits")

    @pytest.mark.parametrize("column", [0, 1])
    def test_empty_alpha_or_id_cell_exit_one(self, pipeline, tmp_path, capsys, column):
        lines = (pipeline / "curve.csv").read_text().splitlines()
        cells = lines[1].split(",")
        cells[column] = ""
        lines[1] = ",".join(cells)
        bad = tmp_path / "c.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["report", "--curve", str(bad)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}:2: empty alpha or id cell")

    def test_repeated_split_or_column_exits_one(self, pipeline, tmp_path, capsys):
        doc = json.loads((pipeline / "metrics.json").read_text())
        doc["splits"] += doc["splits"][:1]
        metrics, curve = tmp_path / "m.json", tmp_path / "c.csv"
        metrics.write_text(json.dumps(doc))
        curve.write_text("alpha,id,alpha\n0.0,50,0.5\n")
        assert main(["report", "--metrics", f"a={metrics}"]) == 1
        assert capsys.readouterr().err == f"error: {metrics}: repeated splits ['id']\n"
        assert main(["report", "--curve", str(curve)]) == 1
        assert capsys.readouterr().err == f"error: {curve}: repeated columns ['alpha']\n"

    @settings(max_examples=200, deadline=None)
    @given(
        name=st.sampled_from(["metrics.json", "curve.csv"]),
        edit=st.sampled_from(["flip", "delete", "insert"]),
        byte=st.integers(1, 255),
        data=st.data(),
    )
    def test_one_byte_edit_exits_zero_or_one(self, pipeline, tmp_path_factory, name, edit,
                                             byte, data):
        path = edited_copy(pipeline / name, tmp_path_factory.mktemp("edit"), edit, byte, data)
        flag = ["--metrics", f"a={path}"] if name == "metrics.json" else ["--curve", str(path)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["report", *flag]) in (0, 1)


# Any value json.loads can return, NaN and infinities included.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=3),
    max_leaves=6,
)


class TestConfigInputs:
    @pytest.mark.parametrize(
        "doc,message",
        [({"batch_size": "32"}, 'batch_size: "32" is not'), ({"epochs": 1.5}, "epochs: 1.5"),
         ({"enabled_losses": 5}, "enabled_losses: 5"), ({"tau_trainable": "no"}, "tau_trainable"),
         ({"lambda_cl": float("nan")}, "lambda_cl: NaN"),
         ({"learning_rate": float("nan")}, "learning_rate: NaN")],
    )
    def test_mistyped_train_config_exits_one(self, pipeline, tmp_path, capsys, doc, message):
        (tmp_path / "train.json").write_text(json.dumps(doc))
        argv = stage_argvs(pipeline, pipeline / "bench", tmp_path)["pretrain"]
        argv[argv.index("--config") + 1] = str(tmp_path / "train.json")
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: TrainConfig: {message}")
        assert not (tmp_path / "pre.json").exists()

    @pytest.mark.parametrize("rate,shown", [("nan", "NaN"), ("inf", "Infinity")])
    def test_non_finite_rate_flag_exits_one(self, pipeline, tmp_path, capsys, rate, shown):
        argv = stage_argvs(pipeline, pipeline / "bench", tmp_path)["pretrain"]
        assert main([*argv, "--learning-rate", rate]) == 1
        assert capsys.readouterr().err.startswith(f"error: TrainConfig: learning_rate: {shown}")
        assert not (tmp_path / "pre.json").exists()

    def test_mistyped_gen_config_exits_one(self, tmp_path, capsys):
        (tmp_path / "gen.json").write_text(json.dumps({"seed": "1"}))
        argv = ["benchgen", "--out", str(tmp_path / "b"), "--config", str(tmp_path / "gen.json")]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith('error: GenConfig: seed: "1" is not')
        assert not (tmp_path / "b").exists()

    def test_empty_context_bank_exits_one(self, tmp_path, capsys):
        doc = {"context_bank_size": 0, "contexts_per_sample": 0}
        (tmp_path / "gen.json").write_text(json.dumps(doc))
        argv = ["benchgen", "--out", str(tmp_path / "b"), "--config", str(tmp_path / "gen.json")]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: context_bank_size must be at least 1\n"
        assert not (tmp_path / "b").exists()

    @settings(max_examples=200, deadline=None)
    @given(command=st.sampled_from(["pretrain", "benchgen"]), value=JSON_VALUES, data=st.data())
    def test_any_json_value_in_any_field_exits_zero_or_one(
        self, pipeline, tmp_path_factory, command, value, data
    ):
        # The stage itself is replaced by a lookup of the pipeline's own
        # result, so a config that parses costs nothing to run: what is
        # tested is the config's path from file to stage.
        cls = TrainConfig if command == "pretrain" else GenConfig
        name = data.draw(st.sampled_from([f.name for f in fields(cls)]), label="field")
        out = tmp_path_factory.mktemp("cfg")
        (out / "cfg.json").write_text(json.dumps({name: value}))
        if command == "pretrain":
            argv = ["pretrain", "--bundle", str(pipeline / "bench"), "--out", str(out / "pre.json")]
            stage = "pretrain", lambda pool, config: (read_checkpoint(pipeline / "pre.json"), [])
        else:
            argv = ["benchgen", "--out", str(out / "b")]
            stage = "generate_benchmark", lambda config: load_bundle(pipeline / "bench")
        with mock.patch.object(cli, *stage), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main([*argv, "--config", str(out / "cfg.json")]) in (0, 1)


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        assert main(["benchgen", "--out", "x", "--frobnicate"]) == 1
        err = capsys.readouterr().err
        assert "usage" in err

    def test_unknown_command(self, capsys):
        assert main(["transmogrify"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_required(self, capsys):
        assert main(["benchgen"]) == 1
        assert "required" in capsys.readouterr().err

    def test_no_command(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "benchgen" in capsys.readouterr().out

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"n_clases": 4}))
        assert main(["benchgen", "--out", str(tmp_path / "b"), "--config", str(cfg)]) == 1
        assert "unknown" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path, capsys):
        assert main(["pretrain", "--bundle", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "c.json")]) == 1
        capsys.readouterr()

    def test_report_without_inputs(self, capsys):
        assert main(["report"]) == 1
        capsys.readouterr()

    def test_gradcheck_pass_exit_zero(self, capsys):
        assert main(["gradcheck", "--seed", "0"]) == 0
        assert "pass" in capsys.readouterr().out

    @pytest.mark.parametrize("eps", ["0", "-1e-5", "nan", "inf", "1e300"])
    def test_gradcheck_bad_eps_exits_one_naming_eps(self, capsys, eps):
        assert main(["gradcheck", f"--eps={eps}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "eps" in err

    def test_gradcheck_failure_exit_two(self, monkeypatch, capsys):
        import anchorft.cli as cli

        def fake_check(*problem, eps):
            return CheckReport(max_rel_err=1.0, n_checked=5, eps=eps, passed=False)

        monkeypatch.setattr(cli, "check_gradients", fake_check)
        assert main(["gradcheck"]) == 2
        assert "FAIL" in capsys.readouterr().out


class TestFlagResolution:
    def parse(self, *argv):
        return build_parser().parse_args(list(argv))

    def test_flags_override_config_file(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"epochs": 1, "batch_size": 4}))
        args = self.parse("train", "--bundle", "b", "--start", "s", "--out", "o",
                          "--config", str(path), "--epochs", "7", "--losses", "cl,,cap",
                          "--retrieval-k", "3", "--anchor-mode", "merge")
        # Each override flag's dest is its config field.
        assert args.enabled_losses == ["cl", "cap"] and args.anchor_layout == "merge"
        config = _config(args, parse_train_config)
        assert config.epochs == 7
        assert config.batch_size == 4
        assert config.enabled_losses == ("cl", "cap")
        assert config.anchor_layout == "merge"
        assert config.retrieval_k == 3

    def test_invalid_loss_name_rejected(self):
        args = self.parse("train", "--bundle", "b", "--start", "s", "--out", "o",
                          "--losses", "cl,warp")
        with pytest.raises(ValueError):
            _config(args, parse_train_config)

    def test_benchgen_config_is_checked_before_the_seed_flag(self, tmp_path, capsys):
        (tmp_path / "gen.json").write_text(json.dumps({"seed": "1"}))
        assert main(["benchgen", "--out", str(tmp_path / "b"), "--seed", "3",
                     "--config", str(tmp_path / "gen.json")]) == 1
        assert capsys.readouterr().err.startswith('error: GenConfig: seed: "1" is not')
        assert not (tmp_path / "b").exists()

    def test_bad_anchor_mode_is_usage_error(self, capsys):
        assert main(["train", "--bundle", "b", "--start", "s", "--out", "o",
                     "--anchor-mode", "fused"]) == 1
        assert "invalid choice" in capsys.readouterr().err
