"""Command-line pipeline: generate, pretrain, index, finetune, evaluate, report.

Each subcommand reads the artifacts the previous one wrote, so a full run is

    anchorft benchgen  --out bench
    anchorft pretrain  --bundle bench --out pre.json
    anchorft precompute --checkpoint pre.json --bundle bench --out index
    anchorft train     --bundle bench --start pre.json --index index --out ft.json
    anchorft eval      --checkpoint ft.json --bundle bench --out metrics.json
    anchorft ensemble  --pre pre.json --ft ft.json --bundle bench --out curve.csv

with no hidden state beyond those files: rerunning any stage with the same
inputs rewrites its outputs byte for byte. A stage opens the bundle with
fileio.BundleReader and reads only the parts it uses. The effective run
configuration is the strict JSON config (unknown keys and values not of
their default's JSON type rejected) plus explicit flags.

Exit codes: 0 success, 1 usage or validation error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import fileio
from .anchors import ANCHOR_LAYOUTS, RETRIEVAL_MODES, build_candidate_index
from .benchgen import GenConfig, generate_benchmark
from .encoders import init_params
from .evaluation import EVAL_SPLITS, best_alpha, ensemble_sweep, evaluate_splits
from .training import (
    TrainConfig,
    check_gradients,
    compute_total_loss_and_grads,
    finetune_batcher,
    pretrain,
    run_finetune,
)

__all__ = ["main"]


class UsageError(Exception):
    """Bad command line; the message already includes usage text."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1, not argparse's default 2
        raise UsageError(f"{self.prog}: error: {message}\n{self.format_usage()}")


def _log_path(checkpoint_path) -> Path:
    out = Path(checkpoint_path)
    return out.with_name(out.stem + ".log.jsonl")


def _comma_list(text: str) -> list[str]:
    """argparse type of the comma-list flags: the entries, empty ones dropped."""
    return [t for t in text.split(",") if t]


def _config(args, parse):
    """The --config file's config with every given override flag laid over it.

    Each override flag's dest is its config field's name, and a flag left
    out is None. The file is parsed alone first; the flags are then checked
    as config values too, so a NaN rate is refused.
    """
    doc = fileio.read_json(args.config) if args.config else {}
    config = parse(doc)
    given = {f.name: getattr(args, f.name, None) for f in fields(config)}
    overrides = {name: value for name, value in given.items() if value is not None}
    return parse({**doc, **overrides}) if overrides else config


def cmd_benchgen(args) -> int:
    config = _config(args, fileio.parse_gen_config)
    bundle = generate_benchmark(config)
    fileio.write_bundle(args.out, bundle)
    print(
        f"wrote bundle to {args.out}: {len(bundle.prompts_id)} seen + "
        f"{len(bundle.prompts_zsl)} held-out classes, "
        f"{len(bundle.finetune)} finetune samples, {len(bundle.candidates)} candidates"
    )
    return 0


def cmd_pretrain(args) -> int:
    bundle = fileio.BundleReader(args.bundle)
    config = _config(args, fileio.parse_train_config)
    checkpoint, log = pretrain(bundle.pretrain_pool, config)
    fileio.write_checkpoint(args.out, checkpoint)
    fileio.write_jsonl(_log_path(args.out), log)
    print(f"pretrained {checkpoint.id[:12]} -> {args.out} ({len(log)} steps)")
    return 0


def cmd_precompute(args) -> int:
    checkpoint = fileio.read_checkpoint(args.checkpoint)
    bundle = fileio.BundleReader(args.bundle)
    index = build_candidate_index(checkpoint.params, bundle.candidates)
    fileio.write_candidate_index(args.out, index)
    print(f"indexed {index.size} candidates under {checkpoint.id[:12]} -> {args.out}")
    return 0


def cmd_train(args) -> int:
    bundle = fileio.BundleReader(args.bundle)
    start = fileio.read_checkpoint(args.start)
    config = _config(args, fileio.parse_train_config)
    index = fileio.read_candidate_index(args.index) if args.index else None
    candidates = bundle.candidates if "ret" in config.enabled_losses else None
    checkpoint, log = run_finetune(
        bundle.finetune,
        bundle.prompts_id,
        bundle.captions,
        index,
        candidates,
        start,
        config,
    )
    fileio.write_checkpoint(args.out, checkpoint)
    fileio.write_jsonl(_log_path(args.out), log)
    print(
        f"finetuned {checkpoint.id[:12]} -> {args.out} "
        f"({len(log)} steps, losses {','.join(config.enabled_losses)})"
    )
    return 0


def cmd_eval(args) -> int:
    checkpoint = fileio.read_checkpoint(args.checkpoint)
    bundle = fileio.BundleReader(args.bundle)
    metrics = evaluate_splits(checkpoint.params, bundle, args.splits, zsl_strict=args.zsl_strict)
    if args.out:
        fileio.write_metrics(args.out, metrics, checkpoint=checkpoint.id)
    for result in metrics.splits:
        print(f"{result.split_name}: {result.accuracy_percent:.2f} ({result.n} samples)")
    if metrics.avg_ood is not None:
        print(f"avg_ood: {metrics.avg_ood:.2f}")
    return 0


def cmd_ensemble(args) -> int:
    pre = fileio.read_checkpoint(args.pre)
    ft = fileio.read_checkpoint(args.ft)
    bundle = fileio.BundleReader(args.bundle)
    alphas = [i / 10 for i in range(11)] if args.alphas is None else list(map(float, args.alphas))
    curve = ensemble_sweep(pre, ft, alphas, bundle, args.splits)
    fileio.write_curve_csv(args.out, curve)
    print(f"swept {len(alphas)} alphas -> {args.out}; best by id accuracy: {curve.best_id_alpha}")
    return 0


def _gradcheck_problem(seed: int):
    """A small real finetuning step with the cl, cap and ret terms engaged.

    Four samples of a generated bundle, their captions, and two retrieved
    candidates each, with freshly initialized towers and a trainable tau,
    cut by the same finetune_batcher that run_finetune steps through.
    """
    bundle = generate_benchmark(
        GenConfig(
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
    )
    config = TrainConfig(
        batch_size=4, hidden=8, embed_dim=4, seed=seed, retrieval_k=2, tau_trainable=True
    )
    params = init_params(seed, (6, 7), config.hidden, config.embed_dim)
    index = build_candidate_index(params, bundle.candidates)
    batch_inputs = finetune_batcher(
        bundle.finetune[: config.batch_size], bundle.prompts_id, bundle.captions, index,
        bundle.candidates, params, config,
    )
    return (params, *batch_inputs(np.arange(config.batch_size)), config)


def cmd_gradcheck(args) -> int:
    problem = _gradcheck_problem(args.seed)
    breakdown, _ = compute_total_loss_and_grads(*problem)
    terms = [("cl", breakdown.l_cl), ("cap", breakdown.l_cap), ("ret", breakdown.l_ret)]
    engaged = ",".join(name for name, loss in terms if loss > 0.0)
    report = check_gradients(*problem, eps=args.eps)
    verdict = "pass" if report.passed else "FAIL"
    print(
        f"gradcheck seed={args.seed}: {verdict}, max_rel_err={report.max_rel_err:.3e} "
        f"over {report.n_checked} of {problem[0].theta.size} elements of theta "
        f"(terms {engaged}, log_tau trainable)"
    )
    return 0 if report.passed else 2


def _format_cell(value) -> str:
    return "-" if value is None else f"{value:.2f}"


def _render_table(columns: list[str], body: list[list[str]], fmt: str) -> list[str]:
    if fmt == "csv":
        return [",".join(columns)] + [",".join(row) for row in body]
    lines = ["| " + " | ".join(columns) + " |"]
    lines.append("|" + "|".join(" --- " for _ in columns) + "|")
    lines += ["| " + " | ".join(row) + " |" for row in body]
    return lines


def cmd_report(args) -> int:
    if not args.metrics and not args.curve:
        raise UsageError("report: error: provide --metrics LABEL=PATH and/or --curve PATH")
    sections: list[str] = []
    if args.metrics:
        entries = []
        for item in args.metrics:
            label, sep, path = item.partition("=")
            if not sep or not label or not path:
                raise ValueError(f"--metrics expects LABEL=PATH, got {item!r}")
            entries.append((label, fileio.read_metrics(path)))
        columns: list[str] = []
        for _, doc in entries:
            for split in doc["splits"]:
                if split["split"] not in columns:
                    columns.append(split["split"])
        body = []
        for label, doc in entries:
            accuracy = {s["split"]: s["accuracy_percent"] for s in doc["splits"]}
            row = [label] + [_format_cell(accuracy.get(c)) for c in columns]
            row.append(_format_cell(doc["avg_ood"]))
            body.append(row)
        sections += _render_table(["run", *columns, "avg_ood"], body, args.format)
    if args.curve:
        header, rows = fileio.read_curve_csv(args.curve)
        if sections:
            sections.append("")
        body = [
            [f"{row['alpha']:g}"] + [_format_cell(row[c]) for c in header[1:]] for row in rows
        ]
        sections += _render_table(header, body, args.format)
        best = best_alpha([row["alpha"] for row in rows], [row["id"] for row in rows])
        sections.append(f"best alpha by id accuracy: {best:g}")
    text = "\n".join(sections) + "\n"
    if args.out:
        fileio.write_text(args.out, text)
    else:
        print(text, end="")
    return 0


def _add_train_flags(parser, with_anchors: bool) -> None:
    parser.add_argument("--config", help="train config JSON (strict keys and types)")
    parser.add_argument("--seed", type=int, help="training seed override")
    parser.add_argument("--epochs", type=int, help="epoch count override")
    parser.add_argument("--batch-size", type=int, help="batch size override")
    parser.add_argument("--learning-rate", type=float, help="learning rate override")
    if with_anchors:
        parser.add_argument("--losses", dest="enabled_losses", type=_comma_list,
                            help="comma list from cl,cap,ret")
        parser.add_argument("--anchor-mode", dest="anchor_layout", choices=ANCHOR_LAYOUTS)
        parser.add_argument("--retrieval-mode", choices=RETRIEVAL_MODES)
        parser.add_argument("--retrieval-k", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="anchorft", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    p = sub.add_parser("benchgen", help="generate a synthetic benchmark bundle")
    p.add_argument("--out", required=True, help="bundle directory")
    p.add_argument("--config", help="generator config JSON (strict keys and types)")
    p.add_argument("--seed", type=int, help="generator seed override")
    p.set_defaults(handler=cmd_benchgen)

    p = sub.add_parser("pretrain", help="contrastive pretraining on the pair pool")
    p.add_argument("--bundle", required=True)
    p.add_argument("--out", required=True, help="checkpoint JSON path")
    _add_train_flags(p, with_anchors=False)
    p.set_defaults(handler=cmd_pretrain)

    p = sub.add_parser("precompute", help="embed the candidate pool into an index")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--bundle", required=True)
    p.add_argument("--out", required=True, help="index directory")
    p.set_defaults(handler=cmd_precompute)

    p = sub.add_parser("train", help="anchored finetuning from a pretrained checkpoint")
    p.add_argument("--bundle", required=True)
    p.add_argument("--start", required=True, help="pretrained checkpoint JSON")
    p.add_argument("--index", help="candidate index directory (needed for the ret loss)")
    p.add_argument("--out", required=True, help="checkpoint JSON path")
    _add_train_flags(p, with_anchors=True)
    p.set_defaults(handler=cmd_train)

    splits_help = f"comma list from {','.join(EVAL_SPLITS)}; default: all the bundle has"
    p = sub.add_parser("eval", help="prompt-classifier accuracy on benchmark splits")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--bundle", required=True)
    p.add_argument("--splits", type=_comma_list, help=splits_help)
    p.add_argument("--zsl-strict", action="store_true",
                   help="classify held-out samples over the union label space")
    p.add_argument("--out", help="metrics JSON path")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("ensemble", help="sweep weight interpolation between checkpoints")
    p.add_argument("--pre", required=True, help="pretrained checkpoint JSON")
    p.add_argument("--ft", required=True, help="finetuned checkpoint JSON")
    p.add_argument("--bundle", required=True)
    p.add_argument("--alphas", type=_comma_list, help="comma list; default 0,0.1,...,1")
    p.add_argument("--splits", type=_comma_list, help=splits_help)
    p.add_argument("--out", required=True, help="curve CSV path")
    p.set_defaults(handler=cmd_ensemble)

    p = sub.add_parser("gradcheck", help="analytic vs numeric gradients on a small model")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=1e-5)
    p.set_defaults(handler=cmd_gradcheck)

    p = sub.add_parser("report", help="render metrics and curves as tables")
    p.add_argument("--metrics", action="append", metavar="LABEL=PATH")
    p.add_argument("--curve", help="ensemble curve CSV")
    p.add_argument("--format", choices=("md", "csv"), default="md")
    p.add_argument("--out", help="write the table here instead of stdout")
    p.set_defaults(handler=cmd_report)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
