"""Command line interface.

Subcommands: synth, mask, train, eval, experiment, report.  Exit codes:
0 success, 1 runtime failure, 2 usage or config error.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import annotation, tagger
from .annotation import mask_entities, partial_from_labels, to_corpus, write_kept_sidecar
from .corpus import (ConfigError, ParseError, SynthConfig, generate_synthetic, read_config,
                     read_conll, serialize_conll)
from .evaluation import evaluate_model
from .experiment import (ExperimentConfig, MethodSpec, load_json, run_experiment, train_spec,
                         verify_report)

USAGE_ERROR = 2


def cmd_synth(args: argparse.Namespace) -> int:
    config = read_config(SynthConfig, load_json(args.config), "synth")
    if args.n_sentences is not None:
        config = replace(config, n_sentences=args.n_sentences)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    corpus = generate_synthetic(config)
    _write_text(args.out, serialize_conll(corpus))
    print(f"wrote {len(corpus.sentences)} sentences to {args.out}")
    return 0


def cmd_mask(args: argparse.Namespace) -> int:
    if not 0.0 <= args.fraction <= 1.0:
        raise ConfigError(f"--fraction {args.fraction!r} outside [0, 1]")
    (corpus,) = read_conll([args.corpus])
    partial, kept = mask_entities(corpus, args.fraction, args.seed)
    masked = to_corpus(partial, corpus.scheme, name=f"{corpus.name}-masked")
    _write_text(args.out, serialize_conll(masked))
    if args.kept_out:
        write_kept_sidecar(args.kept_out, kept)
    print(f"kept {len(kept)} of {len(annotation._gold_keys(corpus)[0])} entities "
          f"(fraction {args.fraction!r}) -> {args.out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    spec = MethodSpec.parse(args.method)
    train_c, dev_c = read_conll([args.train, args.dev])
    exp = ExperimentConfig.from_dict(load_json(args.config))
    seed = exp.tagger.seed if args.seed is None else args.seed
    os.makedirs(args.out, exist_ok=True)
    for name in ("checkpoint.npz", "soft.bin", "lineage.csv", "trace_ner_fit.csv",
                 "trace_self_train.csv"):  # every file it writes: none of an earlier run stays
        if os.path.exists(os.path.join(args.out, name)):
            os.remove(os.path.join(args.out, name))
    out = train_spec(spec, partial_from_labels(train_c), dev_c, exp, seed,
                     os.path.join(args.out, "soft.bin"), os.path.join(args.out, "lineage.csv"))
    tagger.save_checkpoint(out.model, os.path.join(args.out, "checkpoint.npz"))
    for trace in out.traces:
        trace.write_csv(os.path.join(args.out, f"trace_{trace.stage}.csv"))
    print(f"val_f1={out.val_f1!r} checkpoint={os.path.join(args.out, 'checkpoint.npz')}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    model = tagger.load_checkpoint(args.checkpoint)
    (corpus,) = read_conll([args.corpus], model.scheme)
    res = evaluate_model(model, corpus)
    rows = [("micro", res.precision, res.recall, res.f1)]
    if args.per_category:
        rows += [(c, *res.per_category[c]) for c in sorted(res.per_category)]
    lines = ["category,precision,recall,f1"]
    lines += [f"{name},{p!r},{r!r},{f!r}" for name, p, r, f in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        _write_text(args.out, text)
    else:
        print(text, end="")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    data = load_json(args.config)
    out_dir = args.out or data.get("out_dir") or "runs/experiment"
    config = ExperimentConfig.from_dict(data)
    if args.seed is not None:
        config = replace(config, mask_seed=args.seed)
    results = run_experiment(config, out_dir)
    print(f"results: {results}")
    print(f"summary: {os.path.join(out_dir, 'summary.md')}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    if not args.tolerance >= 0:  # NaN fails too
        raise ConfigError(f"--tolerance {args.tolerance!r} must be >= 0")
    problems = verify_report(args.run_dir, tolerance=args.tolerance)
    if problems:
        for p in problems:
            print(f"MISMATCH {p}")
        return 1
    print(f"report OK: summary.md matches results.csv within {args.tolerance!r}; "
          "every lineage file verifies; every mask sidecar matches a fresh draw")
    return 0


def _write_text(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partialner",
        description="Sequence labelling under partial annotation: synthetic data, "
                    "entity masking, training, evaluation and experiment matrices.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic CoNLL corpus")
    p.add_argument("--config", help="JSON generator config")
    p.add_argument("--seed", type=int, help="generator seed override")
    p.add_argument("--n-sentences", type=int, help="sentence count override")
    p.add_argument("--out", required=True, help="output CoNLL path")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("mask", help="hide a fraction of gold entities")
    p.add_argument("corpus", help="input CoNLL file")
    p.add_argument("--fraction", type=float, required=True,
                   help="fraction of entities to keep")
    p.add_argument("--seed", type=int, default=0, help="mask seed (default 0)")
    p.add_argument("--out", required=True, help="masked CoNLL output path")
    p.add_argument("--kept-out", help="optional sidecar CSV of kept spans")
    p.set_defaults(func=cmd_mask)

    p = sub.add_parser("train", help="train one model with one method")
    p.add_argument("--method", required=True,
                   help="supervised | bond | guided_bond | bde:<inner>+<final>")
    p.add_argument("--train", required=True, help="training CoNLL file "
                   "(unannotated entities already masked to O)")
    p.add_argument("--dev", required=True, help="validation CoNLL file")
    p.add_argument("--config", help="JSON training config overrides")
    p.add_argument("--seed", type=int, help="model seed override")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a CoNLL file")
    p.add_argument("checkpoint", help="checkpoint .npz path")
    p.add_argument("corpus", help="evaluation CoNLL file")
    p.add_argument("--per-category", action="store_true",
                   help="also print per-category rows")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("experiment", help="run a methods x fractions x seeds matrix")
    p.add_argument("--config", help="JSON experiment config")
    p.add_argument("--seed", type=int, help="mask seed override")
    p.add_argument("--out", help="run directory (default runs/experiment)")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("report", help="recompute summary stats from results.csv")
    p.add_argument("run_dir", help="experiment output directory")
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, ParseError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
