"""Command line front end: preprocess, train, eval, ablate.

Configuration can come from a ``key=value`` file via ``--config``;
explicit flags override file values.  Exit codes: 0 success, 1 usage or
configuration problem, 2 data problem, 3 numeric failure during
training.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

from . import dataio, harness
from .dataio import DataError
from .harness import NumericsError, TrainConfig
from .params import (CheckpointError, checkpoint_paths, load_checkpoint,
                     save_checkpoint)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

_CONFIG_FIELDS = [f.name for f in dataclasses.fields(TrainConfig)]


def read_config_file(path) -> dict:
    """Parse ``key = value`` lines; ``#`` starts a comment."""
    out = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        out[key] = value
    return out


def _add_config_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--config", metavar="FILE",
                        help="key=value configuration file")
    for f in dataclasses.fields(TrainConfig):
        flag = "--" + f.name.replace("_", "-")
        parser.add_argument(flag, default=None, type=type(f.default),
                            help=f"(default {f.default})")


def build_config(args) -> TrainConfig:
    values = {}
    if getattr(args, "config", None):
        file_values = read_config_file(args.config)
        unknown = set(file_values) - set(_CONFIG_FIELDS)
        if unknown:
            raise ValueError(f"unknown config keys in {args.config}: "
                             f"{sorted(unknown)}")
        values.update(file_values)
    for name in _CONFIG_FIELDS:
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            values[name] = flag_value
    return TrainConfig.from_dict(values)


def _load_examples(path):
    examples = dataio.read_examples(path)
    if not examples:
        raise DataError(f"{path}: no examples")
    return examples


def cmd_preprocess(args) -> int:
    events, malformed = dataio.ingest(args.input, delimiter=args.delimiter,
                                      has_header=args.has_header)
    if not events:
        raise DataError(f"{args.input}: no parsable events "
                        f"({malformed} malformed lines)")
    sessions, catalog = dataio.preprocess(
        events, min_item_freq=args.min_item_freq,
        min_session_len=args.min_session_len,
        max_session_len=args.max_session_len)
    train_sessions, test_sessions = dataio.split(
        sessions, args.boundary, min_session_len=args.min_session_len)
    if not train_sessions or not test_sessions:
        raise DataError(
            f"split at {args.boundary} left train={len(train_sessions)} "
            f"test={len(test_sessions)} sessions")
    st = dataio.stats(train_sessions, test_sessions, catalog)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dataio.write_examples(out / "train.jsonl",
                          dataio.prefix_augment(train_sessions))
    dataio.write_examples(out / "test.jsonl",
                          dataio.prefix_augment(test_sessions))
    dataio.write_catalog(out / "catalog.json", catalog)
    (out / "stats.json").write_text(
        json.dumps(dataclasses.asdict(st), indent=1), encoding="utf-8")
    print(f"interactions={st.interactions} train_sessions={st.training_sessions} "
          f"test_sessions={st.test_sessions} items={st.items} "
          f"avg_length={st.avg_length:.2f}")
    if malformed:
        print(f"skipped {malformed} malformed input lines", file=sys.stderr)
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = build_config(args)
    catalog = dataio.read_catalog(args.catalog)
    examples = _load_examples(args.train)
    dataio.check_examples(examples, catalog.count)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = harness.train(examples, catalog.count, cfg)
    base = out / "checkpoint"
    save_checkpoint(base, result.params, cfg.to_dict(), catalog.count)
    lines = ["epoch,total,prediction,contrastive,independence"]
    for i, lb in enumerate(result.epoch_losses, start=1):
        lines.append(f"{i},{lb.total:.6f},{lb.prediction:.6f},"
                     f"{lb.contrastive:.6f},{lb.independence:.6f}")
    (out / "losses.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    harness.write_run_manifest(
        out / "manifest.json", cfg, dataset=Path(args.train).stem,
        n_items=catalog.count,
        extra={"examples": len(examples),
               "wall_time_s": round(result.wall_time, 3),
               "checkpoint": base.name})
    print(f"trained {cfg.epochs} epochs on {len(examples)} examples; "
          f"final {result.epoch_losses[-1]}")
    print(f"checkpoint written to {base}.bin / {base}.json")
    return EXIT_OK


def _ks_from(args):
    return tuple(args.k or (10, 20))


def cmd_eval(args) -> int:
    params, config, _ = load_checkpoint(args.checkpoint)
    try:
        cfg = TrainConfig.from_dict(config)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{checkpoint_paths(args.checkpoint)[1]}: "
                              f"invalid stored config: {exc}") from exc
    examples = _load_examples(args.test)
    report = harness.evaluate(params, examples, cfg, ks=_ks_from(args))
    dataset = args.dataset or Path(args.test).stem
    rows = harness.metrics_csv_rows(report, dataset, cfg.variant, cfg.seed,
                                    epoch=cfg.epochs)
    if args.metrics:
        harness.write_metrics_csv(args.metrics, rows)
    for line in report.lines():
        print(line)
    return EXIT_OK


def cmd_ablate(args) -> int:
    cfg = build_config(args)
    catalog = dataio.read_catalog(args.catalog)
    train_examples = _load_examples(args.train)
    test_examples = _load_examples(args.test)
    variants = tuple(args.variants.split(",")) if args.variants else harness.VARIANTS
    harness.check_variants(variants)
    for examples in (train_examples, test_examples):
        dataio.check_examples(examples, catalog.count)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    results = harness.ablate(train_examples, test_examples, catalog.count,
                             cfg, variants=variants, ks=_ks_from(args))
    dataset = args.dataset or Path(args.train).stem
    all_rows = None
    for variant, (tr, report) in results.items():
        vcfg = dataclasses.replace(cfg, variant=variant)
        (out / variant).mkdir(exist_ok=True)
        save_checkpoint(out / variant / "checkpoint", tr.params,
                        vcfg.to_dict(), catalog.count)
        rows = harness.metrics_csv_rows(report, dataset, variant, cfg.seed,
                                        epoch=cfg.epochs)
        all_rows = rows if all_rows is None else all_rows + rows[1:]
        print(f"[{variant}] " + "; ".join(report.lines()))
    harness.write_metrics_csv(out / "metrics.csv", all_rows)
    harness.write_run_manifest(out / "manifest.json", cfg, dataset,
                               catalog.count,
                               extra={"variants": list(variants)})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sessrec",
        description="Session-based recommendation: preprocess, train, "
                    "evaluate, ablate.")
    parser.add_argument("--verbose", action="store_true",
                        help="log at debug level")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="raw event log to JSONL examples")
    p.add_argument("--input", required=True, help="raw CSV event file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--boundary", required=True, type=float,
                   help="timestamp; sessions ending after it become test")
    p.add_argument("--min-item-freq", type=int, default=5)
    p.add_argument("--min-session-len", type=int, default=2)
    p.add_argument("--max-session-len", type=int)
    p.add_argument("--delimiter", default=",")
    p.add_argument("--has-header", action="store_true")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="fit a model on preprocessed examples")
    p.add_argument("--train", required=True, help="training JSONL")
    p.add_argument("--catalog", required=True, help="catalog JSON")
    p.add_argument("--out", required=True, help="output directory")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="rank test prefixes with a checkpoint")
    p.add_argument("--checkpoint", required=True,
                   help="checkpoint base path (.bin/.json pair)")
    p.add_argument("--test", required=True, help="test JSONL")
    p.add_argument("--k", action="append", type=int,
                   help="ranking cutoff; repeatable (default 10 and 20)")
    p.add_argument("--metrics", help="write metrics CSV here")
    p.add_argument("--dataset", help="dataset name for the CSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="train and evaluate model variants")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--catalog", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--variants", help="comma list (default: all)")
    p.add_argument("--k", action="append", type=int)
    p.add_argument("--dataset")
    _add_config_flags(p)
    p.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except ValueError as exc:
        logger.error("%s", exc)
        return EXIT_USAGE
    except (DataError, CheckpointError) as exc:
        logger.error("%s", exc)
        return EXIT_DATA
    except NumericsError as exc:
        logger.error("%s", exc)
        return EXIT_NUMERIC
    except OSError as exc:
        logger.error("%s", exc)
        return EXIT_DATA


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
