"""Command line entry points: gen-data, run, ablate, report.

Exit codes: 0 success, 2 configuration error (or a path argument of the
wrong kind), 3 data error, 4 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .data import SyntheticSpec, generate_synthetic, save_csv
from .errors import ConfigError, ParseError, PlanError
from .harness import (
    ABLATION_PRESETS,
    load_config,
    read_run_report,
    run_ablation,
    run_scenario,
    write_comparison_csv,
    write_summary_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inkrementa",
        description="Class-incremental learning scenarios with exemplars, "
        "distillation, and head weight aligning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags of every subcommand that reads a scenario config
    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("--config", required=True, help="scenario config JSON")
    scenario.add_argument("--seed", type=int, default=None, help="override the config seed")
    scenario.add_argument("--out", default=".", help="output directory")

    sub.add_parser("gen-data", parents=[scenario], help="emit synthetic train/test CSVs from a config")
    sub.add_parser("run", parents=[scenario], help="execute one scenario and write its report JSON")
    ablate = sub.add_parser("ablate", parents=[scenario], help="run a component/loss/norm ablation matrix")
    ablate.add_argument(
        "--preset",
        default="components",
        choices=sorted(ABLATION_PRESETS),
        help="which variant matrix to run",
    )
    ablate.add_argument("--seeds", type=int, default=3, help="seeds per variant")

    report = sub.add_parser("report", help="merge run report JSONs into a summary CSV")
    report.add_argument("inputs", nargs="+", help="run report JSON files")
    report.add_argument("--out", required=True, help="summary CSV path")

    return parser


def _cmd_gen_data(args) -> int:
    config = load_config(args.config, seed_override=args.seed)
    if not isinstance(config.data, SyntheticSpec):
        raise ConfigError("gen-data needs a synthetic data section")
    train, test = generate_synthetic(config.data, config.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_csv(train, out / "train.csv")
    save_csv(test, out / "test.csv")
    print(f"wrote {out / 'train.csv'} ({train.n_samples} rows)")
    print(f"wrote {out / 'test.csv'} ({test.n_samples} rows)")
    return EXIT_OK


def _cmd_run(args) -> int:
    config = load_config(args.config, seed_override=args.seed)
    report = run_scenario(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{report.run_id}.json"
    report.write(path)
    for stage in report.stage_reports:
        print(
            f"stage {stage.stage}: N={stage.n_classes:3d}  "
            f"accuracy={stage.accuracy:.4f}  accn={stage.accn:.4f}"
        )
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_ablate(args) -> int:
    config = load_config(args.config, seed_override=args.seed)
    reports, table = run_ablation(config, ABLATION_PRESETS[args.preset], seeds=args.seeds)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for report in reports:
        report.write(out / f"{report.run_id}.json")
    write_summary_csv(reports, out / "summary.csv")
    write_comparison_csv(table, out / "comparison.csv")
    width = max(len(row["method"]) for row in table)
    for row in table:
        print(
            f"{row['method']:<{width}}  "
            f"acc {row['final_accuracy_mean']:.4f} ± {row['final_accuracy_std']:.4f}  "
            f"accn {row['final_accn_mean']:.4f} ± {row['final_accn_std']:.4f}"
        )
    print(f"wrote {len(reports)} report(s), {out / 'summary.csv'}, {out / 'comparison.csv'}")
    return EXIT_OK


def _cmd_report(args) -> int:
    docs = [read_run_report(path) for path in args.inputs]
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    write_summary_csv(docs, args.out)
    print(f"wrote {args.out} ({len(docs)} run(s))")
    return EXIT_OK


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "run": _cmd_run,
    "ablate": _cmd_ablate,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, PlanError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IsADirectoryError, NotADirectoryError, FileExistsError) as exc:
        print(f"argument error: {exc}", file=sys.stderr)  # a path of the wrong kind
        return EXIT_CONFIG
    except (ParseError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - last-resort CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
