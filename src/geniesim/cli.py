"""Command-line front end.

    genie-sim run     --config scenario.json [--seed N] [--out DIR]
    genie-sim compare --config scenario.json [--seed N] [--out DIR]
    genie-sim synth   --route loop --cars 2 --frames 500 --overlap 0.5 \
                      --out trace.jsonl [--seed N]
    genie-sim report  --in DIR

Config files are JSON mirroring ScenarioConfig field for field.  An
unknown field or a value of the wrong type is rejected with its path (for
example ``config.synth.n_frame``); an int is accepted for a float field.
Exit code is 0 on success and 2 with a one-line ``error:`` diagnostic on an
unreadable file, a config or trace error, or a failed validation.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .harness import (
    MODES,
    MetricsReport,
    ScenarioConfig,
    compare_baselines,
    emit_report,
    run_scenario,
)
from .workload import ROUTES, SynthSpec, save_trace, synth_trace


def _load_config(args: argparse.Namespace) -> ScenarioConfig:
    config = ScenarioConfig.from_json_file(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    return config


def _print_totals(report: MetricsReport) -> dict:
    """Print the one-line totals of ``summary.json`` and return them."""
    t = report.summary_dict()["totals"]
    print(
        f"[{report.mode}] completed {t['completed']}/{t['requests']} "
        f"mean {t['latency_ms']['mean']:.2f} ms p99 {t['latency_ms']['p99']:.2f} ms "
        f"deadline-miss {t['deadline_miss_fraction']:.3f} "
        f"imgrr {report.reuse_ratio('image'):.3f} objrr {report.reuse_ratio('object'):.3f}"
    )
    return t


def cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args)
    report = run_scenario(config)
    _print_totals(report)
    if args.out:
        for path in emit_report(report, args.out):
            print(f"wrote {path}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    config = _load_config(args)
    reports = compare_baselines(config)
    means = {}
    for mode in MODES:
        report = reports[mode]
        means[mode] = _print_totals(report)["latency_ms"]["mean"]
        if args.out:
            emit_report(report, Path(args.out) / mode)
    if args.out:
        comparison = {
            "mean_latency_ms": means,
            "improvement_vs_L": 1.0 - means["DG"] / means["L"] if means["L"] else 0.0,
            "improvement_vs_R": 1.0 - means["DG"] / means["R"] if means["R"] else 0.0,
        }
        path = Path(args.out) / "comparison.json"
        path.write_text(json.dumps(comparison, sort_keys=True, indent=2) + "\n")
        print(f"wrote {path}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    trace = synth_trace(
        args.cars, args.route, args.frames, seed=args.seed, objects_per_frame=args.objects_per_frame,
        overlap_fraction=args.overlap, frame_period_ms=args.period_ms, stagger_ms=args.stagger_ms,
    )
    save_trace(trace, args.out)
    print(f"wrote {args.out}: {len(trace.frames)} frames, cars {', '.join(trace.cars)}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    path = Path(args.in_dir) / "summary.json"
    print(json.dumps(json.loads(path.read_text()), indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genie-sim",
        description="Deterministic vehicular edge caching simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, text in (
        ("run", cmd_run, "run one scenario"),
        ("compare", cmd_compare, "run local/remote/cached modes on one trace"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        p.set_defaults(fn=fn)

    spec = SynthSpec()  # a trace's defaults, shared with the config's synth section
    p_syn = sub.add_parser("synth", help="generate a synthetic trace")
    p_syn.add_argument("--route", choices=ROUTES, default=spec.route)
    p_syn.add_argument("--cars", type=int, default=1)
    p_syn.add_argument("--frames", type=int, default=spec.n_frames)
    p_syn.add_argument("--overlap", type=float, default=spec.overlap_fraction)
    p_syn.add_argument("--objects-per-frame", type=int, default=spec.objects_per_frame)
    p_syn.add_argument("--period-ms", type=int, default=spec.frame_period_ms)
    p_syn.add_argument("--stagger-ms", type=float, default=spec.stagger_ms)
    p_syn.add_argument("--seed", type=int, default=spec.seed)
    p_syn.add_argument("--out", required=True)
    p_syn.set_defaults(fn=cmd_synth)

    p_rep = sub.add_parser("report", help="pretty-print an emitted summary")
    p_rep.add_argument("--in", dest="in_dir", required=True)
    p_rep.set_defaults(fn=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:  # ConfigError and TraceError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
