"""Command-line surface: verify / solve / spectrum / sweep.

All behavior flows from a JSON config file plus the documented flags; no
environment variables.  Exit codes: 0 success, 1 gating check failure,
2 config error, 3 internal error.  Only the report goes to stdout; progress
and summary lines go to stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import bethe, config as config_mod, verify
from .config import RunConfig, from_complex, model_to_dict, parse_config
from .errors import ConfigError
from .model import ModelParams


def _finite_or_none(x):
    if x is None:
        return None
    x = float(x)
    return x if abs(x) != float("inf") and x == x else None


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _csv_rows(records, header) -> list:
    """One CSV row per payload record, its values read by the header's field names."""
    return [[record[name] for name in header] for record in records]


def _write(payload: dict, header, rows, cfg: RunConfig) -> None:
    """Write the report in the config's format to its output path, or to stdout."""
    target = open(cfg.output_path, "w", newline="") if cfg.output_path else sys.stdout
    try:
        if cfg.format == "csv":
            writer = csv.writer(target)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt_cell(v) for v in row])
        else:
            target.write(json.dumps(payload, indent=2) + "\n")
    finally:
        if cfg.output_path:
            target.close()


def _load(args: argparse.Namespace) -> RunConfig:
    cfg = parse_config(args.config) if args.config else config_mod.default_config()
    if args.seed is not None:
        try:
            cfg = dataclasses.replace(cfg, solver=dataclasses.replace(cfg.solver, seed=args.seed))
        except ValueError as exc:
            raise ConfigError(f"--seed: {exc}") from exc
    if args.format is not None:
        cfg = dataclasses.replace(cfg, format=args.format)
    if args.out is not None:
        cfg = dataclasses.replace(cfg, output_path=args.out)
    if cfg.output_path is not None:
        out = Path(cfg.output_path)
        if out.is_dir():
            raise ConfigError(f"output_path: {out} is a directory")
        if not out.parent.is_dir():
            raise ConfigError(f"output_path: no directory {out.parent}")
    if cfg.checks != "all":
        unknown = [c for c in cfg.checks if c not in verify.registry()]
        if unknown:
            raise ConfigError(f"checks: unknown check names {unknown}")
    if args.command == "sweep":
        if cfg.sweep is None:
            raise ConfigError("sweep command requires a sweep section in the config")
        if args.jobs < 1:
            raise ConfigError(f"--jobs: expected a positive integer, got {args.jobs}")
    return cfg


# --- commands: each returns (payload, csv_header, csv_rows, summary, exit_code) -------

def cmd_verify(cfg: RunConfig):
    report = verify.run_suite(
        cfg.model,
        checks=cfg.checks,
        seed=cfg.solver.seed,
        n_samples=cfg.n_samples,
        solver_cfg=cfg.solver,
    )
    for c in report.checks:
        residual = "" if c.residual is None else f" residual={c.residual:.3e} tol={c.tol:.1e}"
        extra = "" if c.gating else " [experimental]"
        reason = f" ({c.reason})" if c.reason else ""
        print(f"{c.verdict:>7}  {c.name}[N={c.n_sites}]{residual}{extra}{reason}", file=sys.stderr)
    payload = {
        "command": "verify",
        "seed": report.seed,
        "params": model_to_dict(report.params),
        "all_pass": report.all_pass,
        "checks": [
            {**dataclasses.asdict(c), "residual": _finite_or_none(c.residual)}
            for c in report.checks
        ],
    }
    header = [f.name for f in dataclasses.fields(verify.CheckOutcome)]
    summary = f"suite: {'pass' if report.all_pass else 'FAIL'}"
    code = 0 if report.all_pass else 1
    return payload, header, _csv_rows(payload["checks"], header), summary, code


def cmd_solve(cfg: RunConfig):
    stats: dict = {}
    sets = bethe.solve_bethe(cfg.model, cfg.solver, stats=stats)
    if not sets:
        print(
            "no admissible Bethe solutions converged; try more starts or another seed",
            file=sys.stderr,
        )
    payload = {
        "command": "solve",
        "seed": cfg.solver.seed,
        "params": model_to_dict(cfg.model),
        "n_roots": cfg.model.n_sites,
        "count": len(sets),
        "solver_stats": stats,
        "root_sets": [
            {
                "roots": [from_complex(r) for r in rs.roots],
                "residual_norm": rs.residual_norm,
                "source": rs.source,
                "signature": [from_complex(s) for s in rs.signature],
            }
            for rs in sets
        ],
    }
    header = ("set_index", "root_index", "root_re", "root_im", "residual_norm")
    rows = [
        (i, k, r.real, r.imag, rs.residual_norm)
        for i, rs in enumerate(sets)
        for k, r in enumerate(rs.roots)
    ]
    return payload, header, rows, f"solve: {len(sets)} inequivalent root sets", 0


def cmd_spectrum(cfg: RunConfig):
    cover = bethe.cover_spectrum(cfg.model, cfg.solver)
    payload = {
        "command": "spectrum",
        "seed": cfg.solver.seed,
        "params": model_to_dict(cfg.model),
        "mode": cover.mode,
        "matched_count": cover.matched_count,
        "unmatched_count": cover.unmatched_count,
        "curves": [
            {
                "curve_id": m.curve_id,
                "degree": m.curve.degree,
                "coeffs": [from_complex(c) for c in m.curve.coeffs],
                "matched": m.matched,
                "excitations": m.excitations,
                "match_error": _finite_or_none(m.match_error),
                "eigen_residual": _finite_or_none(m.eigen_residual),
                "signature": (
                    [from_complex(s) for s in m.matched_roots.signature] if m.matched else None
                ),
            }
            for m in cover.matches
        ],
    }
    header = ("curve_id", "matched", "excitations", "match_error", "eigen_residual")
    summary = (
        f"spectrum: {cover.matched_count}/{len(cover.matches)} curves matched "
        f"({cover.mode} mode)"
    )
    return payload, header, _csv_rows(payload["curves"], header), summary, 0


def _sweep_point(cfg: RunConfig, value: complex, point: ModelParams) -> dict:
    cover = bethe.cover_spectrum(point, cfg.solver)
    return {
        "param": cfg.sweep.param,
        "value": from_complex(value),
        "matched_count": cover.matched_count,
        "unmatched_count": cover.unmatched_count,
        "max_match_error": _finite_or_none(cover.max_match_error),
        "max_eigen_residual": _finite_or_none(cover.max_eigen_residual),
    }


def cmd_sweep(cfg: RunConfig, jobs: int):
    """Run the spectrum match over the config's sweep grid."""
    grid, models = cfg.sweep.grid, cfg.sweep.models
    if jobs > 1:
        # with the fork start method the pool starts all its workers at once
        with ProcessPoolExecutor(max_workers=min(jobs, len(grid))) as pool:
            points = list(pool.map(_sweep_point, [cfg] * len(grid), grid, models))
    else:
        points = [_sweep_point(cfg, v, m) for v, m in zip(grid, models)]
    payload = {
        "command": "sweep",
        "seed": cfg.solver.seed,
        "param": cfg.sweep.param,
        "rows": points,
    }
    header = ("param", "value_re", "value_im", "matched", "unmatched",
              "max_match_error", "max_eigen_residual")
    rows = [
        (r["param"], r["value"][0], r["value"][1], r["matched_count"],
         r["unmatched_count"], r["max_match_error"], r["max_eigen_residual"])
        for r in points
    ]
    total = sum(r["matched_count"] for r in points)
    summary = f"sweep: {len(points)} points, {total} curves matched in total"
    return payload, header, rows, summary, 0


# --- entry point -----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="openxxx",
        description="Open XXX chain with general boundaries: verification, Bethe roots, "
        "spectrum completeness, parameter sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("verify", "run the named identity checks and write a report"),
        ("solve", "solve the Bethe equations and write the root sets"),
        ("spectrum", "match Bethe solutions against the dense spectrum"),
        ("sweep", "run the spectrum match over a parameter grid"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="JSON config path (defaults to the built-in config)")
        cmd.add_argument("--out", help="output file (defaults to config output_path or stdout)")
        cmd.add_argument("--format", choices=("json", "csv"), help="output format override")
        cmd.add_argument("--seed", type=int, help="seed override")
        if name == "sweep":
            cmd.add_argument("--jobs", type=int, default=1, help="parallel grid workers")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    commands = {
        "verify": cmd_verify,
        "solve": cmd_solve,
        "spectrum": cmd_spectrum,
        "sweep": lambda cfg: cmd_sweep(cfg, args.jobs),
    }
    try:
        cfg = _load(args)
        payload, header, rows, summary, code = commands[args.command](cfg)
        _write(payload, header, rows, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a named package error or anything unexpected
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    print(summary, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
