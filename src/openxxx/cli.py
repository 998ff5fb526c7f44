"""Command-line surface: verify / solve / spectrum / sweep.

All behavior flows from a JSON config file plus the documented flags; no
environment variables.  Exit codes: 0 success, 1 gating check failure,
2 config error, 3 internal error.
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
from .config import RunConfig, from_complex, model_to_dict, parse_config, parse_config_dict
from .errors import ConfigError, OpenXXXError

log = logging.getLogger(__name__)


def _finite_or_none(x):
    if x is None:
        return None
    x = float(x)
    return x if abs(x) != float("inf") and x == x else None


def _write_json(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out_path:
        Path(out_path).write_text(text + "\n")
    else:
        print(text)


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_csv(header, rows, out_path: str | None) -> None:
    target = open(out_path, "w", newline="") if out_path else sys.stdout
    try:
        writer = csv.writer(target)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt_cell(v) for v in row])
    finally:
        if out_path:
            target.close()


def _load(config_path: str | None, seed: int | None, fmt: str | None, out: str | None) -> RunConfig:
    cfg = parse_config(config_path) if config_path else config_mod.default_config()
    if seed is not None:
        try:
            cfg = dataclasses.replace(cfg, solver=dataclasses.replace(cfg.solver, seed=seed))
        except ValueError as exc:
            raise ConfigError(f"--seed: {exc}") from exc
    if fmt is not None:
        cfg = dataclasses.replace(cfg, format=fmt)
    if out is not None:
        cfg = dataclasses.replace(cfg, output_path=out)
    if cfg.checks != "all":
        unknown = [c for c in cfg.checks if c not in verify.registry()]
        if unknown:
            raise ConfigError(f"checks: unknown check names {unknown}")
    return cfg


# --- verify ------------------------------------------------------------------------

def _verify_payload(report: verify.VerificationReport) -> dict:
    return {
        "command": "verify",
        "seed": report.seed,
        "params": model_to_dict(report.params),
        "all_pass": report.all_pass,
        "checks": [
            {
                "name": c.name,
                "n_sites": c.n_sites,
                "n_samples": c.n_samples,
                "residual": _finite_or_none(c.residual),
                "tol": c.tol,
                "verdict": c.verdict,
                "gating": c.gating,
                "wall_time": c.wall_time,
                "reason": c.reason,
            }
            for c in report.checks
        ],
    }


def cmd_verify(config_path: str | None, out: str | None = None, fmt: str | None = None,
               seed: int | None = None) -> int:
    try:
        cfg = _load(config_path, seed, fmt, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        report = verify.run_suite(
            cfg.model,
            checks=cfg.checks,
            seed=cfg.solver.seed,
            n_samples=cfg.n_samples,
            solver_cfg=cfg.solver,
        )
    except OpenXXXError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    for c in report.checks:
        residual = "" if c.residual is None else f" residual={c.residual:.3e} tol={c.tol:.1e}"
        extra = "" if c.gating else " [experimental]"
        reason = f" ({c.reason})" if c.reason else ""
        print(f"{c.verdict:>7}  {c.name}[N={c.n_sites}]{residual}{extra}{reason}")
    payload = _verify_payload(report)
    if cfg.format == "csv":
        rows = [
            (c["name"], c["n_sites"], c["n_samples"], c["residual"], c["tol"],
             c["verdict"], c["gating"], c["wall_time"], c["reason"])
            for c in payload["checks"]
        ]
        _write_csv(
            ("name", "n_sites", "n_samples", "residual", "tol", "verdict", "gating",
             "wall_time", "reason"),
            rows,
            cfg.output_path,
        )
    else:
        _write_json(payload, cfg.output_path)
    print(f"suite: {'pass' if report.all_pass else 'FAIL'}")
    return 0 if report.all_pass else 1


# --- solve --------------------------------------------------------------------------

def _root_set_payload(rs) -> dict:
    return {
        "roots": [from_complex(r) for r in rs.roots],
        "residual_norm": rs.residual_norm,
        "source": rs.source,
        "signature": [from_complex(s) for s in rs.signature],
    }


def cmd_solve(config_path: str | None, out: str | None = None, fmt: str | None = None,
              seed: int | None = None) -> int:
    try:
        cfg = _load(config_path, seed, fmt, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        stats: dict = {}
        sets = bethe.solve_bethe(cfg.model, cfg.solver, stats=stats)
    except OpenXXXError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
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
        "root_sets": [_root_set_payload(rs) for rs in sets],
    }
    if cfg.format == "csv":
        rows = [
            (i, k, r.real, r.imag, rs.residual_norm)
            for i, rs in enumerate(sets)
            for k, r in enumerate(rs.roots)
        ]
        _write_csv(
            ("set_index", "root_index", "root_re", "root_im", "residual_norm"),
            rows,
            cfg.output_path,
        )
    else:
        _write_json(payload, cfg.output_path)
    print(f"solve: {len(sets)} inequivalent root sets")
    return 0


# --- spectrum ------------------------------------------------------------------------

def _coverage_payload(cover, cfg: RunConfig) -> dict:
    curves = []
    for m in cover.matches:
        curves.append(
            {
                "curve_id": m.curve_id,
                "degree": m.curve.degree,
                "coeffs": [from_complex(c) for c in m.curve.coeffs],
                "matched": m.matched,
                "excitations": m.excitations,
                "match_error": _finite_or_none(m.match_error),
                "eigen_residual": _finite_or_none(m.eigen_residual),
                "degenerate": m.degenerate,
                "signature": (
                    [from_complex(s) for s in m.matched_roots.signature] if m.matched else None
                ),
            }
        )
    return {
        "command": "spectrum",
        "seed": cfg.solver.seed,
        "params": model_to_dict(cfg.model),
        "mode": cover.mode,
        "matched_count": cover.matched_count,
        "unmatched_count": cover.unmatched_count,
        "curves": curves,
    }


def _run_coverage(cfg: RunConfig):
    return bethe.cover_spectrum(cfg.model, cfg.solver, match_tol=cfg.spectrum.match_tol)


def cmd_spectrum(config_path: str | None, out: str | None = None, fmt: str | None = None,
                 seed: int | None = None) -> int:
    try:
        cfg = _load(config_path, seed, fmt, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        cover = _run_coverage(cfg)
    except OpenXXXError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    payload = _coverage_payload(cover, cfg)
    if cfg.format == "csv":
        rows = [
            (c["curve_id"], c["matched"], c["excitations"], c["match_error"],
             c["eigen_residual"], c["degenerate"])
            for c in payload["curves"]
        ]
        _write_csv(
            ("curve_id", "matched", "excitations", "match_error", "eigen_residual",
             "degenerate"),
            rows,
            cfg.output_path,
        )
    else:
        _write_json(payload, cfg.output_path)
    print(
        f"spectrum: {cover.matched_count}/{len(cover.matches)} curves matched "
        f"({cover.mode} mode)"
    )
    return 0


# --- sweep ---------------------------------------------------------------------------

def _sweep_point(doc: dict, param: str, value_pair: list) -> dict:
    value = complex(value_pair[0], value_pair[1])
    model_doc = dict(doc.get("model", {}))
    theta_idx = config_mod.sweep_theta_index(param)
    if theta_idx is not None:
        theta = [list(t) for t in model_doc["theta"]]
        theta[theta_idx - 1] = [value.real, value.imag]
        model_doc["theta"] = theta
    else:
        model_doc[param] = [value.real, value.imag]
    point_doc = {**doc, "model": model_doc}
    point_cfg = parse_config_dict(point_doc)
    cover = _run_coverage(point_cfg)
    return {
        "param": param,
        "value": [value.real, value.imag],
        "matched_count": cover.matched_count,
        "unmatched_count": cover.unmatched_count,
        "max_match_error": _finite_or_none(cover.max_match_error),
        "max_eigen_residual": _finite_or_none(cover.max_eigen_residual),
    }


def cmd_sweep(config_path: str | None, out: str | None = None, fmt: str | None = None,
              seed: int | None = None, jobs: int = 1) -> int:
    """Run the spectrum match over the config's sweep grid."""
    try:
        cfg = _load(config_path, seed, fmt, out)
        if cfg.sweep is None:
            raise ConfigError("sweep command requires a sweep section in the config")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    doc = config_mod.config_to_dict(cfg)
    doc.pop("sweep", None)
    grid = [[v.real, v.imag] for v in cfg.sweep.grid]
    try:
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                rows = list(
                    pool.map(_sweep_point, [doc] * len(grid), [cfg.sweep.param] * len(grid), grid)
                )
        else:
            rows = [_sweep_point(doc, cfg.sweep.param, v) for v in grid]
    except OpenXXXError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    payload = {
        "command": "sweep",
        "seed": cfg.solver.seed,
        "param": cfg.sweep.param,
        "rows": rows,
    }
    if cfg.format == "csv":
        csv_rows = [
            (r["param"], r["value"][0], r["value"][1], r["matched_count"],
             r["unmatched_count"], r["max_match_error"], r["max_eigen_residual"])
            for r in rows
        ]
        _write_csv(
            ("param", "value_re", "value_im", "matched", "unmatched",
             "max_match_error", "max_eigen_residual"),
            csv_rows,
            cfg.output_path,
        )
    else:
        _write_json(payload, cfg.output_path)
    total = sum(r["matched_count"] for r in rows)
    print(f"sweep: {len(rows)} points, {total} curves matched in total")
    return 0


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
    try:
        if args.command == "verify":
            return cmd_verify(args.config, args.out, args.format, args.seed)
        if args.command == "solve":
            return cmd_solve(args.config, args.out, args.format, args.seed)
        if args.command == "spectrum":
            return cmd_spectrum(args.config, args.out, args.format, args.seed)
        if args.command == "sweep":
            return cmd_sweep(args.config, args.out, args.format, args.seed, jobs=args.jobs)
    except Exception as exc:  # anything unexpected is an internal error
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    return 2


if __name__ == "__main__":
    sys.exit(main())
