"""Benchmark workloads: seeded instances, one timed pass, and output checks.

Every workload is a fixed list of pinned instances.  The ``--seed`` argument
relabels their inhomogeneities (a permutation of the theta_j and sign flips
theta_j -> -theta_j).  The eigenvalue formula depends on the theta_j only
through the products of (u+1)^2 - theta_j^2 and u^2 - theta_j^2, so every
relabelling has the same spectrum, Bethe roots and verdicts while the matrices
the program builds differ.  Seed 0 is the identity and reproduces the ROADMAP
baselines; a count that moves with the seed therefore flags a numerical
fragility, not a different problem.

A pass runs every instance once and times each instance in wall time and in
the process's CPU time.  Outputs are checked afterwards, outside the timed
region, against ``np.linalg.eigvals`` of the transfer matrix and a recomputed
Bethe residual.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

import numpy as np

from openxxx import bethe, config, model, scalars, verify
from openxxx.bethe import SolverConfig
from openxxx.errors import OpenXXXError, PoleError

WORKLOADS = ("verify", "spectrum", "solve")

# A matched curve is certified when its eigen-residual is at most this.
CERTIFY_EIGEN_RESIDUAL = 1e-7
# Independent check of a spectral value against eigvals(t(u)), relative to
# the largest eigenvalue magnitude (floored at 1).
EIGVALS_TOL = 1e-6
# Fixed spectral points off every curve-fitting circle the package uses.
CHECK_POINTS = (0.31 + 0.12j, -0.87 + 0.64j, 0.68 - 0.79j, -0.18 - 0.41j)

SPECTRUM_SOLVER = SolverConfig(seed=7)
# What `openxxx verify` runs without --config (parsed once, as set-up).
VERIFY_CONFIG = config.default_config()


@dataclass(frozen=True)
class Instance:
    name: str
    params: object
    # Error type this pinned instance is known to raise today (a ROADMAP
    # regression input).  Raising it is recorded, not counted as failed; the
    # instance's curves still count as uncertified.
    known_error: str | None = None


@dataclass
class PassResult:
    wall_s: float
    outputs: list  # (instance, result or the OpenXXXError raised)
    instance_s: list  # wall time of each instance, in order
    instance_cpu_s: list  # CPU time of the process during each instance, in order


@dataclass
class Tally:
    """Checked outcome of one or more passes."""

    attempted: int = 0
    failed: int = 0
    raised: int = 0  # every OpenXXXError, the known ones included
    certified: int = 0
    certifiable: int = 0
    notes: list = field(default_factory=list)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.raised += other.raised
        self.certified += other.certified
        self.certifiable += other.certifiable
        self.notes.extend(other.notes)


# --- instances -------------------------------------------------------------------

def _draws(generator_seed: int, sizes) -> list:
    rng = np.random.default_rng(generator_seed)
    return [verify.random_params(rng, n) for n in sizes]


def relabel(params, rng):
    """Permute the inhomogeneities and flip their signs (spectrum preserving)."""
    n = params.n_sites
    perm = rng.permutation(n)
    signs = rng.choice((-1.0, 1.0), size=n)
    theta = tuple(signs[j] * params.theta[perm[j]] for j in range(n))
    return model.ModelParams.create(
        theta, params.p, params.q, params.xi_plus, params.xi_minus,
        params.eta_plus, params.eta_minus, branch=params.branch,
    )


def instances(workload: str, seed: int) -> list[Instance]:
    """The workload's pinned instances, relabelled by ``seed`` (0 = identity)."""
    if workload == "verify":
        pinned = [Instance("default-config", VERIFY_CONFIG.model)]
    elif workload == "spectrum":
        # The ROADMAP's N=4 generic cover (16/16 in 25-30 s) is too long for a
        # median over passes within one run; this N=3 draw is the first of
        # default_rng(11) whose cover needs an escalation round, so tracking,
        # targeted and blind escalation are all timed.
        triangular = _draws(11, (1, 2, 3))[2].replace_couplings(xi_minus=0.0)
        pinned = [
            Instance("n3-escalation", _draws(11, (3, 3, 3))[2]),
            Instance("n4-trackfail", _draws(7, (1, 2, 3, 4))[3], known_error="TrackingError"),
            Instance("n3-triangular", triangular),
        ]
    elif workload == "solve":
        sizes = (4, 4, 4, 5, 5, 5)
        pinned = [
            Instance(f"n{n}-{i % 3}", p) for i, (n, p) in enumerate(zip(sizes, _draws(11, sizes)))
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if seed == 0:
        return pinned
    rng = np.random.default_rng(seed)
    return [Instance(i.name, relabel(i.params, rng), i.known_error) for i in pinned]


# --- one pass ----------------------------------------------------------------------

def clear_caches() -> None:
    """Empty every functools cache on the package's module attributes.

    The CLI pays the cold cost on every run (``verify._cached_cover`` is an
    in-process lru_cache), so every pass starts cold as well.
    """
    mods = [m for name, m in list(sys.modules.items()) if name.startswith("openxxx.")]
    for mod in mods:
        for value in list(vars(mod).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def _operation(workload: str, inst: Instance):
    if workload == "verify":
        cfg = VERIFY_CONFIG
        return verify.run_suite(
            inst.params, checks=cfg.checks, seed=cfg.solver.seed,
            n_samples=cfg.n_samples, solver_cfg=cfg.solver,
        )
    if workload == "spectrum":
        return bethe.cover_spectrum(inst.params, SPECTRUM_SOLVER)
    return bethe.solve_bethe(inst.params, SolverConfig())


def run_pass(workload: str, insts: list[Instance]) -> PassResult:
    """Run every instance once on cold caches; failures are caught per instance."""
    clear_caches()
    outputs, times, cpu_times = [], [], []
    start = time.perf_counter()
    for inst in insts:
        began, cpu_began = time.perf_counter(), time.process_time()
        try:
            outputs.append((inst, _operation(workload, inst)))
        except OpenXXXError as exc:
            outputs.append((inst, exc))
        times.append(time.perf_counter() - began)
        cpu_times.append(time.process_time() - cpu_began)
    return PassResult(time.perf_counter() - start, outputs, times, cpu_times)


# --- output checks ------------------------------------------------------------------

def _eigvals_error(params, value_at) -> float:
    """Worst relative distance of value_at(u) to the spectrum of t(u) at CHECK_POINTS."""
    worst = 0.0
    for u in CHECK_POINTS:
        eig = np.linalg.eigvals(model.transfer_matrix(u, params))
        scale = max(1.0, float(np.abs(eig).max()))
        worst = max(worst, float(np.abs(eig - value_at(u)).min()) / scale)
    return worst


def _recertified(rs, params, tol: float) -> bool:
    """The solver's own acceptance test, recomputed from scratch."""
    try:
        return (
            scalars.roots_admissible(rs.roots, params)
            and scalars.normalized_be_residual(rs.roots, params) <= tol
        )
    except PoleError:
        return False


def _is_eigenvalue(rs, params) -> bool:
    """Lambda(u) of the root set lies in the spectrum of t(u) at CHECK_POINTS."""
    try:
        value = _eigvals_error(params, lambda u: scalars.eigenvalue_Lambda(u, rs, params))
    except PoleError:
        return False
    return value <= EIGVALS_TOL


def _check_verify(inst: Instance, report) -> Tally:
    gating = [c for c in report.checks if c.gating]
    bad = [f"{c.name}[N={c.n_sites}]={c.verdict}" for c in gating if c.verdict != "pass"]
    return Tally(
        attempted=len(gating), failed=len(bad), certified=len(gating) - len(bad),
        certifiable=len(gating), notes=bad,
    )


def _check_spectrum(inst: Instance, cover) -> Tally:
    params = inst.params
    tally = Tally(attempted=1, certifiable=params.dim)
    for m in cover.matches:
        if not m.matched:
            continue
        curve_ok = _eigvals_error(params, m.curve) <= EIGVALS_TOL
        if not (curve_ok and _recertified(m.matched_roots, params, SPECTRUM_SOLVER.tol)):
            tally.notes.append(f"{inst.name}: curve {m.curve_id} fails the eigvals/BE check")
            tally.failed = 1
        elif m.eigen_residual is not None and m.eigen_residual <= CERTIFY_EIGEN_RESIDUAL:
            tally.certified += 1
    return tally


def _check_solve(inst: Instance, root_sets) -> Tally:
    """A returned set that fails the solver's own test is a wrong output; one
    that passes it but whose Lambda is not an eigenvalue of t(u) (a spurious
    attractor the guards missed) is counted as uncertified."""
    tol = SolverConfig().tol
    tally = Tally(attempted=1, certifiable=len(root_sets))
    for rs in root_sets:
        if not _recertified(rs, inst.params, tol):
            tally.failed = 1
            tally.notes.append(f"{inst.name}: root set {rs.roots} fails re-certification")
        elif _is_eigenvalue(rs, inst.params):
            tally.certified += 1
        else:
            tally.notes.append(f"{inst.name}: root set {rs.roots} is not an eigenvalue of t(u)")
    return tally


_CHECKS = {"verify": _check_verify, "spectrum": _check_spectrum, "solve": _check_solve}


def check_pass(workload: str, result: PassResult) -> Tally:
    """Check every output of a pass; a raised error is one failed operation
    unless the instance is pinned as known to raise exactly that error."""
    tally = Tally()
    for inst, out in result.outputs:
        if isinstance(out, OpenXXXError):
            known = type(out).__name__ == inst.known_error
            tally.add(Tally(
                attempted=1, failed=0 if known else 1, raised=1,
                certifiable=inst.params.dim if workload == "spectrum" else 0,
                notes=[f"{inst.name}: {type(out).__name__}{' (known)' if known else ''}: {out}"],
            ))
        else:
            tally.add(_CHECKS[workload](inst, out))
    return tally
