"""openxxx benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload {verify,spectrum,solve} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` the workload's passes are timed untraced for about ``S`` seconds
(at least one pass) and the end-to-end metrics named in ``BENCHMARK.json``
are printed.  Times are the process's CPU seconds (``time.process_time``),
which on a shared machine leave out the time other processes or the
hypervisor hold the CPU; wall times are kept in the result file.  With ``--trace 1`` one untraced and one traced pass are run and
the per-layer metrics are printed; the span tree is written under
``perfbench/results/``.  The last stdout line is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the machine facts.  Outputs are checked after the timed region; a failed
check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 5

VERIFY_FAMILIES = (
    "foundations", "exchange", "rotated", "offshell", "n1", "golden", "spectrum", "onshell",
)

# Which end-to-end number each layer should move, and on which workload
# (the prediction a later perf change is held to).
LAYER_MAP = {
    "bethe.dense_spectrum_curves": ("pass_cpu_s, certified_per_cpu_s",
                                    "spectrum, verify; none on solve"),
    "bethe.solve_bethe": ("pass_cpu_s, certified (root sets); certified_per_cpu_s via N=4 "
                          "escalation", "solve, spectrum"),
    "bethe.be_batch": ("pass_cpu_s on solve, then certified_per_cpu_s", "solve, then spectrum"),
    "bethe._newton_steps": ("pass_cpu_s on solve, then certified_per_cpu_s",
                            "solve, then spectrum"),
    "bethe._targeted_solve": ("certified_per_cpu_s, certified, pass_cpu_s on verify",
                              "spectrum, verify; none on solve"),
    "bethe.match_spectrum": ("certified_per_cpu_s (small share)", "spectrum"),
    "bethe._eigen_residual": ("certified_per_cpu_s (small share)", "spectrum"),
    "bethe.cover_spectrum": ("certified_per_cpu_s (small share)", "spectrum"),
    "model.transfer_matrix": ("every time metric except pass_cpu_s on solve",
                              "spectrum, verify"),
    "model.entry_matrices": ("every time metric except pass_cpu_s on solve",
                             "spectrum, verify"),
    "vectors.*": ("pass_cpu_s on verify", "verify"),
    "scalars.eigenvalue_Lambda": ("certified_per_cpu_s, pass_cpu_s on verify",
                                  "spectrum, verify"),
    "scalars.normalized_be_residual": ("certified_per_cpu_s, pass_cpu_s on verify",
                                       "spectrum, verify"),
    "verify.<family>.s": ("pass_cpu_s on verify", "verify"),
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="import and build the instances, then exit (times set-up)")
    return ap.parse_args(argv)


def machine_facts() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: {f: v.get(f) for f in ("name", "version", "openblas configuration")}
                for k, v in deps.items() if k in ("blas", "lapack")}
    except (TypeError, AttributeError):
        pass
    threads = {k: os.environ.get(k) for k in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "nproc": os.cpu_count(),
        "nproc_available": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_lapack": blas,
        "blas_thread_env": threads,
    }


def _setup_seconds(workload: str, seed: int) -> tuple[float, list, list]:
    """Median CPU time of fresh interpreters that import and build the inputs.

    Each probe prints its own ``time.process_time()`` (interpreter start-up
    included) as it exits; wall times are returned alongside for the record.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    cpu, wall = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(cmd, check=True, cwd=ROOT, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, timeout=120)
        wall.append(time.perf_counter() - start)
        cpu.append(float(proc.stdout.split()[-1]))
    return statistics.median(cpu), cpu, wall


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _end_to_end(wl, workload, insts, seconds, seed):
    setup_s, setup_cpu, setup_wall = _setup_seconds(workload, seed)
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(wl.run_pass(workload, insts))
        estimate = statistics.median(p.wall_s for p in passes)
        if time.perf_counter() - start + estimate > seconds:
            break
    tallies = [wl.check_pass(workload, p) for p in passes]
    # Each instance's median over the passes, summed: a slow burst on the
    # shared machine then spoils one instance's sample, not a whole pass.
    pass_cpu_s = sum(statistics.median(ts) for ts in zip(*(p.instance_cpu_s for p in passes)))
    certified = statistics.median(t.certified for t in tallies)
    metrics = {
        "pass_cpu_s": pass_cpu_s,
        "certified": certified,
        "certified_per_cpu_s": certified / pass_cpu_s,
        "peak_rss_mb": _peak_rss_mb(),
        "setup_s": setup_s,
    }
    detail = {"setup_cpu_s": setup_cpu, "setup_wall_s": setup_wall,
              "pass_wall_s": sum(statistics.median(ts)
                                 for ts in zip(*(p.instance_s for p in passes))),
              "passes": [{"wall_s": p.wall_s, "instance_s": p.instance_s,
                          "instance_cpu_s": p.instance_cpu_s,
                          "certified": t.certified, "certifiable": t.certifiable,
                          "raised": t.raised, "notes": t.notes}
                         for p, t in zip(passes, tallies)]}
    return metrics, tallies, detail


def _traced(wl, workload, insts, seed):
    from openxxx import bethe, model, scalars, vectors, verify
    from tracing import Tracer

    plain = wl.run_pass(workload, insts)
    tracer = Tracer({"bethe": bethe, "model": model, "scalars": scalars,
                     "vectors": vectors, "verify": verify})
    with tracer:
        traced = wl.run_pass(workload, insts)
    tallies = [wl.check_pass(workload, p) for p in (plain, traced)]
    metrics = tracer.summary()
    metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
    metrics["bench.pass_wall_s"] = plain.wall_s
    for fam in VERIFY_FAMILIES:
        metrics[f"verify.{fam}.s"] = sum(
            c.wall_time for inst, out in traced.outputs if hasattr(out, "checks")
            for c in out.checks if c.name.startswith(fam + ".")
        )
    checked = tallies[1]
    metrics["bench.fail_frac"] = (
        (checked.failed + checked.raised) / checked.attempted if checked.attempted else 0.0
    )
    metrics["bench.uncertified"] = checked.certifiable - checked.certified
    RESULTS.mkdir(exist_ok=True)
    tracer.write_spans(RESULTS / f"{workload}-seed{seed}-spans.json.gz")
    detail = {"absent_layers": tracer.absent, "untraced_s": plain.wall_s,
              "traced_s": traced.wall_s, "layers": metrics}
    return metrics, tallies, detail


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "openxxx" / "__init__.py").is_file():
        print(f"perfbench: no openxxx package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    insts = wl.instances(args.workload, args.seed)
    if args.setup_probe:
        print(time.process_time())
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        metrics, tallies, detail = _traced(wl, args.workload, insts, args.seed)
        wanted = spec["per_layer"]
    else:
        metrics, tallies, detail = _end_to_end(wl, args.workload, insts, args.seconds, args.seed)
        wanted = spec["end_to_end"]
    total = wl.Tally()
    for t in tallies:
        total.add(t)
    result = {
        "correct": total.failed == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
                    for m in wanted},
    }
    facts = machine_facts()
    RESULTS.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "instances": [i.name for i in insts], "facts": facts,
              "layer_map": LAYER_MAP, "result": result, "detail": detail}
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")
    for note in total.notes:
        print(f"perfbench: {note}", file=sys.stderr)
    print(json.dumps({"facts": facts}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
