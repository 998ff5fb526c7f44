"""Tests of the benchmark itself (not collected by the repository's test run).

    python3 -m pytest -q perfbench/selftest.py

The traced-verify test runs two full suites and takes about 15 s.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from openxxx import bethe, model, scalars, vectors, verify  # noqa: E402
from tracing import Tracer  # noqa: E402

MODULES = {"bethe": bethe, "model": model, "scalars": scalars, "vectors": vectors,
           "verify": verify}


def _spectrum_distance(a, b) -> float:
    """Largest distance from a value of either multiset to the other."""
    d = np.abs(a[:, None] - b[None, :])
    return float(max(d.min(axis=0).max(), d.min(axis=1).max()))


@pytest.mark.parametrize("workload", ["spectrum", "solve"])
def test_relabelled_instances_keep_the_spectrum(workload):
    u = 0.37 - 0.21j
    for base, moved in zip(wl.instances(workload, 0), wl.instances(workload, 5)):
        assert base.name == moved.name
        assert base.params.theta != moved.params.theta or base.params.n_sites == 1
        ev0 = np.linalg.eigvals(model.transfer_matrix(u, base.params))
        ev1 = np.linalg.eigvals(model.transfer_matrix(u, moved.params))
        assert _spectrum_distance(ev0, ev1) <= 1e-9 * max(1.0, np.abs(ev0).max())


def test_default_seed_is_the_pinned_instance():
    insts = wl.instances("spectrum", 0)
    assert [i.name for i in insts] == ["n3-escalation", "n4-trackfail", "n3-triangular"]
    assert insts[2].params.rho == 0
    assert wl.instances("verify", 0)[0].params == wl.config.default_config().model


def test_consecutive_traced_verify_passes_repeat_the_counts():
    """Each pass starts on a cold cover cache, so the cover is redone both times."""
    insts = wl.instances("verify", 0)
    counts = []
    for _ in range(2):
        with Tracer(MODULES) as tracer:
            result = wl.run_pass("verify", insts)
        assert wl.check_pass("verify", result).failed == 0
        summary = tracer.summary()
        counts.append((summary["bethe.dense_spectrum_curves.calls"],
                       summary["bethe.dense_spectrum_curves.tu_builds"]))
    assert counts[0] == counts[1]
    assert counts[0][0] > 0 and counts[0][1] > 0


def test_solve_bypasses_the_transfer_matrix():
    inst = wl.instances("solve", 0)[:1]
    with Tracer(MODULES) as tracer:
        wl.run_pass("solve", inst)
    s = tracer.summary()
    assert s["bethe.dense_spectrum_curves.calls"] == 0
    assert s["model.transfer_matrix.calls"] == 0
    assert s["bethe.solve_bethe.calls"] == 1
    assert s["bethe.solve_bethe.starts"] == 1024
    assert s["bethe.be_batch.rows"] > s["bethe._newton_steps.rows"] > 0


def test_caller_stats_dict_is_still_filled():
    params = wl.instances("solve", 0)[0].params
    stats = {}
    with Tracer(MODULES) as tracer:
        bethe.solve_bethe(params, bethe.SolverConfig(n_starts=16), stats=stats)
    assert stats["n_starts"] == 16
    assert tracer.summary()["bethe.solve_bethe.starts"] == 16


def test_untraced_pass_and_removed_tracer_leave_originals():
    originals = {name: getattr(MODULES[name.split(".")[0]], name.split(".", 1)[1])
                 for name in ("bethe.solve_bethe", "model.transfer_matrix")}
    wl.run_pass("solve", wl.instances("solve", 0)[:1])
    with Tracer(MODULES):
        assert bethe.solve_bethe is not originals["bethe.solve_bethe"]
    for name, fn in originals.items():
        assert getattr(MODULES[name.split(".")[0]], name.split(".", 1)[1]) is fn


def test_absent_layer_is_reported_not_raised():
    fake = types.SimpleNamespace(present=lambda x: x + 1)
    tracer = Tracer({"fake": fake}, layers=("fake.present", "fake.deleted", "gone.layer"))
    with tracer:
        assert fake.present(1) == 2
    assert tracer.absent == ["fake.deleted", "gone.layer"]
    s = tracer.summary()
    assert s["fake.present.calls"] == 1
    assert s["fake.deleted.calls"] == 0 and s["trace.absent_layers"] == 2


def test_self_time_excludes_children_and_recursion_counts_once():
    fake = types.SimpleNamespace()

    def inner(k):
        return fake.inner(k - 1) if k else 0

    def outer():
        return fake.inner(2)

    fake.inner, fake.outer = inner, outer
    tracer = Tracer({"fake": fake}, layers=("fake.outer", "fake.inner"))
    with tracer:
        fake.outer()
    s = tracer.summary()
    assert s["fake.inner.calls"] == 3 and s["fake.outer.calls"] == 1
    outer_span = next(sp for sp in tracer.spans if sp[0] == "fake.outer")
    first_inner = next(sp for sp in tracer.spans if sp[0] == "fake.inner")
    assert s["fake.outer.s"] == pytest.approx(outer_span[2] - outer_span[1])
    assert s["fake.inner.s"] == pytest.approx(first_inner[2] - first_inner[1])
    assert s["fake.outer.self_s"] == pytest.approx(s["fake.outer.s"] - s["fake.inner.s"])


def test_pass_records_cpu_time_per_instance():
    insts = wl.instances("solve", 0)[:2]
    result = wl.run_pass("solve", insts)
    assert len(result.instance_cpu_s) == len(result.instance_s) == 2
    assert all(t > 0 for t in result.instance_cpu_s)


def test_setup_probe_prints_its_cpu_time():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", "spectrum",
         "--seed", "3"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=60, check=True,
    )
    assert 0 < float(proc.stdout.split()[-1]) < 60


def test_without_the_package_the_command_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
