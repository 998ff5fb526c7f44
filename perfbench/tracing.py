"""Layer tracing from outside the package.

A ``Tracer`` replaces named functions with timing wrappers by setting the
module attribute, so calls that go through the module (``model.transfer_matrix``
from ``bethe``, ``be_batch`` from ``_newton_steps``) are seen.  Nothing inside
``src/`` is touched.  Each call records a span ``[name, start, end, parent]``
in memory; ``summary()`` turns the span tree into inclusive time, self time and
call counts per layer, plus the counters the layer hooks collect.

A layer that no longer exists (a later refactor deleted or renamed it) is
listed in ``absent`` and reported with zero calls; it is never an error.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time
from collections import defaultdict

# Every traced layer, by module and attribute.  A refactor may delete the
# private ones (ROADMAP items 2-3 plan to); they then read as absent.
LAYERS = (
    "bethe.cover_spectrum",
    "bethe.dense_spectrum_curves",
    "bethe._order_against",
    "bethe._greedy_assign",
    "bethe.solve_bethe",
    "bethe._newton_steps",
    "bethe.be_batch",
    "bethe._targeted_solve",
    "bethe.match_spectrum",
    "bethe._eigen_residual",
    "model.transfer_matrix",
    "model.entry_matrices",
    "vectors.b_bar_matrix",
    "vectors.build_bethe_vector",
    "vectors.extract_W",
    "vectors.extract_V",
    "scalars.eigenvalue_Lambda",
    "scalars.normalized_be_residual",
    "verify.run_suite",
)


def reference_probes(n_sites: int) -> int:
    """Probes per curve extraction the tracking design was sized for, 48 * 2^(N-1).

    Fixed here so tu_builds_per_probe stays comparable when the implementation
    changes how many probes it takes.
    """
    return 48 * 2 ** max(n_sites - 1, 0)


def _bound(fn, args, kwargs):
    """Arguments bound to names, or None when the signature no longer fits."""
    try:
        bound = inspect.signature(fn).bind(*args, **kwargs)
    except (TypeError, ValueError):
        return None
    return bound


def _rows(arr) -> int:
    shape = getattr(arr, "shape", ())
    return 1 if len(shape) < 2 else int(shape[0])


class Tracer:
    """Span recorder installed on module attributes; see the module docstring."""

    def __init__(self, modules: dict, layers=LAYERS):
        self.modules = modules
        self.layers = tuple(layers)
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # --- install / remove ------------------------------------------------------

    def install(self) -> None:
        for name in self.layers:
            mod_name, attr = name.split(".", 1)
            mod = self.modules.get(mod_name)
            fn = getattr(mod, attr, None) if mod is not None else None
            if not callable(fn):
                self.absent.append(name)
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn))

    def remove(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # --- recording ---------------------------------------------------------------

    def _wrap(self, name: str, fn):
        hook = getattr(self, "_hook_" + name.replace(".", "_"), None)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                args, kwargs, after = hook(fn, args, kwargs)
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if hook is not None and after is not None:
                after(result)
            return result

        return traced

    # --- layer hooks: (fn, args, kwargs) -> (args, kwargs, after(result) | None) --

    def _hook_bethe_solve_bethe(self, fn, args, kwargs):
        bound = _bound(fn, args, kwargs)
        if bound is None or "stats" not in bound.signature.parameters:
            return args, kwargs, None
        stats = bound.arguments.get("stats")
        if stats is None:
            stats = {}
            bound.arguments["stats"] = stats
        c = self.counts

        def after(_result):
            c["bethe.solve_bethe.starts"] += stats.get("n_starts", 0)
            c["bethe.solve_bethe.converged"] += stats.get("converged", 0)
            c["bethe.solve_bethe.guarded"] += stats.get("discarded_guarded", 0)
            c["bethe.solve_bethe.unique"] += stats.get("unique", 0)

        return bound.args, bound.kwargs, after

    def _hook_bethe_be_batch(self, fn, args, kwargs):
        if args:
            self.counts["bethe.be_batch.rows"] += _rows(args[0])
        return args, kwargs, None

    def _hook_bethe__newton_steps(self, fn, args, kwargs):
        if args:
            self.counts["bethe._newton_steps.rows"] += _rows(args[0])
        return args, kwargs, None

    def _hook_bethe__targeted_solve(self, fn, args, kwargs):
        c = self.counts

        def after(result):
            c["bethe._targeted_solve.found"] += len(result)
            c["bethe._targeted_solve.hits"] += bool(result)

        return args, kwargs, after

    def _hook_bethe_cover_spectrum(self, fn, args, kwargs):
        c = self.counts

        def after(result):
            c["bethe.cover_spectrum.rounds"] += getattr(result, "rounds_used", 0)

        return args, kwargs, after

    def _hook_bethe_dense_spectrum_curves(self, fn, args, kwargs):
        params = args[0] if args else kwargs.get("params")
        n = getattr(params, "n_sites", None)
        if n is not None:
            self.counts["bethe.dense_spectrum_curves.probes"] += reference_probes(n)
        return args, kwargs, None

    # --- summary -------------------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer ``calls``, inclusive ``s`` and ``self_s``, plus hook counters.

        Inclusive time counts only the outermost span of a name on any path,
        so recursion is not double counted.  Self time is a span's duration
        minus the durations of its direct child spans.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        in_dense = [False] * len(spans)
        out: dict[str, float] = defaultdict(float)
        tu_builds = 0
        for i, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            if parent >= 0:
                child[parent] += dur
                in_dense[i] = in_dense[parent] or spans[parent][0] == "bethe.dense_spectrum_curves"
            if name == "model.transfer_matrix" and in_dense[i]:
                tu_builds += 1
            out[name + ".calls"] += 1
            anc = parent
            while anc >= 0 and spans[anc][0] != name:
                anc = spans[anc][3]
            if anc < 0:
                out[name + ".s"] += dur
        for i, (name, start, end, _parent) in enumerate(spans):
            out[name + ".self_s"] += (end - start) - child[i]
        for name in self.layers:
            for key in (".calls", ".s", ".self_s"):
                out.setdefault(name + key, 0.0)
        out.update(self.counts)
        out["bethe.dense_spectrum_curves.tu_builds"] = tu_builds
        out["bethe.dense_spectrum_curves.tu_builds_per_probe"] = _ratio(
            tu_builds, out.get("bethe.dense_spectrum_curves.probes", 0)
        )
        out["bethe.solve_bethe.unique_per_start"] = _ratio(
            out.get("bethe.solve_bethe.unique", 0), out.get("bethe.solve_bethe.starts", 0)
        )
        out["bethe.solve_bethe.starts_per_s"] = _ratio(
            out.get("bethe.solve_bethe.starts", 0), out["bethe.solve_bethe.s"]
        )
        for layer in ("bethe.be_batch", "bethe._newton_steps"):
            out[layer + ".rows_per_s"] = _ratio(out.get(layer + ".rows", 0), out[layer + ".s"])
        out["bethe._targeted_solve.hit_frac"] = _ratio(
            out.get("bethe._targeted_solve.hits", 0), out["bethe._targeted_solve.calls"]
        )
        out["trace.absent_layers"] = len(self.absent)
        return dict(out)

    def write_spans(self, path) -> None:
        """Write the recorded span tree (gzip JSON) for offline inspection."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "names": names,
            "absent": self.absent,
            "columns": ["name", "start", "end", "parent"],
            "spans": [[index[n], s, e, p] for n, s, e, p in self.spans],
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0
