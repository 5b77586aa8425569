"""Span tracer for the benchmark's traced pass.

``Tracer.install`` wraps every public function of each qnormal3d module and
rebinds the wrapper wherever a qnormal3d module holds the original, so that
calls between layers (``checks.integrate1d``, ``moments.integrate2d``,
``sampler.f_n``, ...) pass through it.  ``Tracer.uninstall`` puts the
originals back, so an untraced pass runs the program unchanged.

A span records its name, start, end, parent span and the operation id the
runner set.  Spans are appended to in-memory arrays and written out once,
when the run ends.  Counts (points evaluated, quadrature nodes, draws,
check reports) are taken in the same wrappers, at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from array import array

import numpy as np

from qnormal3d import checks

# Layers in dependency order; each is one module of the package.
LAYERS = (
    "qcore",
    "densities",
    "polynomials",
    "quadrature",
    "moments",
    "sampler",
    "checks",
    "cli",
)

# Densities reported one by one (self time per function).
DENSITY_FUNCTIONS = (
    "f_n",
    "f_cn",
    "f_r",
    "f_z",
    "f_yz",
    "f_3d",
    "pm_kernel",
    "f_x_given_yz",
)
QUADRATURE_FUNCTIONS = ("integrate1d", "integrate2d", "integrate3d", "gram_matrix")
SUITES = tuple(checks.SUITES)

_perf = time.perf_counter


def _public_functions(module):
    """Functions defined in ``module`` whose names do not start with '_'."""
    for name, obj in vars(module).items():
        if (
            not name.startswith("_")
            and inspect.isfunction(obj)
            and obj.__module__ == module.__name__
        ):
            yield name, obj


def _points(args) -> int:
    """Number of points a vectorized call evaluates: the broadcast size of
    its array arguments, or 1 for an all-scalar call."""
    shapes = [a.shape for a in args if isinstance(a, np.ndarray)]
    return math.prod(np.broadcast_shapes(*shapes)) if shapes else 1


class Tracer:
    """In-memory spans plus per-span counters for one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.error = array("b")
        self.points = array("q")
        self.op_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        # Per-span extras, keyed by span index.
        self.nodes: dict[int, tuple[int, int]] = {}
        self.draws: dict[int, tuple[int, tuple]] = {}
        self.reports: dict[int, tuple[int, int]] = {}

    # -- span bookkeeping -------------------------------------------------

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _open(self, name_id: int, points: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.points.append(points)
        self.error.append(0)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(_perf())
        return idx

    def _close(self, idx: int, failed: bool) -> None:
        self.end[idx] = _perf()
        self.error[idx] = 1 if failed else 0
        self._stack.pop()

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, layer: str, fname: str, fn):
        tracer = self
        name_id = self._name_id(f"{layer}.{fname}")
        count_points = layer in ("densities", "polynomials")

        if layer == "quadrature" and fname in QUADRATURE_FUNCTIONS:
            # The integrand (the weight, for gram_matrix) is wrapped to count
            # the points each refinement level evaluates.
            slot = 1 if fname == "gram_matrix" else 0

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                levels: list[int] = []
                inner = args[slot] if len(args) > slot else kwargs.get(
                    "weight" if slot else "f"
                )

                def counted(*xs):
                    out = inner(*xs)
                    levels.append(int(np.asarray(out).size))
                    return out

                if len(args) > slot:
                    args = args[:slot] + (counted,) + args[slot + 1 :]
                else:
                    kwargs["weight" if slot else "f"] = counted
                idx = tracer._open(name_id, 0)
                try:
                    out = fn(*args, **kwargs)
                except BaseException:
                    tracer._close(idx, True)
                    raise
                finally:
                    tracer.nodes[idx] = (sum(levels), levels[-1] if levels else 0)
                tracer._close(idx, False)
                return out

            return traced

        if layer == "sampler" and fname == "sample_3d":

            @functools.wraps(fn)
            def traced(p, cfg, *args, **kwargs):
                idx = tracer._open(name_id, 0)
                try:
                    out = fn(p, cfg, *args, **kwargs)
                except BaseException:
                    tracer._close(idx, True)
                    raise
                tracer._close(idx, False)
                key = (p.rho12, p.rho13, p.rho23, p.q, cfg.grid_points)
                tracer.draws[idx] = (int(out.shape[0]), key)
                return out

            return traced

        if layer == "checks" and fname == "run_suite":
            by_suite = {s: self._name_id(f"checks.run_suite:{s}") for s in SUITES}

            @functools.wraps(fn)
            def traced(name, *args, **kwargs):
                idx = tracer._open(by_suite.get(name, name_id), 0)
                try:
                    out = fn(name, *args, **kwargs)
                except BaseException:
                    tracer._close(idx, True)
                    raise
                tracer._close(idx, False)
                tracer.reports[idx] = (len(out), sum(1 for r in out if r.passed))
                return out

            return traced

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name_id, _points(args) if count_points else 0)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx, True)
                raise
            tracer._close(idx, False)
            return out

        return traced

    def install(self) -> None:
        """Wrap every layer's public functions and rebind them everywhere a
        qnormal3d module bound the original."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"qnormal3d.{layer}") for layer in LAYERS]
        replacement = {}
        for layer, module in zip(LAYERS, modules):
            for fname, fn in _public_functions(module):
                replacement[id(fn)] = (fn, self._wrap(layer, fname, fn))
        consumers = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "qnormal3d" or name.startswith("qnormal3d."))
        ]
        for module in consumers:
            for attr, value in list(vars(module).items()):
                hit = replacement.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in self._saved:
            setattr(module, attr, value)
        self._saved.clear()

    # -- results --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "error": np.frombuffer(self.error, dtype=np.int8).copy(),
            "points": np.frombuffer(self.points, dtype=np.int64).copy(),
        }

    def write(self, path: str) -> None:
        """Write every span (and the name table) to one compressed file."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and times from the recorded spans.

        ``self_s`` is a span's duration minus the time its direct child
        spans cover; ``busy_s`` sums the outermost spans of a layer (or of
        one function), so nested calls inside the layer count once.
        """
        a = self.arrays()
        n = len(a["start"])
        dur = a["end"] - a["start"]
        child = np.zeros(n)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_t = dur - child

        span_name = np.array(self.names + [""])[a["name"]]
        layer_of = np.array([nm.split(".", 1)[0] for nm in self.names] + [""])
        span_layer = layer_of[a["name"]]
        pidx = np.where(has_parent, a["parent"], 0)
        parent_layer = np.where(has_parent, span_layer[pidx], "")
        parent_name = np.where(has_parent, span_name[pidx], "")

        def in_layer(layer):
            return span_layer == layer

        def named(name):
            return span_name == name

        def total(values, mask):
            return float(np.sum(values[mask]))

        def busy_layer(layer):
            return total(dur, in_layer(layer) & (parent_layer != layer))

        def busy_named(*names):
            mask = np.isin(span_name, names) & ~np.isin(parent_name, names)
            return total(dur, mask)

        m: dict[str, float] = {}
        m["qcore.calls"] = total(np.ones(n), in_layer("qcore"))
        m["qcore.self_s"] = total(self_t, in_layer("qcore"))

        dens = in_layer("densities")
        m["densities.calls"] = total(np.ones(n), dens)
        m["densities.points"] = total(a["points"].astype(float), dens)
        m["densities.self_s"] = total(self_t, dens)
        m["densities.ns_per_point"] = (
            1e9 * m["densities.self_s"] / m["densities.points"]
            if m["densities.points"]
            else 0.0
        )
        m["densities.errors"] = total(a["error"].astype(float), dens)
        for fname in DENSITY_FUNCTIONS:
            m[f"densities.{fname}.self_s"] = total(self_t, named(f"densities.{fname}"))

        quad = in_layer("quadrature")
        m["quadrature.calls"] = total(np.ones(n), quad)
        m["quadrature.self_s"] = total(self_t, quad)
        m["quadrature.busy_s"] = busy_layer("quadrature")
        m["quadrature.errors"] = total(a["error"].astype(float), quad)
        all_nodes = sum(v[0] for v in self.nodes.values())
        final_nodes = sum(v[1] for v in self.nodes.values())
        m["quadrature.nodes"] = float(all_nodes)
        m["quadrature.useful_ratio"] = final_nodes / all_nodes if all_nodes else 0.0
        for fname in QUADRATURE_FUNCTIONS:
            m[f"quadrature.{fname}.busy_s"] = busy_named(f"quadrature.{fname}")

        poly = in_layer("polynomials")
        m["polynomials.calls"] = total(np.ones(n), poly)
        m["polynomials.points"] = total(a["points"].astype(float), poly)
        m["polynomials.self_s"] = total(self_t, poly)

        mom = in_layer("moments")
        m["moments.calls"] = total(np.ones(n), mom)
        m["moments.self_s"] = total(self_t, mom)
        m["moments.oracle.busy_s"] = busy_named("moments.quadrature_oracle")

        m["sampler.sample_3d.busy_s"] = busy_named("sampler.sample_3d")
        m["sampler.sample_3d.draws"] = float(sum(v[0] for v in self.draws.values()))
        fixed_s, us_per_draw = self._fit_draw_cost(dur)
        m["sampler.sample_3d.fixed_s"] = fixed_s
        m["sampler.sample_3d.us_per_draw"] = us_per_draw
        m["sampler.cdf.busy_s"] = busy_named("sampler.cdf_fn", "sampler.cdf_r")
        m["sampler.ks.self_s"] = total(self_t, named("sampler.ks_statistic"))
        m["sampler.mc_moment.self_s"] = total(self_t, named("sampler.mc_moment"))
        m["sampler.errors"] = total(a["error"].astype(float), in_layer("sampler"))

        reports = passed = 0
        for idx, (count, ok) in self.reports.items():
            reports += count
            passed += ok
        for suite in SUITES:
            m[f"checks.{suite}.busy_s"] = busy_named(f"checks.run_suite:{suite}")
        m["checks.reports"] = float(reports)
        m["checks.pass_ratio"] = passed / reports if reports else 0.0

        m["cli.main.busy_s"] = busy_named("cli.main")
        # main's own time plus that of the cli helpers it calls (argument
        # parsing, table building, formatting): the cli layer's self time.
        m["cli.main.self_s"] = total(self_t, in_layer("cli"))
        return m

    def _fit_draw_cost(self, dur: np.ndarray) -> tuple[float, float]:
        """Fixed seconds and microseconds per draw of sample_3d, fitted by
        least squares over calls that share parameters but differ in n."""
        groups: dict[tuple, list[tuple[int, float]]] = {}
        for idx, (n, key) in self.draws.items():
            groups.setdefault(key, []).append((n, float(dur[idx])))
        fixed, slope, used = 0.0, 0.0, 0
        for calls in groups.values():
            ns = np.array([c[0] for c in calls], dtype=float)
            ts = np.array([c[1] for c in calls])
            if len(set(ns)) < 2:
                continue
            b, a0 = np.polyfit(ns, ts, 1)
            fixed += a0
            slope += b
            used += 1
        if not used:
            return 0.0, 0.0
        return fixed / used, 1e6 * slope / used

