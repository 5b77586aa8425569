"""One workload run in a fresh process.

run.py starts this file with the BLAS thread variables already pinned, so
they are set before numpy loads.  The process imports the package, builds
the workload's operations from the seed, makes the first-call set-up and
prints ``READY``; run.py times set-up up to that line.  Unless
``--setup-only`` is given it then runs the workload and prints one JSON line
with the run's figures.

Untraced run: whole passes over the operation list, one call at a time,
until ``--seconds`` have passed, and at least ``workloads.MIN_PASSES``.
Traced run: one untraced pass, then one pass with the tracer installed; the
per-layer figures come from the second, ``trace.overhead_frac`` from both.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy

import workloads
from run import THREAD_VARS
from tracer import Tracer
from workloads import CliExit, Op

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
# Fewest operations for which a run reports op_p90_s: ten samples beyond it.
P90_MIN_OPS = 100
# Cold imports of the cli and of the modules its commands load.
_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import qnormal3d.cli, numpy; "
    "from qnormal3d import checks, densities, moments, polynomials, quadrature, sampler; "
    "print(time.perf_counter() - t)"
)
IMPORT_PROBES = 3


@dataclass
class PassResult:
    latencies: list[float] = field(default_factory=list)
    outcomes: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    # Names of the parts of each wrong output that failed, where the
    # operation names them.
    failed_parts: list[tuple[str, ...]] = field(default_factory=list)
    out_bytes: int = 0
    digest: str = ""

    @property
    def seconds(self) -> float:
        return sum(self.latencies)


def _feed(h, out) -> None:
    """Hash an operation's output, whatever its type, deterministically."""
    if isinstance(out, np.ndarray):
        h.update(np.ascontiguousarray(out).tobytes())
    elif isinstance(out, bytes):
        h.update(out)
    elif isinstance(out, (tuple, list)):
        for item in out:
            _feed(h, item)
    else:
        h.update(repr(out).encode())


def run_pass(ops: list[Op], tracer: Tracer | None = None) -> PassResult:
    """Call every operation once, in order, then check its output.  Only
    the call is timed; with a tracer, the check's spans carry the op id."""
    res = PassResult()
    h = hashlib.sha256()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        start = time.perf_counter()
        try:
            out = op.run()
            error = ""
        except Exception as exc:  # a raising operation is a result to record
            out, error = None, type(exc).__name__
        res.latencies.append(time.perf_counter() - start)
        parts: tuple[str, ...] = ()
        if error:
            outcome = "failed"
        else:
            try:
                outcome = "ok" if op.check(out) else "wrong"
                if outcome == "wrong" and op.failed_parts is not None:
                    parts = tuple(op.failed_parts(out))
            except Exception:  # a check that cannot run means unverified output
                outcome = "wrong"
            _feed(h, out)
            if isinstance(out, bytes):
                res.out_bytes += len(out)
        res.outcomes.append(outcome)
        res.errors.append(error)
        res.failed_parts.append(parts)
    res.digest = h.hexdigest()
    return res


def _median_import_s() -> float:
    samples = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            capture_output=True,
            text=True,
            env=os.environ.copy(),
            timeout=60,
            check=True,
        )
        samples.append(float(proc.stdout.strip()))
    return statistics.median(samples)


def _versions() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _outcome_summary(workload: str, ops: list[Op], passes: list[PassResult]) -> dict:
    attempted = failed = wrong = 0
    unexpected: set[str] = set()
    bad: dict[str, str] = {}
    for res in passes:
        for op, outcome, error, parts in zip(ops, res.outcomes, res.errors, res.failed_parts):
            attempted += 1
            if outcome == "ok":
                continue
            failed += outcome == "failed"
            wrong += outcome == "wrong"
            bad[op.id] = error or "wrong" + "".join(f" {part}" for part in parts)
            if not workloads.is_baseline_defect(workload, op.id, parts):
                unexpected.add(op.id)
    return {
        "attempted": attempted,
        "raised": failed,
        "wrong": wrong,
        "not_ok": bad,
        "unexpected": sorted(unexpected),
    }


def untraced_run(workload: str, ops: list[Op], seconds: float) -> dict:
    min_passes = workloads.MIN_PASSES.get(workload, 1)
    passes: list[PassResult] = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(ops))
    lat = [t for res in passes for t in res.latencies]
    drawn = [(op.draws, t) for res in passes for op, t in zip(ops, res.latencies) if op.draws]
    summary = _outcome_summary(workload, ops, passes)
    attempted = summary["attempted"]
    # The workload process: this one, or for cli the fresh CLI processes,
    # of which the largest is reported.
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    metrics = {
        "wall_s": statistics.median(res.seconds for res in passes),
        "op_p50_s": statistics.median(lat),
        "op_p90_s": statistics.quantiles(lat, n=10)[-1] if len(lat) >= P90_MIN_OPS else None,
        "draws_per_s": sum(n for n, _ in drawn) / sum(t for _, t in drawn) if drawn else None,
        "fail_frac": summary["raised"] / attempted,
        "wrong_frac": summary["wrong"] / attempted,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    return {
        "passes": len(passes),
        "ops": len(lat),
        "metrics": metrics,
        "digest": passes[0].digest,
        "op_ids": [op.id for op in ops],
        "latencies_s": [res.latencies for res in passes],
        **summary,
    }


def traced_run(workload: str, ops: list[Op], seed: int, out_dir: str) -> dict:
    plain = run_pass(ops)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    is_cli = workload == "cli"
    metrics["cli.import_s"] = _median_import_s() if is_cli else 0.0
    metrics["cli.output_bytes"] = float(traced.out_bytes) if is_cli else 0.0
    metrics["cli.exit_nonzero"] = float(
        sum(1 for e in traced.errors if e == CliExit.__name__)
    )
    metrics["trace.overhead_frac"] = traced.seconds / plain.seconds - 1.0
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{workload}-seed{seed}.npz")
    tracer.write(spans_path)
    return {
        "passes": 2,
        "ops": 2 * len(ops),
        "metrics": metrics,
        "digest": plain.digest,
        "spans": len(tracer.start),
        "spans_file": os.path.relpath(spans_path),
        **_outcome_summary(workload, ops, [plain, traced]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # Operations that overflow or divide by zero are part of the workloads;
    # their outcomes are checked, so numpy's warnings would only be noise.
    warnings.simplefilter("ignore", RuntimeWarning)
    if args.workload == "cli":
        ops = workloads.cli_ops(args.seed, args.smoke, in_process=bool(args.trace))
    else:
        ops = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    workloads.warm_up()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        result = traced_run(args.workload, ops, args.seed, OUT_DIR)
    else:
        result = untraced_run(args.workload, ops, args.seconds)
    result["versions"] = _versions()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
