"""Benchmark of the qnormal3d numerics stack.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qnormal3d checkout; the package is imported from its
``src`` directory, nothing is installed.  One caller in one process makes
one call at a time (a closed loop).  Each workload runs in a fresh worker
process whose BLAS thread variables are pinned to 1 before numpy loads.

``--trace 0`` measures the end-to-end figures: a table, a line with the
machine and settings, and as the last line of stdout one JSON object with
``correct``, ``attempted``, ``failed`` and the metrics of BENCHMARK.json's
``end_to_end`` list.  ``--trace 1`` makes one untraced and one traced pass
and reports the ``per_layer`` list instead.  Every result is also written to
``bench/out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOADS = ("verify-sweep", "sample-3d", "near-gaussian", "cli")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "QNORMAL3D_THREADS",
)
# One BLAS thread (at most nproc): on a 2-vCPU host a second BLAS thread,
# spinning after each call, slowed work on the other core by about 25%.
THREADS = 1
# Fresh processes timed from start to READY; setup_s is their median.  Half
# are started before the workload process and half after it, so that the
# samples span the run rather than one moment of a host whose speed drifts.
SETUP_PROBES_EACH_SIDE = 5
# The whole run, set-up included, must end within 180 s.
RUN_BUDGET_S = 170.0

# Printed and written to bench/out/, but not in the final JSON line: the
# timings spread from run to run by more than any bound BENCHMARK.json may
# set (see README.md), and the rest are not defined, or are zero, on some
# workloads.  The metrics of the final JSON line, and their units, are the
# ones BENCHMARK.json lists.
REPORTED_ONLY = {
    "wall_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "draws_per_s": "1/s",
    "fail_frac": "1",
    "wrong_frac": "1",
}


def declared_metrics(root: str) -> tuple[dict, dict]:
    """The end_to_end and per_layer metrics of BENCHMARK.json, as name -> unit."""
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


class RunError(Exception):
    """The run could not produce a result."""


def _cpu_model() -> str:
    model = platform.processor()
    if model:
        return model
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip()


def _start(cmd: list[str], env: dict, deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its READY line; returns the process and
    the seconds from start to READY."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
    line = proc.stdout.readline() if ready else ""
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RunError("worker did not get ready")
    return proc, time.perf_counter() - start


def _finish(proc: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RunError("worker ran past the run budget") from None
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")
    return out


def measure(args, root: str) -> tuple[dict, list[float]]:
    deadline = time.monotonic() + RUN_BUDGET_S
    threads = str(min(THREADS, len(os.sched_getaffinity(0))))
    env = dict(os.environ)
    env.update({var: threads for var in THREAD_VARS})
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    cmd = [
        sys.executable,
        os.path.join(BENCH_DIR, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ] + (["--smoke"] if args.smoke else [])
    setup = []

    def probe_setup() -> None:
        for _ in range(0 if args.trace else SETUP_PROBES_EACH_SIDE):
            probe, seconds = _start(cmd + ["--setup-only"], env, deadline)
            _finish(probe, deadline)
            setup.append(seconds)

    probe_setup()
    proc, seconds = _start(cmd, env, deadline)
    setup.append(seconds)
    lines = _finish(proc, deadline).strip().splitlines()
    probe_setup()
    if not lines:
        raise RunError("worker printed no result")
    return json.loads(lines[-1]), setup


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qnormal3d benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="smallest operation lists (harness self-test)"
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qnormal3d", "__init__.py")):
        print("error: run from the root of a qnormal3d checkout (no src/qnormal3d)", file=sys.stderr)
        return 2
    end_to_end, per_layer = declared_metrics(root)
    try:
        result, setup = measure(args, root)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    values = dict(result["metrics"])
    if args.trace:
        final = units = per_layer
    else:
        values["setup_s"] = statistics.median(setup)
        final = end_to_end
        units = {**end_to_end, **REPORTED_ONLY}
    missing = [k for k in final if not isinstance(values.get(k), (int, float))]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "commit": _git_commit(root),
        **result.pop("versions"),
    }
    failed = result["raised"] + result["wrong"]
    record = {
        "env": env,
        "setup_samples_s": setup,
        "metrics": {k: {"value": values.get(k), "unit": u} for k, u in units.items()},
        "undeclared_metrics": sorted(set(values) - set(units)),
        **{k: v for k, v in result.items() if k != "metrics"},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {result['passes']}  operations {result['ops']}")
    for name, unit in units.items():
        print(f"  {name:32s} {_fmt(values.get(name)):>14s} {unit}")
    print(f"  raised {result['raised']}  wrong {result['wrong']}  "
          f"not a baseline defect: {result['unexpected'] or 'none'}")
    if not args.trace:
        print(f"  setup_s samples: {', '.join(f'{s:.4f}' for s in setup)}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": not result["unexpected"],
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in final.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
