"""cmop benchmark: run one workload as a closed loop with one client.

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports cmop from ``src``.
Each op is one CLI command called in-process through ``cmop.cli.main``,
and every op's outputs are checked. ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones from a traced run. Every metric
is printed with its unit; the last line of stdout is one JSON object.
Scratch files go to ``.perfbench/`` in the checkout. README.md explains
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer
from workloads import WORKLOADS, Checker, output_files

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

SETUP_REPS = 3
SERIAL_REPS = 3
CHILD_TIMEOUT_S = 170
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

KEEP_FILES = ("result.json", "spans.json")
DETAIL_ONLY = ("op_s_by_cycle",)  # kept in result.json, too long to print
LAYERS = ("harness", "objective", "solvers.loop", "solvers.oracle", "projection",
          "diagnostics.kkt", "diagnostics.monitors", "cli")


# -- machine record -----------------------------------------------------------


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=False)
    except OSError:
        return None
    return out.stdout.strip() or None


def machine_record() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_env": {v: os.environ[v] for v in BLAS_THREAD_VARS if v in os.environ},
        "git_commit": _git_commit(),
    }


# -- running ops --------------------------------------------------------------


def child_env(blas_threads: int | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if blas_threads is not None:
        env.update({v: str(blas_threads) for v in BLAS_THREAD_VARS})
    return env


def run_child(args: list[str], env: dict) -> tuple[float, dict]:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(CHILD), *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[0]} failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return elapsed, json.loads(proc.stdout.strip().splitlines()[-1])


class Runner:
    """Runs ops in-process and checks each one."""

    def __init__(self, checker, sink):
        import cmop.cli

        self.cli = cmop.cli
        self.checker = checker
        self.sink = sink
        self.next_op = 0

    def run(self, op, tracer=None) -> tuple[float, str | None]:
        op_id = self.next_op
        self.next_op += 1
        with contextlib.redirect_stdout(self.sink):
            if tracer is not None:
                tracer.begin(op_id)
            t0 = time.perf_counter_ns()
            try:
                status = self.cli.main(list(op.argv))
            except SystemExit as exc:
                status = exc.code
            except Exception:  # an op that raises is a failed op; keep measuring
                traceback.print_exc()
                status = "exception"
            t1 = time.perf_counter_ns()
            if tracer is not None:
                tracer.end(t0, t1)
        reason = self.checker.check(op, status, in_process=True)
        if reason is not None:
            print(f"op {op.key} failed: {reason}", file=sys.stderr)
        return (t1 - t0) / 1e9, reason

    def run_cold(self, op) -> tuple[float, str | None]:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "cmop.cli", *op.argv], cwd=ROOT,
                              env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
                              check=False)
        elapsed = time.perf_counter() - t0
        reason = self.checker.check(op, proc.returncode, in_process=False)
        if reason is not None:
            print(f"cold op {op.key} failed: {reason}\n{proc.stderr[-2000:]}", file=sys.stderr)
        return elapsed, reason


# -- the two kinds of run -----------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float] | None:
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(samples)
    for pct in TAIL_PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= TAIL_MIN_BEYOND:
            return pct, statistics.quantiles(samples, n=1000, method="inclusive")[round(pct * 10) - 1]
    return None


def end_to_end(workload, runner, seconds: float, setup_s: float):
    """Whole cycles until ``seconds`` of in-process time are up. The cold
    ops are spread over the same window, one after a cycle once its share
    of the time has passed, so a slow spell on a shared machine hits few
    of them."""
    samples, cold, failed, by_cycle = [], [], 0, []
    pending = list(workload.cold_ops)
    start = time.perf_counter()
    cycles = 0
    while True:
        for op in workload.cycle(cycles):
            dt, reason = runner.run(op)
            samples.append(dt)
            failed += reason is not None
        by_cycle.append(samples[-len(workload.cycle(cycles)):])
        cycles += 1
        elapsed = time.perf_counter() - start - sum(dt for dt, _ in cold)
        if pending and elapsed >= seconds * (len(cold) + 1) / (len(workload.cold_ops) + 1):
            cold.append(runner.run_cold(pending.pop(0)))
        if elapsed >= seconds:
            break
    cold.extend(runner.run_cold(op) for op in pending)
    failed += sum(reason is not None for _, reason in cold)
    attempted = len(samples) + len(cold)
    metrics = {
        "op_s_p50": (statistics.median(samples), "s"),
        "ops_per_s": (len(samples) / sum(samples), "1/s"),
        "cold_op_s": (statistics.median(dt for dt, _ in cold), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    found = tail(samples)
    extra = {
        "ops": len(samples),
        "cycles": cycles,
        "cold_op_s_samples": [dt for dt, _ in cold],
        "op_s_by_cycle": by_cycle,
        "fail_frac": failed / attempted,
        "op_s_tail": None if found is None else {"percentile": found[0], "value_s": found[1],
                                                  "samples": len(samples)},
    }
    return metrics, extra, attempted, failed, True


def layers(workload, runner, seconds: float, write_instance_s: float, work: Path):
    """Alternate untraced and traced passes over the same ops until the time
    is up; counts of every traced pass must agree exactly."""
    tracer = Tracer()
    untraced_s = traced_s = 0.0
    traced_ops = failed = attempted = 0
    pass_counts = []
    start = time.perf_counter()
    while True:
        for op in workload.trace_pass:
            dt, reason = runner.run(op)
            untraced_s += dt
            failed += reason is not None
            attempted += 1
        tracer.start_pass()
        tracer.install()
        try:
            for op in workload.trace_pass:
                dt, reason = runner.run(op, tracer)
                traced_s += dt
                failed += reason is not None
                attempted += 1
                traced_ops += 1
                tracer.counts["harness.bytes_written"] += sum(
                    p.stat().st_size for p in output_files(op))
        finally:
            tracer.uninstall()
        pass_counts.append(tracer.end_pass())
        if time.perf_counter() - start >= seconds:
            break
    counts_repeat = all(c == pass_counts[0] for c in pass_counts)
    if not counts_repeat:
        print("exact counts differ between traced passes", file=sys.stderr)
    tracer.write(work / "spans.json")

    inst, alpha, tau = workload.serial
    _, serial = run_child(["serial-solve", str(inst.path), alpha, tau, str(SERIAL_REPS)],
                          child_env(blas_threads=1))

    c = pass_counts[0]
    passes = len(pass_counts)
    by_layer, by_name = tracer.self_ns()
    per_op = 1e-9 / traced_ops
    op_s = traced_s / traced_ops
    loop_ns = tracer.inclusive_ns("solvers.loop")
    read_ns = by_name["cmop.harness.read_instance"]

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {
        "harness.read_instance_s": (read_ns * per_op, "s"),
        "harness.read_instance_mb_per_s": (
            ratio(c["harness.read_instance_bytes"] * passes / 1e6, read_ns * 1e-9), "MB/s"),
        "harness.write_solution_s": (by_name["cmop.harness.write_solution"] * per_op, "s"),
        "harness.read_solution_s": (by_name["cmop.harness.read_solution"] * per_op, "s"),
        "harness.write_trace_s": (by_name["cmop.harness.write_trace"] * per_op, "s"),
        "harness.write_instance_s": (write_instance_s, "s"),
        "harness.bytes_read": (c["harness.bytes_read"], "count"),
        "harness.bytes_written": (c["harness.bytes_written"], "count"),
        "objective.precompute_s": (by_layer["objective"] * per_op, "s"),
        "objective.precompute_calls": (c["objective.precompute_calls"], "count"),
        "objective.precompute_per_instance": (
            ratio(c["objective.precompute_calls"], c["instances"]), "count"),
        "solvers.loop_s": (by_layer["solvers.loop"] * per_op, "s"),
        "solvers.iterations": (c["solvers.iterations"], "count"),
        "solvers.flops": (c["solvers.flops"], "count"),
        "solvers.us_per_iter": (ratio(loop_ns / 1e3, c["solvers.iterations"] * passes), "us"),
        "solvers.gflops": (ratio(c["solvers.flops"] * passes, loop_ns), "GF/s"),
        "solvers.gflops_1t": (serial["flops"] / serial["seconds"] / 1e9, "GF/s"),
        "solvers.converged_frac": (ratio(c["solvers.converged"], c["solvers.solves"]), "fraction"),
        "solvers.oracle_s": (by_layer["solvers.oracle"] * per_op, "s"),
        "solvers.oracle_calls": (c["solvers.oracle_calls"], "count"),
        "solvers.oracle_linear_solves": (c["solvers.oracle_linear_solves"], "count"),
        "projection.project_rows_s": (by_layer["projection"] * per_op, "s"),
        "projection.project_rows_calls": (c["projection.project_rows_calls"], "count"),
        "diagnostics.kkt_s": (by_layer["diagnostics.kkt"] * per_op, "s"),
        "diagnostics.monitors_s": (by_layer["diagnostics.monitors"] * per_op, "s"),
        "diagnostics.checks": (c["diagnostics.checks"], "count"),
        "cmat.calls": (c["cmat.calls"], "count"),
        "cli.self_s": (by_layer["cli"] * per_op, "s"),
        "op_s_traced": (op_s, "s"),
        "trace_overhead_frac": (traced_s / untraced_s - 1.0, "fraction"),
    }
    for layer in LAYERS:
        metrics[f"share.{layer}"] = (by_layer[layer] * per_op / op_s, "fraction")
    extra = {
        "traced_passes": passes,
        "ops_per_pass": len(workload.trace_pass),
        "counts_repeat": counts_repeat,
        "serial_solve": serial,
    }
    return metrics, extra, attempted, failed, counts_repeat


# -- entry point --------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--small", action="store_true",
                        help="reduced instance sizes, for the benchmark's own test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cmop" / "cli.py").is_file():
        print(f"error: no cmop sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, work, args.small)
    machine = machine_record()

    spec = json.dumps([inst.spec() for inst in workload.instances])
    setups = [run_child(["gen", spec], child_env()) for _ in range(SETUP_REPS)]
    gen_s = statistics.median(dt for dt, _ in setups)
    write_instance_s = statistics.median(out["write_instance_s"] for _, out in setups)

    checker = Checker()
    checker.install_capture()
    with open(os.devnull, "w", encoding="ascii") as sink:
        runner = Runner(checker, sink)
        t0 = time.perf_counter()
        warm_failed = sum(runner.run(op)[1] is not None for op in workload.cycle(0))
        setup_s = gen_s + time.perf_counter() - t0

        if args.trace == 0:
            run = end_to_end(workload, runner, args.seconds, setup_s)
        else:
            run = layers(workload, runner, args.seconds, write_instance_s, work)
    metrics, extra, attempted, failed, consistent = run
    correct = failed == 0 and warm_failed == 0 and consistent

    print(f"machine {json.dumps(machine)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} ops attempted, {failed} failed, warm-up failures {warm_failed}")
    for key, value in extra.items():
        if key not in DETAIL_ONLY:
            print(f"{key} {json.dumps(value)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (work / "result.json").write_text(
        json.dumps({"machine": machine, "extra": extra, **result}, indent=1) + "\n",
        encoding="ascii")
    if correct:  # keep a failed run's inputs and outputs for inspection
        for path in work.iterdir():
            if path.is_dir():
                shutil.rmtree(path)
            elif path.name not in KEEP_FILES:
                path.unlink()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
