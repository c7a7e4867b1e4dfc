"""Time the fixed-step iteration kernel per iteration, in-process.

Usage, from the root of a source checkout (it imports cmop from ``src``)::

    python3 tools/kernel_bench.py --label after    # adds a run to ./BENCH_kernel.json
    python3 tools/kernel_bench.py --small          # tiny sizes, one round: a smoke test

For gd, pgd and real-augmented it reports the loop's microseconds per
iteration and its achieved GF/s against the documented ``8 N K (N + 1)``
flops per iteration, in two regimes:

* ``paper`` (10 x 5 x 8): Python overhead dominates. Every method solves
  each seed at the step fractions f0.1 .. f0.9 of its guaranteed interval
  with the CLI's defaults (tau 1e-12, trace recorded), as a sweep does.
* ``large`` (1000 x 200 x 256): BLAS dominates. Every method runs a fixed
  number of iterations at f0.5.

Only the kernel is timed: ``cmop.solvers._fixed_step_loop`` is wrapped for
the run, so instance generation, precompute and the real-stacked set-up stay
outside the clock. Each regime runs ``--rounds`` times; a method's figure is
the median over rounds of (loop time / iterations), and ``mean_us_per_iter``
averages the three methods. The record also holds the machine: CPU count,
BLAS library, version and thread count.

The output file maps labels to runs, so one file can hold the runs of two
commits; ``--label`` replaces only the entry with that label.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import cmop.solvers as solvers  # noqa: E402
from cmop import (  # noqa: E402
    SolverConfig,
    gen_instance,
    instance_from_document,
    precompute,
    run_solver,
)
from run import machine_record  # noqa: E402  (perfbench's record of the machine)

METHODS = ("gd", "pgd", "real-augmented")
FRACTIONS = ("f0.1", "f0.3", "f0.5", "f0.7", "f0.9")
# name: (M, N, K, seeds, step fractions, max_iter, rounds)
REGIMES = {
    "paper": ((10, 5, 8), range(8), FRACTIONS, 100_000, 5),
    "large": ((1000, 200, 256), range(1), ("f0.5",), 20, 3),
}
SMALL_REGIMES = {
    "paper": ((10, 5, 8), range(2), FRACTIONS, 100_000, 1),
    "large": ((40, 20, 16), range(1), ("f0.5",), 5, 1),
}


class _LoopClock:
    """Wraps the kernel for the duration of a ``with`` block and sums its
    wall time and iterations."""

    def __enter__(self):
        self.ns = 0
        self.iterations = 0
        self._loop = solvers._fixed_step_loop

        def timed(*args):
            t0 = time.perf_counter_ns()
            result = self._loop(*args)
            self.ns += time.perf_counter_ns() - t0
            self.iterations += result.iterations
            return result

        solvers._fixed_step_loop = timed
        return self

    def __exit__(self, *exc):
        solvers._fixed_step_loop = self._loop


def run_regime(shape, seeds, fractions, max_iter, rounds) -> dict:
    m, n, k = shape
    problems = []
    for seed in seeds:
        instance = instance_from_document(gen_instance(m=m, n=n, k=k, seed=seed))
        problems.append((instance, precompute(instance)))
    flops_per_iter = solvers.per_iteration_flops(n, k)
    out = {"m": m, "n": n, "k": k, "seeds": len(problems), "fractions": list(fractions),
           "max_iter": max_iter, "rounds": rounds, "methods": {}}
    for method in METHODS:
        per_round = []
        for _ in range(rounds):
            with _LoopClock() as clock:
                for instance, pre in problems:
                    for frac in fractions:
                        config = SolverConfig(alpha=frac, max_iter=max_iter)
                        run_solver(instance, pre, method, config)
            per_round.append((clock.ns, clock.iterations))
        us = statistics.median(ns / 1e3 / its for ns, its in per_round)
        out["methods"][method] = {
            "solves": len(problems) * len(fractions),
            "iterations": per_round[0][1],
            "us_per_iter": round(us, 3),
            "gflops": round(flops_per_iter / (us * 1e3), 4),
            "us_per_iter_rounds": [round(ns / 1e3 / its, 3) for ns, its in per_round],
        }
    out["mean_us_per_iter"] = round(
        statistics.fmean(out["methods"][mt]["us_per_iter"] for mt in METHODS), 3
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=Path("BENCH_kernel.json"))
    parser.add_argument("--label", default="current", help="key of this run in the output file")
    parser.add_argument("--small", action="store_true",
                        help="tiny sizes and one round (a smoke test)")
    args = parser.parse_args(argv)

    regimes = SMALL_REGIMES if args.small else REGIMES
    run = {"machine": machine_record(), "flops_per_iter": "8 N K (N + 1)", "regimes": {}}
    for name, spec in regimes.items():
        run["regimes"][name] = run_regime(*spec)
        print(f"{name}: {json.dumps(run['regimes'][name]['methods'])}", file=sys.stderr)

    runs = json.loads(args.out.read_text()) if args.out.exists() else {}
    runs[args.label] = run
    args.out.write_text(json.dumps(runs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
