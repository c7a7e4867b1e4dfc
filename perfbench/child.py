"""Work the benchmark runs in fresh child processes.

``gen SPEC_JSON`` generates and writes instance files, the set-up step.
It runs in a child so that building large instance documents does not
raise the peak RSS of the process that runs the workload.

``serial-solve PATH ALPHA TAU REPS`` times ``pgd_solve`` on one instance.
The parent starts it with the BLAS thread count pinned to 1 in the
environment, which only takes effect if set before numpy loads.

Both print one JSON object on stdout. The parent puts ``src`` on
PYTHONPATH.
"""

from __future__ import annotations

import json
import sys
import time


def gen(spec: list[dict]) -> dict:
    from cmop.harness import gen_instance, write_instance

    write_s = 0.0
    for inst in spec:
        doc = gen_instance(
            m=inst["m"], n=inst["n"], k=inst["k"],
            rng_range=inst["range"], eta=inst["eta"], seed=inst["seed"],
        )
        t0 = time.perf_counter()
        write_instance(doc, inst["path"])
        write_s += time.perf_counter() - t0
    return {"write_instance_s": write_s}


def serial_solve(path: str, alpha: str, tau: float, reps: int) -> dict:
    import numpy as np

    from cmop.harness import parse_alpha_spec, read_instance
    from cmop.objective import precompute
    from cmop.projection import RowBall
    from cmop.solvers import SolverConfig, per_iteration_flops, pgd_solve

    instance, _ = read_instance(path)
    pre = precompute(instance)
    ball = RowBall.for_power_budget(instance.eta)
    config = SolverConfig(alpha=parse_alpha_spec(alpha), tau=tau)
    w0 = np.zeros((instance.n, instance.k), dtype=np.complex128)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        result = pgd_solve(pre, instance, w0, ball, config)
        times.append(time.perf_counter() - t0)
    return {
        "seconds": sorted(times)[len(times) // 2],
        "iterations": result.iterations,
        "flops": result.iterations * per_iteration_flops(instance.n, instance.k),
    }


def main(argv: list[str]) -> int:
    if argv[:1] == ["gen"] and len(argv) == 2:
        out = gen(json.loads(argv[1]))
    elif argv[:1] == ["serial-solve"] and len(argv) == 5:
        out = serial_solve(argv[1], argv[2], float(argv[3]), int(argv[4]))
    else:
        print("usage: child.py gen SPEC_JSON | serial-solve PATH ALPHA TAU REPS",
              file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
