"""Time instance and solution file I/O, and measure the memory a read adds.

Usage, from the root of a source checkout (it imports cmop from ``src``)::

    python3 tools/io_bench.py --label after    # adds a run to ./BENCH_io.json
    python3 tools/io_bench.py --small          # tiny sizes, one round: a smoke test

For each size it generates one instance and one random N x K solution,
then times ``write_instance``, ``read_instance``, ``write_solution`` and
``read_solution`` on files in a temporary directory. A figure is the median
over ``rounds`` calls. Two regimes:

* ``paper`` (10 x 5 x 8): a file of a few kB, where per-call overhead rules.
* ``large`` (1000 x 200 x 256): a 20.8 MB instance, where the parse rules.

Each read's memory is the rise of the peak resident set size across one
call, in a fresh child process that has already imported cmop, so the
figure is the read's own high-water mark above the interpreter's. The child
reads the peak as ``VmHWM`` from ``/proc/self/status`` (Linux): its
``ru_maxrss`` starts at the peak that this process had reached when it
forked, which hides any rise below that. The record also holds
perfbench's machine record: CPU count, BLAS library, version and thread
count, and the git commit.

The output file maps labels to runs, so one file can hold the runs of two
commits; ``--label`` replaces only the entry with that label.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from cmop import (  # noqa: E402
    gen_instance,
    read_instance,
    read_solution,
    write_instance,
    write_solution,
)
from run import child_env, machine_record  # noqa: E402  (perfbench's helpers)

# name: (M, N, K, rounds)
SIZES = {"paper": (10, 5, 8, 51), "large": (1000, 200, 256, 3)}
SMALL_SIZES = {"paper": (10, 5, 8, 1), "large": (40, 20, 16, 1)}

# Run in a child: import cmop, then report the peak RSS rise (kB) of one read.
_RSS_CHILD = """
import sys
import cmop.harness as harness

def peak_kb():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

read = getattr(harness, sys.argv[1])
before = peak_kb()
read(sys.argv[2])
print(peak_kb() - before)
"""


def _median_s(call, rounds: int) -> float:
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _rss_rise_mb(reader: str, path: Path) -> float:
    proc = subprocess.run([sys.executable, "-c", _RSS_CHILD, reader, str(path)],
                          env=child_env(), capture_output=True, text=True, check=True,
                          timeout=600)
    return int(proc.stdout) / 1024


def run_size(m: int, n: int, k: int, rounds: int, tmp: Path) -> dict:
    doc = gen_instance(m=m, n=n, k=k, seed=1)
    rng = np.random.default_rng(1)
    w = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    inst, sol = tmp / f"inst-{m}x{n}x{k}.json", tmp / f"sol-{m}x{n}x{k}.json"
    seconds = {
        "write_instance": _median_s(lambda: write_instance(doc, inst), rounds),
        "read_instance": _median_s(lambda: read_instance(inst), rounds),
        "write_solution": _median_s(lambda: write_solution(w, sol), rounds),
        "read_solution": _median_s(lambda: read_solution(sol), rounds),
    }
    return {
        "m": m, "n": n, "k": k, "rounds": rounds,
        "instance_bytes": inst.stat().st_size,
        "solution_bytes": sol.stat().st_size,
        "seconds": {name: round(s, 6) for name, s in seconds.items()},
        "rss_rise_mb": {
            "read_instance": round(_rss_rise_mb("read_instance", inst), 1),
            "read_solution": round(_rss_rise_mb("read_solution", sol), 1),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=Path("BENCH_io.json"))
    parser.add_argument("--label", default="current", help="key of this run in the output file")
    parser.add_argument("--small", action="store_true",
                        help="tiny sizes and one round (a smoke test)")
    args = parser.parse_args(argv)

    sizes = SMALL_SIZES if args.small else SIZES
    run = {"machine": machine_record(), "sizes": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (m, n, k, rounds) in sizes.items():
            run["sizes"][name] = run_size(m, n, k, rounds, Path(tmp))
            print(f"{name}: {json.dumps(run['sizes'][name])}", file=sys.stderr)

    runs = json.loads(args.out.read_text()) if args.out.exists() else {}
    runs[args.label] = run
    args.out.write_text(json.dumps(runs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
