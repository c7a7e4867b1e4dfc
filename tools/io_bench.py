"""Time instance and solution file I/O, and measure the memory each call adds.

Usage, from the root of a source checkout (it imports cmop from ``src``)::

    python3 tools/io_bench.py --label after    # adds a run to ./BENCH_io.json
    python3 tools/io_bench.py --small          # tiny sizes, one round: a smoke test

For each size it generates one instance and one random N x K solution,
then times ``write_instance``, ``read_instance``, ``write_solution`` and
``read_solution`` on files in a temporary directory. Each round calls the
four in turn, so a slow spell of the machine lands on every function
rather than on the calls of one. A figure is the median over ``rounds``
rounds. Two regimes:

* ``paper`` (10 x 5 x 8): a file of a few kB, where per-call overhead rules.
* ``large`` (1000 x 200 x 256): a 20.8 MB instance, where the parse rules.

It then measures where two read paths cross, for solution files of
N x 256 (2 x N x 256 numbers): the median of ``read_solution`` on each
path, read in turn over ``CROSSOVER_ROUNDS`` rounds, and their ratio.

* ``read_split``: the matrices parsed on two CPUs against the serial walk
  of the file's buffer (``harness._SPLIT_CHARS`` set to 0 and to infinity,
  ``harness._WALK_BYTES`` to 0). ``harness._SPLIT_CHARS`` is set where the
  split wins every run.
* ``read_walk``: the serial walk against ``json.loads`` of the whole file
  (``harness._WALK_BYTES`` set to 0 and to infinity, no split). The walk
  saves memory, not time, so ``harness._WALK_BYTES`` keeps small files,
  where that saving is small and the walk slower, on ``json.loads``.

The memory of each call is the rise of the peak resident set size across
it, in a fresh child process that has already imported cmop and, for a
write, loaded the document or matrix it writes (unpickled in 64 kB frames,
so loading peaks only a little above what it loads). The figure is the
call's own high-water mark above that. The child reads the peak as
``VmHWM`` from ``/proc/self/status`` (Linux): its ``ru_maxrss`` starts at
the peak that this process had reached when it forked, which hides any
rise below that. The children a call forks are not counted. The record
also holds perfbench's machine record: CPU count, BLAS library, version
and thread count, and the git commit.

The output file maps labels to runs, so one file can hold the runs of two
commits; ``--label`` replaces only the entry with that label.
"""

from __future__ import annotations

import argparse
import json
import pickle
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

import cmop.harness as harness  # noqa: E402
from cmop import (  # noqa: E402
    gen_instance,
    read_instance,
    read_solution,
    write_instance,
    write_solution,
)
from run import child_env, machine_record  # noqa: E402  (perfbench's helpers)

# name: (M, N, K, rounds)
SIZES = {"paper": (10, 5, 8, 51), "large": (1000, 200, 256, 7)}
SMALL_SIZES = {"paper": (10, 5, 8, 1), "large": (40, 20, 16, 1)}
# Solution rows N of the crossovers, and their rounds.
CROSSOVER_ROWS = (5, 10, 20, 40, 60, 80, 120, 160, 200, 300, 400)
CROSSOVER_ROUNDS = 61
SMALL_CROSSOVER_ROWS, SMALL_CROSSOVER_ROUNDS = (2,), 1
# name: the harness settings of its two read paths, the one timed first.
CROSSOVERS = {
    "read_split": {
        "split": {"_WALK_BYTES": 0, "_SPLIT_CHARS": 0},
        "serial": {"_WALK_BYTES": 0, "_SPLIT_CHARS": float("inf")},
    },
    "read_walk": {
        "walk": {"_WALK_BYTES": 0, "_SPLIT_CHARS": float("inf")},
        "loads": {"_WALK_BYTES": float("inf"), "_SPLIT_CHARS": float("inf")},
    },
}

# Run in a child: import cmop, unpickle what a write writes, then report the
# peak RSS rise (kB) of one call: harness.<argv[1]>([loaded,] argv[2]).
_RSS_CHILD = """
import pickle
import sys
import cmop.harness as harness

def peak_kb():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

args = [sys.argv[2]]
if len(sys.argv) > 3:
    with open(sys.argv[3], "rb") as source:
        args.insert(0, pickle.load(source))
call = getattr(harness, sys.argv[1])
before = peak_kb()
call(*args)
print(peak_kb() - before)
"""


def _median_s(calls: dict, rounds: int) -> dict:
    """The median seconds of each call over ``rounds`` rounds, each of which
    makes every call once, in order."""
    times = {name: [] for name in calls}
    for _ in range(rounds):
        for name, call in calls.items():
            t0 = time.perf_counter()
            call()
            times[name].append(time.perf_counter() - t0)
    return {name: statistics.median(ts) for name, ts in times.items()}


def _rss_rise_mb(call: str, path: Path, data=None) -> float:
    """The peak RSS rise of ``harness.<call>`` on ``path``, first given
    ``data`` (pickled to a file next to it) if it is a write."""
    argv = [sys.executable, "-c", _RSS_CHILD, call, str(path)]
    if data is not None:
        source = path.with_suffix(".pickle")
        with open(source, "wb") as out:
            pickle.dump(data, out, protocol=5)
        argv.append(str(source))
    proc = subprocess.run(argv, env=child_env(), capture_output=True, text=True, check=True,
                          timeout=600)
    return int(proc.stdout) / 1024


def run_size(m: int, n: int, k: int, rounds: int, tmp: Path) -> dict:
    doc = gen_instance(m=m, n=n, k=k, seed=1)
    rng = np.random.default_rng(1)
    w = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    inst, sol = tmp / f"inst-{m}x{n}x{k}.json", tmp / f"sol-{m}x{n}x{k}.json"
    seconds = _median_s({
        "write_instance": lambda: write_instance(doc, inst),
        "read_instance": lambda: read_instance(inst),
        "write_solution": lambda: write_solution(w, sol),
        "read_solution": lambda: read_solution(sol),
    }, rounds)
    return {
        "m": m, "n": n, "k": k, "rounds": rounds,
        "instance_bytes": inst.stat().st_size,
        "solution_bytes": sol.stat().st_size,
        "seconds": {name: round(s, 6) for name, s in seconds.items()},
        "rss_rise_mb": {
            "write_instance": round(_rss_rise_mb("write_instance", inst, doc), 1),
            "read_instance": round(_rss_rise_mb("read_instance", inst), 1),
            "write_solution": round(_rss_rise_mb("write_solution", sol, w), 1),
            "read_solution": round(_rss_rise_mb("read_solution", sol), 1),
        },
    }


def crossover(paths: dict, rows: tuple, rounds: int, tmp: Path) -> dict:
    """The median seconds of ``read_solution`` on each of two read paths
    (``paths``: name to harness settings), and their ratio, first over
    second, for solution files of N x 256 for each N in ``rows``."""
    rng = np.random.default_rng(2)
    saved = {name: getattr(harness, name, None) for setting in paths.values() for name in setting}
    (first, second), out = paths, {}
    for n in rows:
        w = rng.standard_normal((n, 256)) + 1j * rng.standard_normal((n, 256))
        path = tmp / f"crossover-{n}.json"
        write_solution(w, path)

        def read(setting, path=path):
            for name, value in setting.items():
                setattr(harness, name, value)
            read_solution(path)

        try:
            seconds = _median_s({name: lambda s=setting: read(s) for name, setting in paths.items()},
                                rounds)
        finally:
            for name, value in saved.items():
                setattr(harness, name, value)
        out[str(2 * n * 256)] = {
            "bytes": path.stat().st_size,
            f"{first}_s": round(seconds[first], 6),
            f"{second}_s": round(seconds[second], 6),
            "ratio": round(seconds[first] / seconds[second], 3),
        }
    return {"rounds": rounds, **{name.lower().lstrip("_"): value for name, value in saved.items()},
            "numbers": out}


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
        rows, rounds = ((SMALL_CROSSOVER_ROWS, SMALL_CROSSOVER_ROUNDS) if args.small
                        else (CROSSOVER_ROWS, CROSSOVER_ROUNDS))
        for name, paths in CROSSOVERS.items():
            run[name] = crossover(paths, rows, rounds, Path(tmp))
            print(f"{name}: {json.dumps(run[name])}", file=sys.stderr)

    runs = json.loads(args.out.read_text()) if args.out.exists() else {}
    runs[args.label] = run
    args.out.write_text(json.dumps(runs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
