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

It then compares the three read paths, each read in turn over a number of
rounds:

* ``split``: the matrices parsed on two CPUs, this process and a forked
  child (``formats._SPLIT_CHARS`` set to 0);
* ``walk`` (``serial`` in ``read_split``): the same walk of the file
  through its window in this process alone, the path of hosts that cannot
  fork (``formats._SPLIT_CHARS`` set to 0 and ``workers._can_fork`` false);
* ``loads``: ``json.loads`` of the whole file (``formats._SPLIT_CHARS`` set
  to infinity).

For solution files of N x 256 (2 x N x 256 numbers), 0.97 to 2.42 MB, it
records the median of ``read_solution`` on two paths over
``CROSSOVER_ROUNDS`` rounds and their ratio: ``read_split`` (split over
the walk in one process) and ``read_walk`` (that walk over ``loads``).
``formats._SPLIT_CHARS`` is set where the split wins every run; below it
files go to ``json.loads``, because the walk saves memory, not time, and
for small files that saving is small.
``read_large`` is the median of ``read_instance`` of the ``large`` instance
on all three paths, over that size's rounds. ``harness_large`` is the
memory of one whole solve and one check of that instance: a
``run_experiment`` (pgd at f0.9, writing its trace and solution) and a
``run_check`` of its solution (kkt), each in a fresh child as below.

The memory of each call is measured in a fresh child process that has
already imported cmop and, for a write, loaded the document or matrix it
writes (unpickled in 64 kB frames, so loading peaks only a little above
what it loads). ``before_mb`` is the peak resident set size just before
the call, ``peak_mb`` the peak just after it, and ``rss_rise_mb`` the
call's own high-water mark above ``before_mb``; a change in what the
import or the load leaves resident moves ``before_mb``, not the rise
alone. The child reads the peak as
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

import cmop.formats as formats  # noqa: E402
import cmop.workers as workers  # noqa: E402
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
# Solution rows N of the crossovers (0.97 to 2.42 MB), and their rounds.
CROSSOVER_ROWS = (80, 100, 120, 140, 160, 180, 200)
CROSSOVER_ROUNDS = 61
SMALL_CROSSOVER_ROWS, SMALL_CROSSOVER_ROUNDS = (2,), 1
# The settings of each read path: (module, name) to value.
READ_PATHS = {
    "split": {(formats, "_SPLIT_CHARS"): 0, (workers, "_can_fork"): workers._can_fork},
    "walk": {(formats, "_SPLIT_CHARS"): 0, (workers, "_can_fork"): lambda: False},
    "loads": {(formats, "_SPLIT_CHARS"): float("inf"), (workers, "_can_fork"): workers._can_fork},
}
# name: its two read paths, the one timed first.
CROSSOVERS = {
    "read_split": {"split": READ_PATHS["split"], "serial": READ_PATHS["walk"]},
    "read_walk": {"walk": READ_PATHS["walk"], "loads": READ_PATHS["loads"]},
}

# Run in a child: import cmop, unpickle what a write writes, then report the
# peak RSS (kB) before and after one call, its printing sent to /dev/null:
# harness.<argv[1]>([loaded,] *args, **kwargs), (args, kwargs) the JSON argv[2].
_RSS_CHILD = """
import contextlib
import json
import os
import pickle
import sys
import cmop.harness as harness

def peak_kb():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

args, kwargs = json.loads(sys.argv[2])
if len(sys.argv) > 3:
    with open(sys.argv[3], "rb") as source:
        args.insert(0, pickle.load(source))
call = getattr(harness, sys.argv[1])
before = peak_kb()
with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
    call(*args, **kwargs)
print(before, peak_kb())
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


def _peak_rss_mb(call: str, path: Path, *args, data=None, **kwargs) -> tuple[float, float]:
    """The peak RSS before and after ``harness.<call>(path, *args,
    **kwargs)``, given ``data`` (pickled to a file next to ``path``) first
    if it is a write. ``path`` and the keyword arguments, all paths, go as
    strings."""
    args, kwargs = [str(path), *args], {key: str(v) for key, v in kwargs.items()}
    argv = [sys.executable, "-c", _RSS_CHILD, call, json.dumps([args, kwargs])]
    if data is not None:
        source = path.with_suffix(".pickle")
        with open(source, "wb") as out:
            pickle.dump(data, out, protocol=5)
        argv.append(str(source))
    proc = subprocess.run(argv, env=child_env(), capture_output=True, text=True, check=True,
                          timeout=600)
    before, peak = proc.stdout.split()
    return int(before) / 1024, int(peak) / 1024


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
    rss = {
        "write_instance": _peak_rss_mb("write_instance", inst, data=doc),
        "read_instance": _peak_rss_mb("read_instance", inst),
        "write_solution": _peak_rss_mb("write_solution", sol, data=w),
        "read_solution": _peak_rss_mb("read_solution", sol),
    }
    return {
        "m": m, "n": n, "k": k, "rounds": rounds,
        "instance_bytes": inst.stat().st_size,
        "solution_bytes": sol.stat().st_size,
        "seconds": {name: round(s, 6) for name, s in seconds.items()},
        **_rss_fields(rss),
    }


def _rss_fields(rss: dict) -> dict:
    """The rise, before and peak (MB) of each call, from its (before, peak)."""
    return {
        "rss_rise_mb": {name: round(peak - before, 1) for name, (before, peak) in rss.items()},
        "before_mb": {name: round(before, 2) for name, (before, _) in rss.items()},
        "peak_mb": {name: round(peak, 2) for name, (_, peak) in rss.items()},
    }


def harness_peaks(m: int, n: int, k: int, tmp: Path) -> dict:
    """The peak RSS of one solve and one check of the M x N x K instance of
    :func:`run_size`, each in a fresh child: ``run_experiment`` (pgd at
    f0.9, writing its trace and solution, as ``cmop solve`` does) and then
    ``run_check`` of that solution (``--w-source file --monitors kkt``)."""
    inst, sol = tmp / f"inst-{m}x{n}x{k}.json", tmp / "harness-solution.json"
    rss = {
        "run_experiment": _peak_rss_mb("run_experiment", inst, "pgd", "f0.9",
                                       trace_path=tmp / "harness-trace.csv", out_path=sol),
        "run_check": _peak_rss_mb("run_check", inst, "file", ["kkt"],
                                  report_path=tmp / "harness-report.txt", w_path=sol),
    }
    return {"m": m, "n": n, "k": k, **_rss_fields(rss)}


def _paths_median_s(paths: dict, read, path: Path, rounds: int) -> dict:
    """The median seconds of ``read(path)`` on each read path (``paths``:
    name to settings, as in ``READ_PATHS``), read in turn; the settings are
    restored after."""
    saved = {key: getattr(*key) for setting in paths.values() for key in setting}

    def on(setting):
        for (module, name), value in setting.items():
            setattr(module, name, value)
        read(path)

    try:
        return _median_s({name: lambda s=setting: on(s) for name, setting in paths.items()},
                         rounds)
    finally:
        for (module, name), value in saved.items():
            setattr(module, name, value)


def crossover(paths: dict, rows: tuple, rounds: int, tmp: Path) -> dict:
    """The median seconds of ``read_solution`` on each of two read paths
    and their ratio, first over second, for solution files of N x 256 for
    each N in ``rows``."""
    rng = np.random.default_rng(2)
    (first, second), out = paths, {}
    for n in rows:
        w = rng.standard_normal((n, 256)) + 1j * rng.standard_normal((n, 256))
        path = tmp / f"crossover-{n}.json"
        write_solution(w, path)
        seconds = _paths_median_s(paths, read_solution, path, rounds)
        out[str(2 * n * 256)] = {
            "bytes": path.stat().st_size,
            f"{first}_s": round(seconds[first], 6),
            f"{second}_s": round(seconds[second], 6),
            "ratio": round(seconds[first] / seconds[second], 3),
        }
    return {"rounds": rounds, "split_chars": formats._SPLIT_CHARS, "numbers": out}


def large_reads(m: int, n: int, k: int, rounds: int, tmp: Path) -> dict:
    """The median seconds of ``read_instance`` of the M x N x K instance of
    :func:`run_size` on every read path."""
    path = tmp / f"inst-{m}x{n}x{k}.json"
    seconds = _paths_median_s(READ_PATHS, read_instance, path, rounds)
    return {"bytes": path.stat().st_size, "rounds": rounds,
            **{f"{name}_s": round(s, 6) for name, s in seconds.items()}}


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
        run["read_large"] = large_reads(*sizes["large"], Path(tmp))
        print(f"read_large: {json.dumps(run['read_large'])}", file=sys.stderr)
        run["harness_large"] = harness_peaks(*sizes["large"][:3], Path(tmp))
        print(f"harness_large: {json.dumps(run['harness_large'])}", file=sys.stderr)

    runs = json.loads(args.out.read_text()) if args.out.exists() else {}
    runs[args.label] = run
    args.out.write_text(json.dumps(runs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
