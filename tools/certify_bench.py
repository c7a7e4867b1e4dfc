"""Time each certifier of a certify-style ``cmop check``, in-process.

Usage, from the root of a source checkout (it imports cmop from ``src``)::

    python3 tools/certify_bench.py --label after    # adds a run to ./BENCH_certify.json
    python3 tools/certify_bench.py --small          # two rounds: a smoke test
    python3 tools/certify_bench.py --peaks --label change-peaks

At 16 x 8 x 8 and 16 x 10 x 8 (eta 0.01, the certify workload's shapes) it
runs ``run_check`` with the pgd iterate and the monitors
``thm3,kkt,lemma2,lemma4,lipschitz``, as the certify workload does, on
``SEEDS`` instances for ``ROUNDS`` rounds after one warm-up round. The
certifiers are wrapped for the run, and it reports the median milliseconds
per call of each: ``lemma2``, ``lemma4``, ``lipschitz``, ``kkt`` and
``thm3`` (the two thm3 monitors), ``oracle`` (the active-set oracle that
gives thm3 its optimum) and ``run_check`` (the whole check, instance read
and solve included; its console output is discarded). The wrappers take
any arguments, so the script times any commit that has these functions.
The record also holds the machine: CPU count, BLAS library, version and
thread count.

``--peaks`` measures memory instead. On the ``cmop gen --seed 5 --m 1000
--n 200 --k 256`` instance (``--small``: 40 x 10 x 16) it runs five checks,
each ``PEAK_ROUNDS`` times in a fresh child process, in turn: ``kkt``,
``lemma2`` and ``lemma4`` from ``--w-source oracle``, and ``thm3`` from
``--w-source pgd`` at ``f0.9`` and at ``f0.5``. A child runs one
``cmop.cli.main`` and reports its ``ru_maxrss``, its VmHWM before and
after the call, and the call's wall time. The run records the median of
each per check, with the SHA-256 of the check's report file, so the runs
of two commits show whether the reports are byte-identical.

The output file maps labels to runs, so one file can hold the runs of two
commits; ``--label`` replaces only the entry with that label.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import cmop.diagnostics as diagnostics  # noqa: E402
import cmop.harness as harness  # noqa: E402
from cmop import gen_instance, run_check, write_instance  # noqa: E402
from run import machine_record  # noqa: E402  (perfbench's record of the machine)

SHAPES = ((16, 8, 8), (16, 10, 8))
ETA = 0.01
SEEDS = range(4)
ROUNDS = 50  # timed calls per instance; --small runs SMALL_ROUNDS
SMALL_ROUNDS = 2
MONITORS = ["thm3", "kkt", "lemma2", "lemma4", "lipschitz"]
# timed name: (module, attribute)
TIMED = {
    "lemma2": (diagnostics, "monitor_lemma2"),
    "lemma4": (diagnostics, "monitor_lemma4"),
    "lipschitz": (diagnostics, "monitor_lipschitz"),
    "kkt": (diagnostics, "kkt_check"),
    "thm3": (diagnostics, "monitor_thm3"),
    "oracle": (harness, "active_set_oracle"),
}


# cmop gen options of the peaks instance
PEAK_SHAPE = ["--seed", "5", "--m", "1000", "--n", "200", "--k", "256"]
SMALL_PEAK_SHAPE = ["--seed", "5", "--m", "40", "--n", "10", "--k", "16"]
PEAK_ROUNDS = 3
# check name: its ``cmop check`` options
PEAK_CHECKS = {
    "kkt": ["--w-source", "oracle", "--monitors", "kkt"],
    "lemma2": ["--w-source", "oracle", "--monitors", "lemma2"],
    "lemma4": ["--w-source", "oracle", "--monitors", "lemma4"],
    "thm3-f0.9": ["--w-source", "pgd", "--monitors", "thm3", "--alpha", "f0.9"],
    "thm3-f0.5": ["--w-source", "pgd", "--monitors", "thm3", "--alpha", "f0.5"],
}
# One cmop.cli.main call in a fresh interpreter; argv is [src, cmop argv...].
# ru_maxrss also counts the RSS of the process that forked the child, so the
# child reports its own VmHWM as well, before and after the call.
_PEAK_CHILD = """
import contextlib, io, json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from cmop.cli import main
def hwm_mb():
    with open("/proc/self/status") as status:
        return next(int(l.split()[1]) for l in status if l.startswith("VmHWM:")) / 1024
before = hwm_mb()
t0 = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    status = main(sys.argv[2:])
wall = time.perf_counter() - t0
print(json.dumps({"exit": status, "wall_s": wall, "before_mb": before, "hwm_mb": hwm_mb(),
                  "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


def _peak_child(argv: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_CHILD, str(ROOT / "src"), *argv],
        capture_output=True, text=True, check=True,
    )
    child = json.loads(proc.stdout)
    if child["exit"] != 0:
        raise SystemExit(f"cmop {' '.join(argv)} exited {child['exit']}: {proc.stderr}")
    return child


def run_peaks(small: bool, work: Path) -> dict:
    """The peaks run: per check, the medians over PEAK_ROUNDS fresh children
    of ru_maxrss, VmHWM, its rise over the import and the wall time, and the
    report's SHA-256. The instance is written by a child too, so this
    process stays small next to the checks it forks."""
    shape = SMALL_PEAK_SHAPE if small else PEAK_SHAPE
    path = work / "peaks.cmop.json"
    _peak_child(["gen", *shape, "-o", str(path)])
    samples = {name: [] for name in PEAK_CHECKS}
    reports = {}
    for _ in range(PEAK_ROUNDS):
        for name, options in PEAK_CHECKS.items():
            report = work / f"{name}.txt"
            child = _peak_child(
                ["check", str(path), *options, "--seed", "0", "--report", str(report)]
            )
            child["rise_mb"] = child["hwm_mb"] - child["before_mb"]
            samples[name].append(child)
            reports[name] = hashlib.sha256(report.read_bytes()).hexdigest()
    checks = {}
    for name, runs in samples.items():
        checks[name] = {"argv": " ".join(PEAK_CHECKS[name])}
        for key in ("maxrss_mb", "hwm_mb", "rise_mb", "wall_s"):
            checks[name][key] = round(statistics.median(run[key] for run in runs), 4)
        checks[name]["report_sha256"] = reports[name]
        print(f"{name}: {json.dumps(checks[name])}", file=sys.stderr)
    return {"gen": " ".join(shape), "rounds": PEAK_ROUNDS, "checks": checks}


class _Clocks:
    """Wraps the timed functions for the duration of a ``with`` block and
    records each call's wall time, in ms, under its name."""

    def __enter__(self):
        self.ms = {name: [] for name in TIMED}
        self._saved = []
        for name, (module, attr) in TIMED.items():
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._timed(fn, self.ms[name]))
        return self

    @staticmethod
    def _timed(fn, sink):
        def timed(*args, **kwargs):
            t0 = time.perf_counter_ns()
            out = fn(*args, **kwargs)
            sink.append((time.perf_counter_ns() - t0) / 1e6)
            return out

        return timed

    def __exit__(self, *exc):
        for module, attr, fn in self._saved:
            setattr(module, attr, fn)


def _check(path: Path, seed: int) -> float:
    """One certify check; its wall time in ms."""
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter_ns()
        passed, _ = run_check(path, "pgd", MONITORS, alpha_spec="f0.9", tau=1e-14, seed=seed)
        ms = (time.perf_counter_ns() - t0) / 1e6
    if not passed:
        raise SystemExit(f"certify check failed on {path}")
    return ms


def run_shape(shape, rounds: int, work: Path) -> dict:
    m, n, k = shape
    paths = []
    for seed in SEEDS:
        path = work / f"c{m}x{n}x{k}-{seed}.cmop.json"
        write_instance(gen_instance(m=m, n=n, k=k, eta=ETA, seed=seed), path)
        paths.append((path, seed))
    for path, seed in paths:  # warm-up
        _check(path, seed)
    with _Clocks() as clocks:
        checks = [_check(path, seed) for _ in range(rounds) for path, seed in paths]
    ms = {name: statistics.median(calls) for name, calls in clocks.ms.items()}
    ms["run_check"] = statistics.median(checks)
    return {"m": m, "n": n, "k": k, "eta": ETA, "instances": len(paths), "rounds": rounds,
            "checks": len(checks), "ms_p50": {name: round(v, 4) for name, v in ms.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=Path("BENCH_certify.json"))
    parser.add_argument("--label", default="current", help="key of this run in the output file")
    parser.add_argument("--small", action="store_true",
                        help="two rounds, or --peaks at 40 x 10 x 16 (a smoke test)")
    parser.add_argument("--peaks", action="store_true",
                        help="peak RSS and wall time of five checks, each in a fresh process")
    args = parser.parse_args(argv)

    rounds = SMALL_ROUNDS if args.small else ROUNDS
    run = {"machine": machine_record()}
    with tempfile.TemporaryDirectory() as work:
        if args.peaks:
            run["peaks"] = run_peaks(args.small, Path(work))
        else:
            run.update(monitors=",".join(MONITORS), shapes={})
            for shape in SHAPES:
                name = "x".join(map(str, shape))
                run["shapes"][name] = run_shape(shape, rounds, Path(work))
                print(f"{name}: {json.dumps(run['shapes'][name]['ms_p50'])}", file=sys.stderr)

    runs = json.loads(args.out.read_text()) if args.out.exists() else {}
    runs[args.label] = run
    args.out.write_text(json.dumps(runs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
