"""Time each certifier of a certify-style ``cmop check``, in-process.

Usage, from the root of a source checkout (it imports cmop from ``src``)::

    python3 tools/certify_bench.py --label after    # adds a run to ./BENCH_certify.json
    python3 tools/certify_bench.py --small          # two rounds: a smoke test

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

The output file maps labels to runs, so one file can hold the runs of two
commits; ``--label`` replaces only the entry with that label.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
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
    parser.add_argument("--small", action="store_true", help="two rounds (a smoke test)")
    args = parser.parse_args(argv)

    rounds = SMALL_ROUNDS if args.small else ROUNDS
    run = {"machine": machine_record(), "monitors": ",".join(MONITORS), "shapes": {}}
    with tempfile.TemporaryDirectory() as work:
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
