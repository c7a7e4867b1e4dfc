"""Command-line entry point.

Subcommands: ``gen`` (draw a random instance file), ``solve`` (run one
solver and export the trace), ``check`` (run certifiers and write a
report), ``sweep`` (one trace per step size plus a summary table).

Exit status: 0 success / all checks passed, 1 a monitor or KKT check
failed, 2 input error, 3 the solver diverged.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .errors import CmopError
from .harness import (
    CHECK_SOURCES,
    ITERATIVE_METHODS,
    METHODS,
    default_seed,
    gen_instance,
    run_check,
    run_experiment,
    run_sweep,
    write_instance,
)
from .solvers import STOP_DIVERGED, SolverConfig

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_DIVERGED = 3


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls, and building it takes about 1 ms."""
    parser = argparse.ArgumentParser(
        prog="cmop",
        description="Complex matrix least-squares solvers with row-power "
        "constraints and convergence certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The instance and run options shared by solve, check and sweep.
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("instance", help="instance file")
    run.add_argument("--tau", type=float, default=SolverConfig.tau)
    run.add_argument("--max-iter", type=int, default=SolverConfig.max_iter)
    run.add_argument(
        "--radius-is-eta",
        action="store_true",
        help="treat eta itself as the projection radius instead of sqrt(eta) "
        "(pseudocode-compatibility mode)",
    )

    gen = sub.add_parser("gen", help="generate a random instance file")
    gen.add_argument("--m", type=int, default=10)
    gen.add_argument("--n", type=int, default=5)
    gen.add_argument("--k", type=int, default=8)
    gen.add_argument("--range", type=float, default=10.0, dest="rng_range")
    gen.add_argument("--eta", type=float, default=2.0)
    gen.add_argument(
        "--seed",
        type=int,
        default=None,
        help="defaults to $CMOP_SEED, else 0",
    )
    gen.add_argument("-o", "--output", required=True, help="instance file to write")

    solve = sub.add_parser("solve", parents=[run], help="run one solver on an instance")
    solve.add_argument("--method", choices=METHODS, default="gd")
    solve.add_argument(
        "--alpha",
        default="f0.5",
        help="step size: a number, or f<frac> for a fraction of the "
        "guaranteed interval (default f0.5)",
    )
    solve.add_argument("--trace", default=None, help="trace CSV to write")
    solve.add_argument("-o", "--output", default=None, help="solution file to write")
    solve.add_argument(
        "--time",
        action="store_true",
        help="record wall-clock nanoseconds per iteration (breaks byte "
        "reproducibility of traces)",
    )

    check = sub.add_parser("check", parents=[run], help="run certifiers and write a report")
    check.add_argument(
        "--w-source",
        choices=CHECK_SOURCES,
        default="pgd",
        help="where the certified iterate comes from",
    )
    check.add_argument(
        "--monitors",
        required=True,
        help="comma-separated subset of thm2,thm3,kkt,lemma2,lemma4,lipschitz",
    )
    check.add_argument("--report", default=None, help="report file to write")
    check.add_argument("--alpha", default="f0.5")
    check.add_argument("--seed", type=int, default=None)
    check.add_argument("--w-file", default=None, help="solution file for --w-source file")

    sweep = sub.add_parser("sweep", parents=[run], help="run one solve per step size")
    sweep.add_argument("--method", choices=ITERATIVE_METHODS, default="gd")
    sweep.add_argument(
        "--alphas",
        required=True,
        help="comma-separated step sizes (numbers or f<frac> fractions)",
    )
    sweep.add_argument("--out-dir", required=True)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            seed = args.seed if args.seed is not None else default_seed()
            doc = gen_instance(
                m=args.m,
                n=args.n,
                k=args.k,
                rng_range=args.rng_range,
                eta=args.eta,
                seed=seed,
            )
            write_instance(doc, args.output)
            print(f"wrote {args.output} (m={args.m} n={args.n} k={args.k} seed={seed})")
            return EXIT_OK

        if args.command == "solve":
            result, _ = run_experiment(
                args.instance,
                method=args.method,
                alpha_spec=args.alpha,
                tau=args.tau,
                max_iter=args.max_iter,
                trace_path=args.trace,
                out_path=args.output,
                radius_is_eta=args.radius_is_eta,
                time_iterations=args.time,
            )
            return EXIT_DIVERGED if result.stop_reason == STOP_DIVERGED else EXIT_OK

        if args.command == "check":
            monitors = [tag.strip() for tag in args.monitors.split(",") if tag.strip()]
            passed, _ = run_check(
                args.instance,
                w_source=args.w_source,
                monitors=monitors,
                report_path=args.report,
                alpha_spec=args.alpha,
                tau=args.tau,
                max_iter=args.max_iter,
                seed=args.seed,
                radius_is_eta=args.radius_is_eta,
                w_path=args.w_file,
            )
            return EXIT_OK if passed else EXIT_CHECK_FAILED

        # sweep
        alphas = [a for a in args.alphas.split(",") if a.strip()]
        run_sweep(
            args.instance,
            method=args.method,
            alpha_specs=alphas,
            tau=args.tau,
            max_iter=args.max_iter,
            out_dir=args.out_dir,
            radius_is_eta=args.radius_is_eta,
        )
        return EXIT_OK
    except CmopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
