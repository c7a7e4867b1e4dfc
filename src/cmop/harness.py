"""Experiment orchestration: solves, certificate checks and step-size sweeps.

The file formats and instance generation live in :mod:`cmop.formats`, the
forked workers in :mod:`cmop.workers`. Every file, objective and solver
function the orchestration calls is bound in this module and called
through that binding, so replacing ``cmop.harness.read_instance`` (say)
reaches every call it makes. A run keeps only the problem that
``read_instance`` returns: the parsed document, a second copy of H and A,
is freed before ``precompute``.

Step-size sweeps on small instances run their steps in forked worker
processes, each pinned to one CPU in ascending CPU order, when forking is
safe (see :func:`cmop.workers._can_fork`); see :func:`run_sweep`. The
outputs are byte-identical to a run in one process, and nothing selects
between the two.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import diagnostics, workers
from .cmat import cmatrix, frob_norm
from .errors import (
    CmopError,
    ConfigError,
    InputError,
)
from .formats import (  # default_seed, gen_instance, write_instance: imported from here
    _complex,
    _write_lines,
    default_seed,  # noqa: F401
    gen_instance,  # noqa: F401
    read_instance,
    resolve_seed,
    solution_parts,
    write_instance,  # noqa: F401
    write_solution,
    write_trace,
)
from .objective import (
    Precomputed,
    ProblemInstance,
    closed_form_unconstrained,
    evaluate,
    precompute,
)
from .projection import RowBall
from .solvers import (
    STOP_KKT,
    IterationRecord,
    SolveResult,
    SolverConfig,
    active_set_oracle,
    gd_solve,
    guaranteed_interval_sup,
    pgd_solve,
    real_augmented_pgd,
    resolve_alpha,
    step_fraction,
)

METHODS = ("gd", "pgd", "closed", "oracle", "real-augmented")
ITERATIVE_METHODS = ("gd", "pgd", "real-augmented")
CHECK_SOURCES = ("gd", "pgd", "oracle", "file")
MONITOR_TAGS = ("thm2", "thm3", "kkt", "lemma2", "lemma4", "lipschitz")

SWEEP_COLUMNS = (
    "index", "alpha_spec", "alpha", "iterations", "iters_to_threshold",
    "final_objective", "stop_reason", "error",
)


def read_solution(path):
    """Read a solution file as a complex N x K matrix (see
    :func:`cmop.formats.solution_parts`), with the bits of
    ``w_re + 1j * w_im`` built in one complex buffer."""
    w_re, w_im = solution_parts(path)
    return cmatrix(_complex(w_re, w_im))


def parse_alpha_spec(text: str):
    """CLI step-size syntax: a literal number, or 'f<frac>' for a fraction
    of the guaranteed interval."""
    text = text.strip()
    if text.startswith("f"):
        try:
            step_fraction(text)
        except ConfigError as exc:
            raise InputError(str(exc)) from exc
        return text
    try:
        return float(text)
    except ValueError as exc:
        raise InputError(
            f"step size must be a number or f<fraction>, got {text!r}"
        ) from exc


@dataclasses.dataclass
class ExperimentSummary:
    method: str
    objective: float
    iterations: int
    stop_reason: str
    alpha: float | None
    lipschitz: float
    alpha_in_interval: bool | None

    def line(self) -> str:
        alpha = "n/a" if self.alpha is None else repr(self.alpha)
        inside = "n/a" if self.alpha_in_interval is None else (
            "yes" if self.alpha_in_interval else "no"
        )
        return (
            f"method={self.method} objective={self.objective!r} "
            f"iterations={self.iterations} stop={self.stop_reason} "
            f"alpha={alpha} L={self.lipschitz!r} alpha_in_interval={inside}"
        )


@np.errstate(all="ignore")
def run_solver(
    instance: ProblemInstance,
    pre: Precomputed,
    method: str,
    config: SolverConfig,
    w0=None,
) -> SolveResult:
    """Dispatch one solve. w0 defaults to the zero matrix (always feasible).
    A closed form whose objective overflows raises InputError, as the
    iterative methods do at a non-finite initial objective. No overflow
    raises a numpy warning: each method reports it as an error or a stop
    reason."""
    if method not in METHODS:
        raise InputError(f"unknown method {method!r}; expected one of {METHODS}")
    if w0 is None:
        w0 = np.zeros((instance.n, instance.k), dtype=np.complex128)
    if method == "gd":
        return gd_solve(pre, instance, w0, config)
    if method in ("pgd", "real-augmented"):
        ball = RowBall.for_power_budget(instance.eta)
        if method == "pgd":
            return pgd_solve(pre, instance, w0, ball, config)
        return real_augmented_pgd(pre, instance, w0, ball, config)
    if method == "closed":
        w = closed_form_unconstrained(pre)
        objective = evaluate(pre, instance, w)
        if not np.isfinite(objective):
            raise InputError("objective is non-finite at the closed-form solution")
        return SolveResult(
            w_final=w,
            objective=objective,
            iterations=0,
            converged=True,
            stop_reason=STOP_KKT,
            trace=[],
        )
    # method == "oracle"
    return active_set_oracle(pre, instance)


def _configure(
    pre: Precomputed, method: str, alpha_spec: str, **config_options
) -> tuple[SolverConfig, float | None]:
    """The solver config for a step spec, and its resolved step (None for
    the direct methods)."""
    config = SolverConfig(alpha=parse_alpha_spec(alpha_spec), **config_options)
    resolved = None
    if method in ITERATIVE_METHODS:
        resolved = resolve_alpha(config, pre.lipschitz, _step_mode(method))
    return config, resolved


def _step_mode(method: str) -> str:
    return "gd" if method == "gd" else "pgd"


def run_experiment(
    instance_path,
    method: str,
    alpha_spec: str = "f0.5",
    tau: float = SolverConfig.tau,
    max_iter: int = SolverConfig.max_iter,
    trace_path=None,
    out_path=None,
    time_iterations: bool = False,
) -> tuple[SolveResult, ExperimentSummary]:
    """Load an instance, run one solver, export the trace, print a summary."""
    instance = read_instance(instance_path)[0]
    pre = precompute(instance)
    config, resolved = _configure(
        pre, method, alpha_spec, tau=tau, max_iter=max_iter, time_iterations=time_iterations
    )
    result = run_solver(instance, pre, method, config)

    in_interval = None
    if resolved is not None:
        sup = guaranteed_interval_sup(pre.lipschitz, _step_mode(method))
        in_interval = 0.0 < resolved < sup
        if not in_interval:
            print(
                f"warning: step size {resolved!r} lies outside the guaranteed "
                f"interval (0, {sup!r}); proceeding",
                file=sys.stderr,
            )

    if trace_path is not None:
        write_trace(result.trace, trace_path)
    if out_path is not None:
        write_solution(result.w_final, out_path)
    summary = ExperimentSummary(
        method=method,
        objective=result.objective,
        iterations=result.iterations,
        stop_reason=result.stop_reason,
        alpha=resolved,
        lipschitz=pre.lipschitz,
        alpha_in_interval=in_interval,
    )
    print(summary.line())
    return result, summary


def _check_monitor_validity(w_source: str, monitors: list[str]) -> None:
    if w_source not in CHECK_SOURCES:
        raise InputError(
            f"unknown w_source {w_source!r}; expected one of {CHECK_SOURCES}"
        )
    for tag in monitors:
        if tag not in MONITOR_TAGS:
            raise InputError(f"unknown monitor {tag!r}; expected one of {MONITOR_TAGS}")
    if "thm2" in monitors and w_source != "gd":
        raise InputError("the thm2 monitor needs a gd trace (use --w-source gd)")
    if "thm3" in monitors and w_source != "pgd":
        raise InputError("the thm3 monitors need a pgd trace (use --w-source pgd)")
    if "kkt" in monitors and w_source == "gd":
        raise InputError(
            "the kkt check applies to the constrained problem; "
            "use --w-source pgd, oracle, or file"
        )


def run_check(
    instance_path,
    w_source: str,
    monitors: list[str],
    report_path=None,
    alpha_spec: str = "f0.5",
    tau: float = SolverConfig.tau,
    max_iter: int = SolverConfig.max_iter,
    seed: int | None = None,
    w_path=None,
) -> tuple[bool, list[str]]:
    """Run the requested certifiers and write their reports.

    Returns (all_passed, report_lines). thm3 needs the constrained optimum,
    produced internally by the dual oracle before the solve, which observes
    each iterate's squared distance to it and keeps no iterate.
    """
    if not monitors:
        raise InputError("no monitors requested")
    _check_monitor_validity(w_source, monitors)
    seed = resolve_seed(seed)
    instance = read_instance(instance_path)[0]
    pre = precompute(instance)
    ball = RowBall.for_power_budget(instance.eta)
    if w_source == "file":
        parse_alpha_spec(alpha_spec)  # reject a malformed step even when no solve uses it
        if w_path is None:
            raise InputError("w_source 'file' needs --w-file pointing at a solution")
        w = read_solution(w_path)
    else:
        config, resolved = _configure(pre, w_source, alpha_spec, tau=tau, max_iter=max_iter)
        if "thm3" in monitors:
            w_opt = active_set_oracle(pre, instance).w_final
            distances: list[float] = []
            config = dataclasses.replace(
                config, observe=lambda it: distances.append(frob_norm(it - w_opt) ** 2)
            )
        result = run_solver(instance, pre, w_source, config)
        w = result.w_final

    reports: list = []
    for tag in monitors:
        if tag == "thm2":
            reports.append(diagnostics.monitor_thm2(result.trace, resolved, pre.lipschitz))
        elif tag == "thm3":
            reports.extend(
                diagnostics.monitor_thm3(result.trace, distances, resolved, pre.lipschitz)
            )
        elif tag == "lemma2":
            reports.append(
                diagnostics.monitor_lemma2(pre, instance, 100, seed, scale=2.0 * ball.radius)
            )
        elif tag == "lemma4":
            # Entries uniform over [-s, s] in both parts give E||V_n||^2 =
            # 2 K s^2 / 3 = r^2: rows fall on both sides of the boundary.
            reports.append(
                diagnostics.monitor_lemma4(
                    ball, instance.n, instance.k, 500, seed,
                    v_scale=ball.radius * float(np.sqrt(1.5 / instance.k)),
                )
            )
        elif tag == "lipschitz":
            reports.append(diagnostics.monitor_lipschitz(pre.g, pre.lipschitz))
        else:  # kkt
            reports.append(diagnostics.kkt_check(pre, instance, w))

    lines: list[str] = []
    for report in reports:
        if isinstance(report, diagnostics.KktReport):
            lines.extend(diagnostics.kkt_report_lines(report))
        else:
            lines.extend(diagnostics.monitor_report_lines(report))
    all_passed = all(report.passed for report in reports)

    if report_path is not None:
        _write_lines(report_path, lines)
    print("\n".join(lines))
    return all_passed, lines


def iterations_to_threshold(records: list[IterationRecord], limit: float) -> int | None:
    """First recorded iteration whose objective is within
    max(1e-6 |limit|, 1e-12 F(W^0)) of ``limit``; None when the trace never
    gets there (or is empty).

    The floor relative to the first recorded objective F(W^0) keeps an
    optimum at rounding level, such as 0 for an unconstrained N > M
    instance, from moving the result with its last bits.
    """
    if not records:
        return None
    gate = limit + max(1e-6 * abs(limit), 1e-12 * abs(records[0].objective))
    for rec in records:
        if rec.objective <= gate:
            return rec.iter
    return None


def run_sweep(
    instance_path,
    method: str,
    alpha_specs: list[str],
    tau: float = SolverConfig.tau,
    max_iter: int = SolverConfig.max_iter,
    out_dir=".",
) -> list[dict]:
    """Run one solve per step size, exporting a trace per run plus a
    combined summary table (alpha, iterations-to-threshold, final
    objective). Solver errors are recorded per step size rather than
    aborting the sweep.

    Every step is resolved first; a spec that does not resolve gets its
    error row at once. The resolved steps are split by their
    :func:`workers._step_cost`, longest first, into
    ``workers._sweep_workers`` groups. The first group runs in this process
    and every other group in a forked child, which writes its own
    ``trace_<i>.csv`` files and sends its summary rows back. The split
    depends only on the instance, the specs and L, and ``summary.csv`` and
    stdout list the rows in index order, so every output byte is the same
    whatever the number of workers. An exception that escapes a worker's
    steps is raised again here, as it would be had this process run them;
    a worker that dies or sends an unreadable result raises WorkerError.
    Either way no summary is written.
    """
    if not alpha_specs:
        raise InputError("sweep needs at least one step size")
    if method not in ITERATIVE_METHODS:
        raise InputError(f"sweep supports iterative methods only, got {method!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    instance = read_instance(instance_path)[0]
    pre = precompute(instance)

    rows, steps = [], {}  # steps: row index -> (config, resolved step)
    for i, spec in enumerate(alpha_specs):
        row = dict.fromkeys(SWEEP_COLUMNS, "")
        row.update(index=i, alpha_spec=spec.strip())
        rows.append(row)
        try:
            steps[i] = _configure(pre, method, spec, tau=tau, max_iter=max_iter)
        except CmopError as exc:
            row["error"] = _one_line(exc)

    def run_group(indices: list[int]) -> list[dict]:
        for i in indices:
            _sweep_step(instance, pre, method, *steps[i], out, rows[i])
        return [rows[i] for i in indices]

    def valid(group_rows, indices) -> bool:
        return (
            isinstance(group_rows, list)
            and all(isinstance(row, dict) and list(row) == list(SWEEP_COLUMNS)
                    for row in group_rows)
            and [row["index"] for row in group_rows] == indices
        )

    indices = list(steps)
    split = workers._lpt_groups(
        [workers._step_cost(pre, steps[i][1]) for i in indices],
        workers._sweep_workers(instance, method, len(indices)),
    )
    groups = [[indices[j] for j in group] for group in split]
    for group_rows in workers._run_groups(groups, run_group, valid):
        for row in group_rows:
            rows[row["index"]] = row

    lines = [",".join(SWEEP_COLUMNS)]
    lines += [",".join(str(row[col]) for col in SWEEP_COLUMNS) for row in rows]
    _write_lines(out / "summary.csv", lines)
    print("\n".join(lines))
    return rows


def _one_line(exc: Exception) -> str:
    return str(exc).replace("\n", " ")


def _sweep_step(
    instance, pre, method, config, resolved, out: Path, row: dict
) -> None:
    """Solve one sweep step, write its trace and fill its summary row; a
    CmopError becomes the row's error."""
    try:
        result = run_solver(instance, pre, method, config)
        write_trace(result.trace, out / f"trace_{row['index']}.csv")
    except CmopError as exc:
        row["error"] = _one_line(exc)
        return
    reached = iterations_to_threshold(result.trace, result.objective)
    row.update(
        alpha=repr(resolved),
        iterations=str(result.iterations),
        iters_to_threshold="" if reached is None else str(reached),
        final_objective=repr(result.objective),
        stop_reason=result.stop_reason,
    )

