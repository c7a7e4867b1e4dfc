"""Instance generation, file formats, and experiment orchestration.

File formats
------------
Instance documents are JSON with explicit re/im arrays (no interleaving) so
any language can parse them with a stock reader::

    {"m": 10, "n": 5, "k": 8, "eta": 2.0, "seed": 42, "range": 10.0,
     "rng": "numpy-pcg64",
     "h_re": [[...]], "h_im": [[...]], "a_re": [[...]], "a_im": [[...]]}

h is M x N, a is M x K; every real and imaginary component is drawn
independently and uniformly from [-range, range]. Floats are serialized
with shortest round-trip precision (up to 17 significant digits), so a
write/read cycle reproduces every number exactly.

Trace files are CSV with header
``iter,objective,decrease,grad_norm,step_norm,flops,elapsed_ns``, LF line
endings and '.' decimal separator. Iteration timing is off by default, so
re-running a command with identical inputs yields byte-identical outputs.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import diagnostics
from .cmat import cmatrix, uniform_cmatrix
from .errors import (
    CmopError,
    ConfigError,
    InputError,
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

_RNG_ID = "numpy-pcg64"
ENV_SEED = "CMOP_SEED"

METHODS = ("gd", "pgd", "closed", "oracle", "real-augmented")
ITERATIVE_METHODS = ("gd", "pgd", "real-augmented")
CHECK_SOURCES = ("gd", "pgd", "oracle", "file")
MONITOR_TAGS = ("thm2", "thm3", "kkt", "lemma2", "lemma4", "lipschitz")

TRACE_HEADER = "iter,objective,decrease,grad_norm,step_norm,flops,elapsed_ns"
_TRACE_CASTS = (int, float, float, float, float, int, int)
SWEEP_COLUMNS = (
    "index", "alpha_spec", "alpha", "iterations", "iters_to_threshold",
    "final_objective", "stop_reason", "error",
)


def default_seed() -> int:
    """Seed used when none is given: the CMOP_SEED env var, else 0."""
    raw = os.environ.get(ENV_SEED)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError as exc:
        raise InputError(f"{ENV_SEED} must be an integer, got {raw!r}") from exc


def gen_instance(
    m: int = 10,
    n: int = 5,
    k: int = 8,
    rng_range: float = 10.0,
    eta: float = 2.0,
    seed: int | None = None,
) -> dict:
    """Draw a random instance document, deterministic for a given seed.

    Every real and imaginary component of H (M x N) and A (M x K) is
    uniform on [-rng_range, rng_range]; draw order is h_re, h_im, a_re,
    a_im from a PCG64 stream.
    """
    if m < 1 or n < 1 or k < 1:
        raise InputError(f"dimensions must be >= 1, got m={m} n={n} k={k}")
    if not rng_range > 0.0:
        raise InputError(f"range must be positive, got {rng_range}")
    if not eta > 0.0:
        raise InputError(f"eta must be positive, got {eta}")
    if seed is None:
        seed = default_seed()
    rng = np.random.default_rng(np.random.PCG64(seed))
    h_re = rng.uniform(-rng_range, rng_range, (m, n))
    h_im = rng.uniform(-rng_range, rng_range, (m, n))
    a_re = rng.uniform(-rng_range, rng_range, (m, k))
    a_im = rng.uniform(-rng_range, rng_range, (m, k))
    return {
        "m": m,
        "n": n,
        "k": k,
        "eta": float(eta),
        "seed": int(seed),
        "range": float(rng_range),
        "rng": _RNG_ID,
        "h_re": h_re.tolist(),
        "h_im": h_im.tolist(),
        "a_re": a_re.tolist(),
        "a_im": a_im.tolist(),
    }


def _require_fields(doc: dict, kind: str, fields) -> None:
    for field in fields:
        if field not in doc:
            raise InputError(f"{kind} document is missing field {field!r}")


def _int_fields(doc: dict, names) -> list[int]:
    try:
        return [int(doc[name]) for name in names]
    except (TypeError, ValueError) as exc:
        raise InputError(f"fields {', '.join(names)} must be integers") from exc


def _float_array(doc: dict, field: str, shape: tuple[int, int]) -> np.ndarray:
    """A document field as a finite float64 array of the given shape."""
    try:
        arr = np.asarray(doc[field], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InputError(f"field {field!r} is not a numeric array") from exc
    if arr.shape != shape:
        raise InputError(f"field {field!r} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"field {field!r} contains non-finite values")
    return arr


def _read_json_object(path, kind: str) -> dict:
    """Parse an ASCII JSON file whose top level must be an object."""
    try:
        doc = json.loads(Path(path).read_text(encoding="ascii"))
    except OSError as exc:
        raise InputError(f"cannot read {kind} file {path}: {exc}") from exc
    except ValueError as exc:  # non-ASCII bytes, bad syntax, over-long integers
        raise InputError(f"{kind} file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{kind} file {path} must hold a JSON object, got {type(doc).__name__}")
    return doc


def instance_from_document(doc: dict) -> ProblemInstance:
    """Validate an instance document and build the problem it describes.

    Errors name the offending field.
    """
    _require_fields(doc, "instance", ("m", "n", "k", "eta", "h_re", "h_im", "a_re", "a_im"))
    m, n, k = _int_fields(doc, ("m", "n", "k"))
    shapes = {"h_re": (m, n), "h_im": (m, n), "a_re": (m, k), "a_im": (m, k)}
    arrays = {field: _float_array(doc, field, shape) for field, shape in shapes.items()}
    try:
        eta = float(doc["eta"])
    except (TypeError, ValueError) as exc:
        raise InputError("field 'eta' must be a number") from exc
    if not (eta > 0.0 and np.isfinite(eta)):
        raise InputError(f"field 'eta' must be positive and finite, got {eta}")
    h = arrays["h_re"] + 1j * arrays["h_im"]
    a = arrays["a_re"] + 1j * arrays["a_im"]
    return ProblemInstance(h=h, a=a, eta=eta)


def write_instance(doc: dict, path) -> None:
    Path(path).write_text(json.dumps(doc, indent=1) + "\n", encoding="ascii")


def read_instance(path) -> tuple[ProblemInstance, dict]:
    doc = _read_json_object(path, "instance")
    return instance_from_document(doc), doc


def write_solution(w, path) -> None:
    """Write a solution matrix as JSON with split re/im arrays."""
    w = np.asarray(w)
    doc = {
        "n": w.shape[0],
        "k": w.shape[1],
        "w_re": w.real.tolist(),
        "w_im": w.imag.tolist(),
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n", encoding="ascii")


def read_solution(path):
    doc = _read_json_object(path, "solution")
    _require_fields(doc, "solution", ("n", "k", "w_re", "w_im"))
    n, k = _int_fields(doc, ("n", "k"))
    w_re = _float_array(doc, "w_re", (n, k))
    w_im = _float_array(doc, "w_im", (n, k))
    return cmatrix(w_re + 1j * w_im)


def write_trace(records: list[IterationRecord], path) -> None:
    lines = [TRACE_HEADER]
    for rec in records:
        lines.append(
            f"{rec.iter},{rec.objective!r},{rec.decrease!r},{rec.grad_norm!r},"
            f"{rec.step_norm!r},{rec.flops},{rec.elapsed_ns}"
        )
    _write_lines(path, lines)


def _write_lines(path, lines: list[str]) -> None:
    """Write ASCII text lines with LF endings."""
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii", newline="\n")


def read_trace(path) -> list[IterationRecord]:
    try:
        text = Path(path).read_text(encoding="ascii")
    except OSError as exc:
        raise InputError(f"cannot read trace file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"trace file {path} is not ASCII: {exc}") from exc
    lines = text.strip().split("\n")
    if not lines or lines[0] != TRACE_HEADER:
        raise InputError(f"trace file {path} has an unexpected header")
    records = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 7:
            raise InputError(f"trace row has {len(parts)} fields, expected 7")
        try:
            records.append(IterationRecord(*(cast(x) for cast, x in zip(_TRACE_CASTS, parts))))
        except ValueError as exc:
            raise InputError(f"trace row {line!r} is not numeric") from exc
    return records


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


def run_solver(
    instance: ProblemInstance,
    pre: Precomputed,
    method: str,
    config: SolverConfig,
    radius_is_eta: bool = False,
    w0=None,
) -> SolveResult:
    """Dispatch one solve. w0 defaults to the zero matrix (always feasible)."""
    if method not in METHODS:
        raise InputError(f"unknown method {method!r}; expected one of {METHODS}")
    if w0 is None:
        w0 = np.zeros((instance.n, instance.k), dtype=np.complex128)
    if method == "gd":
        return gd_solve(pre, instance, w0, config)
    if method in ("pgd", "real-augmented"):
        ball = RowBall.for_power_budget(instance.eta, radius_is_eta)
        if method == "pgd":
            return pgd_solve(pre, instance, w0, ball, config)
        return real_augmented_pgd(pre, instance, w0, ball, config)
    if method == "closed":
        w = closed_form_unconstrained(pre)
        return SolveResult(
            w_final=w,
            objective=evaluate(pre, instance, w),
            iterations=0,
            converged=True,
            stop_reason=STOP_KKT,
            trace=[],
        )
    # method == "oracle"
    return active_set_oracle(pre, instance)


def _solve(
    instance: ProblemInstance,
    pre: Precomputed,
    method: str,
    alpha_spec: str,
    radius_is_eta: bool,
    **config_options,
) -> tuple[SolveResult, float | None]:
    """Build the solver config, resolve the step of an iterative method and
    run one solve with solver warnings silenced (callers report an
    out-of-interval step themselves). Returns (result, resolved step or
    None for the direct methods)."""
    config = SolverConfig(alpha=parse_alpha_spec(alpha_spec), **config_options)
    resolved = None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if method in ITERATIVE_METHODS:
            resolved = resolve_alpha(config, pre.lipschitz, _step_mode(method))
        result = run_solver(instance, pre, method, config, radius_is_eta)
    return result, resolved


def _step_mode(method: str) -> str:
    return "gd" if method == "gd" else "pgd"


def run_experiment(
    instance_path,
    method: str,
    alpha_spec: str = "f0.5",
    tau: float = 1e-12,
    max_iter: int = 100_000,
    trace_path=None,
    out_path=None,
    radius_is_eta: bool = False,
    time_iterations: bool = False,
    stream=None,
) -> tuple[SolveResult, ExperimentSummary]:
    """Load an instance, run one solver, export the trace, print a summary."""
    instance, _ = read_instance(instance_path)
    pre = precompute(instance)
    result, resolved = _solve(
        instance, pre, method, alpha_spec, radius_is_eta,
        tau=tau, max_iter=max_iter, time_iterations=time_iterations,
    )

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
    print(summary.line(), file=stream)
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
    tau: float = 1e-12,
    max_iter: int = 100_000,
    seed: int | None = None,
    radius_is_eta: bool = False,
    w_path=None,
    stream=None,
) -> tuple[bool, list[str]]:
    """Run the requested certifiers and write their reports.

    Returns (all_passed, report_lines). thm3 needs the constrained optimum,
    produced internally by the dual oracle.
    """
    if not monitors:
        raise InputError("no monitors requested")
    _check_monitor_validity(w_source, monitors)
    if seed is None:
        seed = default_seed()
    instance, _ = read_instance(instance_path)
    pre = precompute(instance)
    ball = RowBall.for_power_budget(instance.eta, radius_is_eta)
    if w_source == "file":
        parse_alpha_spec(alpha_spec)  # reject a malformed step even when no solve uses it
        if w_path is None:
            raise InputError("w_source 'file' needs --w-file pointing at a solution")
        w = read_solution(w_path)
    else:
        result, resolved = _solve(
            instance, pre, w_source, alpha_spec, radius_is_eta,
            tau=tau, max_iter=max_iter, record_iterates="thm3" in monitors,
        )
        w = result.w_final

    reports: list = []
    for tag in monitors:
        if tag == "thm2":
            reports.append(diagnostics.monitor_thm2(result.trace, resolved, pre.lipschitz))
        elif tag == "thm3":
            w_opt = active_set_oracle(pre, instance).w_final
            reports.extend(
                diagnostics.monitor_thm3(
                    result.trace, result.iterates, w_opt, resolved, pre.lipschitz
                )
            )
        elif tag == "lemma2":
            rng = np.random.default_rng(seed)
            pairs = uniform_cmatrix(rng, 2.0 * ball.radius, (100, 2, instance.n, instance.k))
            reports.append(diagnostics.monitor_lemma2(pre, instance, pairs))
        elif tag == "lemma4":
            reports.append(
                diagnostics.monitor_lemma4(
                    ball, instance.n, instance.k, 500, seed,
                    v_scale=float(np.abs(instance.h).max()),
                )
            )
        elif tag == "lipschitz":
            reports.append(diagnostics.monitor_lipschitz(instance.h, pre.lipschitz, 1000, seed))
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
    print("\n".join(lines), file=stream)
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
    tau: float = 1e-12,
    max_iter: int = 100_000,
    out_dir=".",
    radius_is_eta: bool = False,
    stream=None,
) -> list[dict]:
    """Run one solve per step size, exporting a trace per run plus a
    combined summary table (alpha, iterations-to-threshold, final
    objective). Solver errors are recorded per step size rather than
    aborting the sweep.
    """
    if not alpha_specs:
        raise InputError("sweep needs at least one step size")
    if method not in ITERATIVE_METHODS:
        raise InputError(f"sweep supports iterative methods only, got {method!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    instance, _ = read_instance(instance_path)
    pre = precompute(instance)

    rows = []
    for i, spec in enumerate(alpha_specs):
        trace_path = out / f"trace_{i}.csv"
        row = dict.fromkeys(SWEEP_COLUMNS, "")
        row.update(index=i, alpha_spec=spec.strip())
        try:
            result, resolved = _solve(
                instance, pre, method, spec, radius_is_eta, tau=tau, max_iter=max_iter
            )
            write_trace(result.trace, trace_path)
            reached = iterations_to_threshold(result.trace, result.objective)
            row.update(
                alpha=repr(resolved),
                iterations=str(result.iterations),
                iters_to_threshold="" if reached is None else str(reached),
                final_objective=repr(result.objective),
                stop_reason=result.stop_reason,
            )
        except CmopError as exc:
            row["error"] = str(exc).replace("\n", " ")
        rows.append(row)

    lines = [",".join(SWEEP_COLUMNS)]
    lines += [",".join(str(row[col]) for col in SWEEP_COLUMNS) for row in rows]
    _write_lines(out / "summary.csv", lines)
    print("\n".join(lines), file=stream)
    return rows
