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

The reader walks the top-level object one member at a time and turns each
array field (``h_re``, ``h_im``, ``a_re``, ``a_im``; ``w_re``, ``w_im`` in
solution files) into a float64 array as soon as it is parsed, so a read
never holds the whole document as Python floats. What it returns, and
every error it raises, is what ``json.loads`` of the file would give with
those fields converted.

Trace files are CSV with header
``iter,objective,decrease,grad_norm,step_norm,flops,elapsed_ns``, LF line
endings and '.' decimal separator. Iteration timing is off by default, so
re-running a command with identical inputs yields byte-identical outputs.

Step-size sweeps on small instances run their steps in forked worker
processes, each pinned to one CPU in ascending CPU order, when two or more
CPUs are usable and the platform has fork and CPU affinity calls; see
:func:`run_sweep`. The outputs are byte-identical to a run in one process,
and nothing selects between the two.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import re
import signal
import sys
import threading
import warnings
from pathlib import Path

import numpy as np

from . import diagnostics
from .cmat import cmatrix, uniform_cmatrix
from .errors import (
    CmopError,
    ConfigError,
    InputError,
    WorkerError,
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
    a_im from a PCG64 stream. The span 2 rng_range and eta must be finite,
    as the readers of the document require.
    """
    if m < 1 or n < 1 or k < 1:
        raise InputError(f"dimensions must be >= 1, got m={m} n={n} k={k}")
    if not (rng_range > 0.0 and np.isfinite(2.0 * rng_range)):
        raise InputError(f"range must be positive with a finite span 2*range, got {rng_range}")
    if not (eta > 0.0 and np.isfinite(eta)):
        raise InputError(f"eta must be positive and finite, got {eta}")
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
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"fields {', '.join(names)} must be integers") from exc


def _float_array(doc: dict, field: str, shape: tuple[int, int]) -> np.ndarray:
    """A document field as a finite float64 array of the given shape."""
    try:
        arr = np.asarray(doc[field], dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"field {field!r} is not a numeric array") from exc
    if arr.shape != shape:
        raise InputError(f"field {field!r} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"field {field!r} contains non-finite values")
    return arr


_ARRAY_FIELDS = {"instance": ("h_re", "h_im", "a_re", "a_im"), "solution": ("w_re", "w_im")}
_JSON_WS = re.compile(r"[ \t\n\r]*")  # JSON's four whitespace characters, as json.loads skips
_DECODER = json.JSONDecoder()


def _walk_object(text: str, arrays) -> dict | None:
    """Parse a top-level JSON object one member at a time.

    Each member named in ``arrays`` becomes a float64 array as soon as it
    is parsed, so its nested lists of Python floats are freed before the
    next member is read. A value that does not convert stays as parsed.
    Anything this walk does not follow (a top level that is not an
    object, a syntax error, trailing data, nesting past the recursion
    limit) returns None, and the caller re-parses with ``json.loads``.
    Otherwise the result equals ``json.loads(text)`` with those members
    converted, duplicate keys included: the last value wins in the first
    key's position.
    """
    skip = _JSON_WS.match
    decode = _DECODER.raw_decode
    pos = skip(text).end()
    if text[pos:pos + 1] != "{":
        return None
    doc = {}
    pos = skip(text, pos + 1).end()
    if text[pos:pos + 1] == "}":
        pos += 1
    else:
        try:
            while True:
                if text[pos:pos + 1] != '"':
                    return None
                key, pos = decode(text, pos)
                pos = skip(text, pos).end()
                if text[pos:pos + 1] != ":":
                    return None
                value, pos = decode(text, skip(text, pos + 1).end())
                if key in arrays:
                    try:
                        value = np.asarray(value, dtype=np.float64)
                    except (TypeError, ValueError, OverflowError):
                        pass  # _float_array reports it by field name
                doc[key] = value
                pos = skip(text, pos).end()
                sep = text[pos:pos + 1]
                pos += 1
                if sep == "}":
                    break
                if sep != ",":
                    return None
                pos = skip(text, pos).end()
        except (ValueError, RecursionError):
            return None
    if skip(text, pos).end() != len(text):
        return None
    return doc


def _read_json_object(path, kind: str) -> dict:
    """Parse an ASCII JSON file whose top level must be an object.

    The array fields of ``kind`` come back as float64 arrays when they
    convert; see :func:`_walk_object`. Errors are those of ``json.loads``
    on the file's text with its line endings kept, so their positions are
    offsets in the file.
    """
    try:
        text = Path(path).read_bytes().decode("ascii")
        doc = _walk_object(text, _ARRAY_FIELDS[kind])
        if doc is None:
            doc = json.loads(text)
    except OSError as exc:
        raise InputError(f"cannot read {kind} file {path}: {exc}") from exc
    except ValueError as exc:  # non-ASCII bytes, bad syntax, over-long integers
        raise InputError(f"{kind} file {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"{kind} file {path} is nested too deeply to parse") from exc
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
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError("field 'eta' must be a number") from exc
    if not (eta > 0.0 and np.isfinite(eta)):
        raise InputError(f"field 'eta' must be positive and finite, got {eta}")
    h = arrays["h_re"] + 1j * arrays["h_im"]
    a = arrays["a_re"] + 1j * arrays["a_im"]
    return ProblemInstance(h=h, a=a, eta=eta)


def write_instance(doc: dict, path) -> None:
    Path(path).write_text(json.dumps(doc, indent=1) + "\n", encoding="ascii")


def read_instance(path) -> tuple[ProblemInstance, dict]:
    """Read and validate an instance file.

    Returns the problem and the document. The document's array fields
    ``h_re``, ``h_im``, ``a_re`` and ``a_im`` are float64 arrays, converted
    while the file is parsed; the other fields are as ``json.loads`` gives
    them.
    """
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
    """Read a solution file as a complex N x K matrix.

    Its ``w_re`` and ``w_im`` fields become float64 arrays while the file
    is parsed, so the nested lists of one field are freed before the next.
    """
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
    """Dispatch one solve. w0 defaults to the zero matrix (always feasible).
    A closed form whose objective overflows raises InputError, as the
    iterative methods do at a non-finite initial objective."""
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
    the direct methods), without the out-of-interval warning."""
    config = SolverConfig(alpha=parse_alpha_spec(alpha_spec), **config_options)
    resolved = None
    if method in ITERATIVE_METHODS:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            resolved = resolve_alpha(config, pre.lipschitz, _step_mode(method))
    return config, resolved


def _run_quietly(instance, pre, method, config, radius_is_eta) -> SolveResult:
    """One solve, solver warnings silenced: callers report a bad step."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_solver(instance, pre, method, config, radius_is_eta)


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
    radius_is_eta: bool = False,
    time_iterations: bool = False,
) -> tuple[SolveResult, ExperimentSummary]:
    """Load an instance, run one solver, export the trace, print a summary."""
    instance, _ = read_instance(instance_path)
    pre = precompute(instance)
    config, resolved = _configure(
        pre, method, alpha_spec, tau=tau, max_iter=max_iter, time_iterations=time_iterations
    )
    result = _run_quietly(instance, pre, method, config, radius_is_eta)

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
    radius_is_eta: bool = False,
    w_path=None,
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
        config, resolved = _configure(
            pre, w_source, alpha_spec,
            tau=tau, max_iter=max_iter, record_iterates="thm3" in monitors,
        )
        result = _run_quietly(instance, pre, w_source, config, radius_is_eta)
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
    radius_is_eta: bool = False,
) -> list[dict]:
    """Run one solve per step size, exporting a trace per run plus a
    combined summary table (alpha, iterations-to-threshold, final
    objective). Solver errors are recorded per step size rather than
    aborting the sweep.

    Every step is resolved first; a spec that does not resolve gets its
    error row at once. The resolved steps are split by their
    :func:`_step_cost`, longest first, into ``_sweep_workers`` groups. The first
    group runs in this process and every other group in a forked child,
    which writes its own ``trace_<i>.csv`` files and sends its summary rows
    back. The split depends only on the instance, the specs and L, and
    ``summary.csv`` and stdout list the rows in index order, so every
    output byte is the same whatever the number of workers. An exception
    that escapes a worker's steps is raised again here, as it would be had
    this process run them; a worker that dies or sends an unreadable
    result raises WorkerError. Either way no summary is written.
    """
    if not alpha_specs:
        raise InputError("sweep needs at least one step size")
    if method not in ITERATIVE_METHODS:
        raise InputError(f"sweep supports iterative methods only, got {method!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    instance, _ = read_instance(instance_path)
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
            _sweep_step(instance, pre, method, *steps[i], radius_is_eta, out, rows[i])
        return [rows[i] for i in indices]

    indices = list(steps)
    split = _lpt_groups(
        [_step_cost(pre, steps[i][1]) for i in indices],
        _sweep_workers(instance, method, len(indices)),
    )
    for row in _run_groups([[indices[j] for j in group] for group in split], run_group):
        rows[row["index"]] = row

    lines = [",".join(SWEEP_COLUMNS)]
    lines += [",".join(str(row[col]) for col in SWEEP_COLUMNS) for row in rows]
    _write_lines(out / "summary.csv", lines)
    print("\n".join(lines))
    return rows


def _one_line(exc: Exception) -> str:
    return str(exc).replace("\n", " ")


def _sweep_step(
    instance, pre, method, config, resolved, radius_is_eta, out: Path, row: dict
) -> None:
    """Solve one sweep step, write its trace and fill its summary row; a
    CmopError becomes the row's error."""
    try:
        result = _run_quietly(instance, pre, method, config, radius_is_eta)
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


# A sweep runs in worker processes only while every BLAS call of its solves
# stays on one thread. A threaded call leaves OpenBLAS worker threads
# spinning after it, and two processes doing that on two cores thrash: a
# 4-step pgd sweep at 120 x 64 x 64 ran 2-16x slower forked. OpenBLAS 0.3.31
# starts threads for a matrix product of 2^18 real multiply-adds (a complex
# one counts four) and for an inner product of more than 10^4 elements; both
# were read off the thread count of a freshly forked process, where OpenBLAS
# has stopped its pool. The real-stacked Gram product runs on one thread a
# little beyond 2^18 and the other real products up to at least 8 x 10^5, so
# the first bound is conservative for them.
_SERIAL_BLAS_MACS = 2**18
_SERIAL_BLAS_DOT = 10_000


def _blas_sizes(method: str, m: int, n: int, k: int) -> tuple[int, int]:
    """The largest matrix product of one solve of ``method``, in real
    multiply-adds, and its longest inner product, in elements."""
    if method == "real-augmented":
        # (2N x 2M)(2M x 2N) and (2N x 2M)(2M x K) once per solve,
        # (2N x 2N)(2N x K) per iteration; inner products over 2MK and 2NK.
        return 4 * n * max(2 * m * n, m * k, n * k), 2 * k * max(m, n)
    # (N x N)(N x K) per iteration; inner products over MK and NK entries.
    return 4 * n * n * k, k * max(m, n)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def _sweep_workers(instance: ProblemInstance, method: str, steps: int) -> int:
    """Processes a sweep of ``steps`` resolved steps runs in: one (this
    process) when fork or CPU affinity is missing, when fork is unsafe
    because another Python thread is alive, when a solve would start BLAS
    threads, or when there is only one CPU or step; else one per CPU, at
    most one per step. Workers were measured only pinned to CPUs, as
    :func:`_run_groups` pins them, so they need the affinity calls."""
    macs, dot = _blas_sizes(method, instance.m, instance.n, instance.k)
    if (
        not hasattr(os, "fork")
        or not hasattr(os, "sched_setaffinity")
        or threading.active_count() > 1
        or macs >= _SERIAL_BLAS_MACS
        or dot > _SERIAL_BLAS_DOT
    ):
        return 1
    return max(1, min(_usable_cpus(), steps))


def _step_cost(pre: Precomputed, alpha: float) -> float:
    """A fixed-step solve's iteration count with step ``alpha``, up to a
    factor that is the same for every step on ``pre``.

    With x = alpha L and q = lambda_min / L (lambda_min clamped at 0),
    gradient descent contracts by max(|1 - x|, 1 - x q) per iteration, so
    it takes about 1 / min(1 - |1 - x|, x q) iterations. For x < 2 that is
    max(1/x, q / (2 - x)) / q, and the cost is the numerator: 1/x up to
    x = 1, which covers every step of the projected method's interval
    (0, 1/L), then rising again towards x = 2 (unless q = 0). A step at or
    beyond 2/L diverges within a few iterations and costs 1/x.
    """
    x = alpha * pre.lipschitz
    if x >= 2.0:
        return 1.0 / x
    q = max(pre.lambda_min, 0.0) / pre.lipschitz
    return max(1.0 / x, q / (2.0 - x))


def _lpt_groups(costs: list[float], workers: int) -> list[list[int]]:
    """Longest-processing-time-first split of items 0 .. len(costs) - 1 into
    ``workers`` groups: item by item, costliest first (ties by index), each
    joins the group with the least cost so far (ties by group index). Each
    group lists its items in index order."""
    groups: list[list[int]] = [[] for _ in range(workers)]
    loads = [0.0] * workers
    for i in sorted(range(len(costs)), key=lambda i: (-costs[i], i)):
        g = min(range(workers), key=lambda g: (loads[g], g))
        groups[g].append(i)
        loads[g] += costs[i]
    return [sorted(group) for group in groups]


def _run_groups(groups: list[list[int]], run_group) -> list[dict]:
    """The rows ``run_group(group)`` returns for every group: the first
    group runs in this process, each other one in a forked child. On any
    error the children still running are killed, and every child is
    reaped with its pipe closed.

    With more than one group, group g runs alone on the g-th usable CPU in
    ascending order (modulo their number), this process only until its
    group is done. On a 2-vCPU VM the scheduler was seen to keep an
    unpinned forked child on its parent's CPU, where two processes were no
    faster than one.
    """
    cpus = sorted(os.sched_getaffinity(0)) if len(groups) > 1 else []

    def work(g: int) -> list[dict]:
        if cpus:
            os.sched_setaffinity(0, {cpus[g % len(cpus)]})
        return run_group(groups[g])

    children = []  # (pid, read end of its pipe, group)
    try:
        for g in range(1, len(groups)):
            pid, fd = _fork(lambda g=g: work(g), [c[1] for c in children])
            children.append((pid, fd, groups[g]))
        try:
            rows = work(0)
        finally:
            if cpus:
                os.sched_setaffinity(0, cpus)
        while children:
            rows += _collect(*children.pop(0))
        return rows
    finally:
        for pid, fd, _ in children:
            os.close(fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _fork(work, inherited: list[int]) -> tuple[int, int]:
    """Run ``work()`` in a forked child that sends its result as JSON over
    a pipe; returns (pid, read end). The child closes the ``inherited`` read
    ends of earlier children, never prints, and leaves through os._exit on
    every path, so it never returns into the caller's stack or flushes
    buffers it inherited. It exits 1 after sending an exception that
    escapes ``work``: pickled, or as repr() if it does not pickle."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        code = 1
        try:
            for fd in (read_fd, *inherited):
                os.close(fd)
            try:
                payload, ok = json.dumps(work()).encode("ascii"), True
            except BaseException as exc:  # sent to the parent, never re-raised here
                try:
                    payload = pickle.dumps(exc)
                    pickle.loads(payload)  # the parent must be able to load it
                except Exception:
                    payload = repr(exc).encode("ascii", "replace")
                ok = False
            view = memoryview(payload)
            while view:
                view = view[os.write(write_fd, view):]
            code = 0 if ok else 1
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, read_fd


def _collect(pid: int, fd: int, group: list[int]) -> list[dict]:
    """Read a child's rows to the end of its pipe, reap it and check that
    it exited 0 and sent one well-formed row per row index in ``group``.
    An exception the child sent is raised here, caused by a WorkerError
    that names the child."""
    try:
        with os.fdopen(fd, "rb") as pipe:
            data = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    where = f"sweep worker process {pid}"
    code = os.waitstatus_to_exitcode(status)
    if code == 1:
        try:
            exc = pickle.loads(data)  # written by our own fork, not by a stranger
        except Exception:
            exc = None
        if isinstance(exc, BaseException):
            raise exc from WorkerError(f"{where} raised {type(exc).__name__}")
    if code != 0:
        detail = data.decode("ascii", "replace")[-300:]
        raise WorkerError(f"{where} exited with status {code}" + (f": {detail}" if detail else ""))
    try:
        rows = json.loads(data)
    except ValueError:
        rows = None
    if not (
        isinstance(rows, list)
        and all(isinstance(row, dict) and list(row) == list(SWEEP_COLUMNS) for row in rows)
        and [row["index"] for row in rows] == group
    ):
        raise WorkerError(f"{where} sent an invalid result ({len(data)} bytes)")
    return rows
