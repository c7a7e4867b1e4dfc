"""The benchmark's workloads: their instances, their ops, and the checks
every op's outputs must pass.

An op is one CLI command, given as the argv of ``cmop.cli.main``. Instance
seeds derive from the benchmark seed alone, so the same seed gives the
same instance files. Why each workload exists is in README.md.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
from pathlib import Path

import numpy as np

OBJECTIVE_RTOL = 1e-8
SWEEP_FRACTIONS = "f0.1,f0.3,f0.5,f0.7,f0.9"
CERTIFY_MONITORS = "thm3,kkt,lemma2,lemma4,lipschitz"
CONVERGED = "decrease-below-tau"


@dataclasses.dataclass(frozen=True)
class Instance:
    name: str
    m: int
    n: int
    k: int
    eta: float
    seed: int
    path: Path
    rng_range: float = 10.0

    def spec(self) -> dict:
        return {
            "m": self.m, "n": self.n, "k": self.k, "eta": self.eta,
            "seed": self.seed, "range": self.rng_range, "path": str(self.path),
        }


@dataclasses.dataclass(frozen=True)
class Op:
    """One CLI command. Ops with equal ``key`` must write byte-identical
    ``outputs`` (files, or directories whose files all count)."""

    key: str
    kind: str  # solve, check, sweep-gd, sweep-pgd or sweep-real-augmented
    instance: Instance
    argv: tuple[str, ...]
    outputs: tuple[Path, ...]


@dataclasses.dataclass(frozen=True)
class Workload:
    """``cycle(i)`` is the i-th group of ops of the timed loop, which runs
    whole cycles only, so every run has the same mix of op kinds.
    ``trace_pass`` is the fixed op list of the traced run, whose counts
    must repeat exactly. ``cold_ops`` run as fresh processes.
    ``serial`` is (instance, alpha, tau) of the one-BLAS-thread solve."""

    instances: tuple[Instance, ...]
    cycles: tuple[tuple[Op, ...], ...]
    trace_pass: tuple[Op, ...]
    cold_ops: tuple[Op, ...]
    serial: tuple[Instance, str, str]

    def cycle(self, i: int) -> tuple[Op, ...]:
        return self.cycles[i % len(self.cycles)]


def _solve(inst: Instance, out: Path, *extra: str) -> Op:
    out.mkdir(parents=True, exist_ok=True)
    trace, solution = out / "trace.csv", out / "solution.json"
    argv = ("solve", str(inst.path), "--method", "pgd", "--alpha", "f0.9", *extra,
            "--trace", str(trace), "-o", str(solution))
    return Op(f"solve:{inst.name}", "solve", inst, argv, (trace, solution))


def _sweep(inst: Instance, out: Path, method: str) -> Op:
    out_dir = out / f"sweep-{method}"
    argv = ("sweep", str(inst.path), "--method", method, "--alphas", SWEEP_FRACTIONS,
            "--out-dir", str(out_dir))
    return Op(f"sweep-{method}:{inst.name}", f"sweep-{method}", inst, argv, (out_dir,))


def _check(inst: Instance, out: Path, *source: str, monitors: str) -> Op:
    out.mkdir(parents=True, exist_ok=True)
    report = out / "report.txt"
    argv = ("check", str(inst.path), *source, "--monitors", monitors, "--report", str(report))
    return Op(f"check:{inst.name}", "check", inst, argv, (report,))


def paper_sweep(seed: int, work: Path, small: bool) -> Workload:
    count = 3 if small else 128
    insts = tuple(
        Instance(f"p{i}", 10, 5, 8, 2.0, seed * 1000 + i, work / f"p{i}.cmop.json")
        for i in range(count)
    )
    cycles = []
    for inst in insts:
        out = work / inst.name
        solve = _solve(inst, out, "--tau", "1e-14")
        # The solve runs twice per instance: the second run must write the
        # same bytes as the first, and with two solves among five ops the
        # median op falls inside the gd-sweep times rather than in the gap
        # between two kinds of op, where it would jump from run to run.
        cycles.append((
            _sweep(inst, out, "gd"), solve, _sweep(inst, out, "pgd"), solve,
            _sweep(inst, out, "real-augmented"),
        ))
    traced = 2 if small else 8
    return Workload(
        instances=insts,
        cycles=tuple(cycles),
        trace_pass=tuple(op for c in cycles[:traced] for op in c),
        cold_ops=tuple(cycles[i % count][1] for i in range(9)),
        serial=(insts[0], "f0.9", "1e-14"),
    )


def large_io(seed: int, work: Path, small: bool) -> Workload:
    m, n, k = (100, 40, 32) if small else (1000, 200, 256)
    inst = Instance("big", m, n, k, 2.0, seed * 1000, work / "big.cmop.json")
    out = work / inst.name
    solve = _solve(inst, out)
    check = _check(inst, out, "--w-source", "file", "--w-file", str(out / "solution.json"),
                   monitors="kkt")
    # Two checks per solve put the median op inside the check times, not
    # between the check and solve times, where it would jump run to run.
    return Workload(
        instances=(inst,),
        cycles=((solve, check, check),),
        trace_pass=(solve, check, check),
        cold_ops=(check,) * 5,
        serial=(inst, "f0.9", "1e-12"),
    )


def certify(seed: int, work: Path, small: bool) -> Workload:
    # Two of three ops at the larger N put the median op inside one size.
    sizes = (5, 4, 5) if small else (10, 8, 10)
    groups = 2 if small else 16
    insts = tuple(
        Instance(f"c{i}", 16, sizes[i % 3], 8, 0.01, seed * 1000 + i, work / f"c{i}.cmop.json")
        for i in range(groups * 3)
    )
    ops = tuple(
        _check(inst, work / inst.name, "--w-source", "pgd", "--alpha", "f0.9",
               "--tau", "1e-14", monitors=CERTIFY_MONITORS)
        for inst in insts
    )
    cycles = tuple(ops[i:i + 3] for i in range(0, len(ops), 3))
    return Workload(
        instances=insts,
        cycles=cycles,
        trace_pass=cycles[0],
        cold_ops=tuple(op for cycle in cycles for op in (cycle[0], cycle[2]))[:5],
        serial=(insts[0], "f0.9", "1e-14"),
    )


WORKLOADS = {"paper-sweep": paper_sweep, "large-io": large_io, "certify": certify}


def output_files(op: Op) -> list[Path]:
    files = []
    for out in op.outputs:
        if out.is_dir():
            files.extend(sorted(p for p in out.rglob("*") if p.is_file()))
        elif out.is_file():
            files.append(out)
    return files


class Checker:
    """Checks the outputs of every op; ``check`` returns why an op failed,
    or None.

    In-process solves hand their ``w_final`` to ``write_solution``; the
    checker keeps the last one per path, so a solution file can be compared
    with the matrix that produced it.
    """

    def __init__(self):
        self.digests: dict[tuple[str, str], str] = {}
        self.written: dict[str, np.ndarray] = {}
        self._refs: dict[str, dict] = {}
        self._kkt_passed: dict[str, bool] = {}

    def install_capture(self) -> None:
        import cmop.harness

        write_solution = cmop.harness.write_solution

        def capturing(w, path):
            self.written[str(path)] = w
            return write_solution(w, path)

        cmop.harness.write_solution = capturing

    def check(self, op: Op, status, in_process: bool) -> str | None:
        if status != 0:
            return f"exit status {status!r}"
        files = output_files(op)
        if len(files) < len(op.outputs):
            return "an output file is missing"
        for path in files:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            seen = self.digests.setdefault((op.key, path.name), digest)
            if seen != digest:
                return f"{path.name} differs from an earlier run of the same op"
        if op.kind == "solve":
            return self._check_solution(op, in_process)
        if op.kind == "check":
            return _check_report(op.outputs[0])
        return self._check_sweep(op)

    def _ref(self, inst: Instance) -> dict:
        if inst.name not in self._refs:
            from cmop.harness import read_instance
            from cmop.objective import closed_form_unconstrained, evaluate, precompute

            instance, _ = read_instance(inst.path)
            pre = precompute(instance)
            self._refs[inst.name] = {
                "instance": instance,
                "pre": pre,
                "closed_objective": evaluate(pre, instance, closed_form_unconstrained(pre)),
            }
        return self._refs[inst.name]

    def _check_solution(self, op: Op, in_process: bool) -> str | None:
        from cmop.diagnostics import kkt_check
        from cmop.harness import read_solution

        path = op.outputs[1]
        w_file = read_solution(path)
        if in_process:
            w_mem = self.written.pop(str(path), None)
            if w_mem is None:
                return "write_solution was not called"
            if not _bit_identical(w_file, w_mem):
                return "solution file does not re-read bit-identical to w_final"
        name = op.instance.name
        if name not in self._kkt_passed:
            ref = self._ref(op.instance)
            self._kkt_passed[name] = kkt_check(ref["pre"], ref["instance"], w_file).passed
        return None if self._kkt_passed[name] else "pgd solution fails kkt_check"

    def _check_sweep(self, op: Op) -> str | None:
        ref = self._ref(op.instance)
        if op.kind == "sweep-gd":
            target = ref["closed_objective"]
        else:
            if "oracle_objective" not in ref:
                from cmop.solvers import active_set_oracle

                ref["oracle_objective"] = active_set_oracle(ref["pre"], ref["instance"]).objective
            target = ref["oracle_objective"]
        with open(op.outputs[0] / "summary.csv", newline="", encoding="ascii") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != len(SWEEP_FRACTIONS.split(",")):
            return f"summary has {len(rows)} rows"
        for row in rows:
            if row["error"] or row["stop_reason"] != CONVERGED:
                return f"alpha {row['alpha_spec']} stopped with {row['stop_reason'] or row['error']}"
            err = abs(float(row["final_objective"]) - target) / abs(target)
            if err > OBJECTIVE_RTOL:
                return f"alpha {row['alpha_spec']} objective is {err:.2e} relative from the optimum"
        return None


def _check_report(path: Path) -> str | None:
    """Every status line of a certificate report must read 'passed'."""
    lines = path.read_text(encoding="ascii").splitlines()
    if not lines:
        return "report is empty"
    for line in lines:
        parts = line.split()
        if parts[:1] == ["monitor"]:
            status = parts[2]
        elif parts[:1] == ["kkt"] and parts[1] != "lambda_hat":
            status = parts[1]
        elif parts[:2] == ["kkt", "lambda_hat"]:
            continue
        else:
            return f"report line is not a passed certificate: {line[:80]!r}"
        if status != "passed":
            return f"report line is not passed: {line[:80]!r}"
    return None


def _bit_identical(a, b) -> bool:
    a = np.ascontiguousarray(a, dtype=np.complex128)
    b = np.ascontiguousarray(b, dtype=np.complex128)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))
