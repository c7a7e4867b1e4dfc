"""Instance generation, file round trips, experiment orchestration, the
names it calls through ``cmop.harness``, and the command-line surface with
its exit-status contract."""

import collections
import json
import tracemalloc
import weakref

import numpy as np
import pytest

from cmop import (
    adjoint_product,
    cmatrix,
    gen_instance,
    instance_from_document,
    precompute,
    closed_form_unconstrained,
    project_rows,
    read_instance,
    read_solution,
    run_check,
    run_experiment,
    run_sweep,
    write_instance,
    write_solution,
)
import cmop.harness as harness
import cmop.workers as workers
from cmop.cli import EXIT_CHECK_FAILED, EXIT_DIVERGED, EXIT_INPUT, EXIT_OK, main
from cmop.errors import InputError, SingularSystemError
from cmop.harness import METHODS, default_seed, iterations_to_threshold, parse_alpha_spec
from cmop.solvers import SolverConfig, gd_solve
from helpers import make_instance, read_trace, zero_w


# (m, n, k, signed zeros): random instances, one with N > M, and one whose
# corner entries are zeros of all four sign pairs (re, im).
BIT_CASES = {
    "random": (6, 3, 4, False),
    "n-above-m": (3, 5, 7, False),
    "signed-zeros": (6, 3, 4, True),
}


def bit_case_document(m, n, k, zeros):
    doc = gen_instance(m=m, n=n, k=k, seed=m + n + k)
    for field in ("h_re", "h_im", "a_re", "a_im"):
        doc[field] = np.asarray(doc[field])
        if zeros:
            doc[field][:2, :2] = ([[-0.0, 0.0], [-0.0, 0.0]] if field.endswith("re")
                                  else [[-0.0, -0.0], [0.0, 0.0]])
    return doc


def bits(x) -> bytes:
    return np.ascontiguousarray(x).view(np.uint64).tobytes()


@pytest.fixture
def instance_path(tmp_path):
    path = tmp_path / "inst.cmop.json"
    write_instance(gen_instance(seed=0), path)
    return path


class TestGenInstance:
    def test_deterministic_documents(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_instance(gen_instance(seed=42), p1)
        write_instance(gen_instance(seed=42), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_components_within_range(self):
        doc = gen_instance(rng_range=10.0, seed=7)
        for field in ("h_re", "h_im", "a_re", "a_im"):
            arr = np.asarray(doc[field])
            assert np.all(arr >= -10.0) and np.all(arr <= 10.0)

    def test_defaults_match_experiment_scale(self):
        doc = gen_instance(seed=0)
        assert (doc["m"], doc["n"], doc["k"]) == (10, 5, 8)
        assert doc["eta"] == 2.0 and doc["range"] == 10.0
        assert doc["rng"] == "numpy-pcg64"

    def test_consecutive_seeds_give_invertible_systems(self):
        for seed in range(100):
            inst = instance_from_document(gen_instance(seed=seed))
            pre = precompute(inst)
            closed_form_unconstrained(pre)  # raises if the solve is untrusted

    def test_bad_parameters(self):
        with pytest.raises(InputError):
            gen_instance(m=0)
        with pytest.raises(InputError):
            gen_instance(rng_range=0.0)
        with pytest.raises(InputError):
            gen_instance(eta=-1.0)


class TestInstanceRoundTrip:
    def test_every_number_reproduced_exactly(self, tmp_path):
        doc = gen_instance(seed=3)
        path = tmp_path / "inst.json"
        write_instance(doc, path)
        _, loaded = read_instance(path)
        for field in ("h_re", "h_im", "a_re", "a_im"):
            assert np.array_equal(np.asarray(loaded[field]), np.asarray(doc[field]))
        assert loaded["eta"] == doc["eta"]
        assert loaded["seed"] == doc["seed"]
        assert loaded["range"] == doc["range"]

    def test_complex_matrices_have_the_bits_of_re_plus_1j_im(self):
        """Signed zeros included: 1j * -0.0 has imaginary part +0.0."""
        doc = gen_instance(m=6, n=3, k=4, seed=2)
        for field in ("h_re", "h_im", "a_re", "a_im"):
            doc[field] = np.asarray(doc[field])
            doc[field][:2, :2] = [[-0.0, 0.0], [-0.0, -0.0]]
        instance = instance_from_document(doc)
        for x, got in (("h", instance.h), ("a", instance.a)):
            expected = doc[f"{x}_re"] + 1j * doc[f"{x}_im"]
            assert got.view(np.uint64).tobytes() == expected.view(np.uint64).tobytes()
        assert np.signbit(instance.h.real[1, 0]) and not np.signbit(instance.h.imag[1, 0])

    @pytest.mark.parametrize("case", BIT_CASES.values(), ids=BIT_CASES)
    def test_precompute_has_the_bits_of_adjoint_product(self, case):
        instance = instance_from_document(bit_case_document(*case))
        pre = precompute(instance)
        assert bits(pre.g) == bits(adjoint_product(instance.h, instance.h))
        assert bits(pre.b) == bits(adjoint_product(instance.h, instance.a))
        assert pre.g.flags.c_contiguous and pre.b.flags.c_contiguous

    @pytest.mark.parametrize("case", BIT_CASES.values(), ids=BIT_CASES)
    def test_read_solution_has_the_bits_of_re_plus_1j_im(self, tmp_path, case):
        doc = bit_case_document(*case)
        w_re, w_im = doc["a_re"], doc["a_im"]
        path = tmp_path / "w.json"
        n, k = w_re.shape
        path.write_text(json.dumps({"n": n, "k": k, "w_re": w_re.tolist(), "w_im": w_im.tolist()}))
        assert bits(read_solution(path)) == bits(cmatrix(w_re + 1j * w_im))

    def test_missing_field_named(self, tmp_path):
        doc = gen_instance(seed=0)
        del doc["a_im"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError, match="a_im"):
            read_instance(path)

    def test_bad_shape_named(self, tmp_path):
        doc = gen_instance(seed=0)
        doc["h_re"] = [[1.0, 2.0]]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError, match="h_re"):
            read_instance(path)

    def test_nonfinite_rejected(self, tmp_path):
        doc = gen_instance(seed=0)
        doc["a_re"][0][0] = float("nan")
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError, match="a_re"):
            read_instance(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json at all")
        with pytest.raises(InputError):
            read_instance(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            read_instance(tmp_path / "nope.json")


def _instance_doc(**changes):
    doc = gen_instance(seed=0)
    doc.update(changes)
    return json.dumps(doc).encode()


def _huge_entry(field):
    rows = gen_instance(seed=0)[field]
    rows[0][0] = 10**400  # a float64 conversion overflows
    return rows


MALFORMED_INSTANCES = {
    "non-ascii-byte": _instance_doc().replace(b'"rng"', b'"r\xc3\xa9ng"'),
    "top-level-number": b"7",
    "top-level-list": b"[1, 2]",
    "over-long-integer": b'{"m": ' + b"1" * 5000 + b"}",
    "huge-integer-in-h-re": _instance_doc(h_re=_huge_entry("h_re")),
    "huge-integer-eta": _instance_doc(eta=10**400),
    "m-overflows-to-inf": _instance_doc().replace(b'"m": 10,', b'"m": 1e400,', 1),
    "n-is-a-fraction": _instance_doc(n=5.7),
    "n-is-a-string": _instance_doc(n="5"),
    "m-is-a-fraction": _instance_doc(m=10.9),
    "eta-is-a-string": _instance_doc(eta="2.0"),
    "eta-is-a-bool": _instance_doc(eta=True),
    "deeply-nested-extra-field": (
        _instance_doc()[:-1] + b', "extra": ' + b"[" * 200_000 + b"]" * 200_000 + b"}"
    ),
}


def _solution_doc(**changes):
    doc = {"n": 2, "k": 2, "w_re": [[1.0, 0.0], [0.0, 1.0]], "w_im": [[0.0, 0.0], [0.0, 0.0]]}
    doc.update(changes)
    return json.dumps(doc).encode()


MALFORMED_SOLUTIONS = {
    "n-not-integer": _solution_doc(n="x"),
    "ragged-w-re": _solution_doc(w_re=[[1.0, 0.0], [0.0]]),
    "non-finite": _solution_doc(w_im=[[0.0, float("nan")], [0.0, 0.0]]),
    "top-level-number": b"7",
    "non-ascii-byte": _solution_doc().replace(b'"k"', b'"k\xc3\xa9"'),
    "n-overflows-to-inf": _solution_doc().replace(b'"n": 2,', b'"n": 1e400,', 1),
    "n-is-a-fraction": _solution_doc(n=2.7),
    "n-is-a-string": _solution_doc(n="2"),
    "k-is-a-fraction": _solution_doc(k=2.9),
}


class TestMalformedFiles:
    """Bad file contents are input errors (exit 2), never tracebacks."""

    @pytest.mark.parametrize(
        "content", MALFORMED_INSTANCES.values(), ids=MALFORMED_INSTANCES.keys()
    )
    def test_instance(self, tmp_path, capsys, content):
        path = tmp_path / "bad.cmop.json"
        path.write_bytes(content)
        with pytest.raises(InputError):
            read_instance(path)
        assert main(["solve", str(path), "--method", "closed"]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "content", MALFORMED_SOLUTIONS.values(), ids=MALFORMED_SOLUTIONS.keys()
    )
    def test_solution(self, tmp_path, capsys, instance_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(InputError):
            read_solution(path)
        code = main([
            "check", str(instance_path), "--w-source", "file", "--monitors", "kkt",
            "--w-file", str(path),
        ])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", [
        *(["solve", "--method", method] for method in METHODS),
        ["check", "--monitors", "kkt"],
        ["sweep", "--alphas", "f0.5"],
    ], ids=[*METHODS, "check", "sweep"])
    def test_instance_whose_gram_overflows(self, tmp_path, capsys, command):
        path = tmp_path / "huge.cmop.json"
        assert main(["gen", "--range", "1e200", "-o", str(path)]) == EXIT_OK
        capsys.readouterr()
        out_dir = tmp_path / "sweep"
        args = [command[0], str(path), *command[1:]]
        if command[0] == "sweep":
            args += ["--out-dir", str(out_dir)]
        assert main(args) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "overflows" in err
        assert not (out_dir / "summary.csv").exists()

    # A numpy warning would print a second stderr line outside pytest.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("method", METHODS)
    def test_instance_whose_objective_overflows(self, tmp_path, capsys, method):
        # G and B stay finite at range 3e153, but 1/2 ||H W - A||^2 does not.
        path = tmp_path / "big.cmop.json"
        assert main(["gen", "--seed", "0", "--range", "3e153", "-o", str(path)]) == EXIT_OK
        capsys.readouterr()
        out = tmp_path / "w.json"
        assert main(["solve", str(path), "--method", method, "-o", str(out)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_trace_not_ascii(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"iter,objective\xc3\xa9\n")
        with pytest.raises(InputError):
            read_trace(path)

    def test_trace_row_not_numeric(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "iter,objective,decrease,grad_norm,step_norm,flops,elapsed_ns\n0,x,1,1,1,1,0\n"
        )
        with pytest.raises(InputError):
            read_trace(path)


class TestTraceAndSolutionFiles:
    def test_trace_round_trip(self, tmp_path, instance_path):
        result, _ = run_experiment(
            instance_path, method="gd", alpha_spec="f0.5", tau=1e-10,
            trace_path=tmp_path / "t.csv",
        )
        records = read_trace(tmp_path / "t.csv")
        assert records == result.trace

    def test_trace_header_and_line_endings(self, tmp_path, instance_path):
        run_experiment(
            instance_path, method="gd", alpha_spec="f0.5", tau=1e-10,
            trace_path=tmp_path / "t.csv",
        )
        raw = (tmp_path / "t.csv").read_bytes()
        assert raw.startswith(b"iter,objective,decrease,grad_norm,step_norm,flops,elapsed_ns\n")
        assert b"\r" not in raw

    def test_solution_round_trip(self, tmp_path):
        rng = np.random.default_rng(70)
        w = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        write_solution(w, tmp_path / "w.json")
        assert np.array_equal(read_solution(tmp_path / "w.json"), w)


class TestRunExperiment:
    def test_larger_step_reaches_threshold_faster(self, tmp_path, instance_path):
        results = {}
        for alpha in ("0.0002", "0.0006"):
            res, summary = run_experiment(
                instance_path, method="gd", alpha_spec=alpha, tau=1e-12,
                max_iter=400_000,
            )
            assert summary.alpha_in_interval
            results[alpha] = res
        f_slow = results["0.0002"].objective
        f_fast = results["0.0006"].objective
        assert f_fast == pytest.approx(f_slow, rel=1e-6)
        slow = iterations_to_threshold(results["0.0002"].trace, f_slow)
        fast = iterations_to_threshold(results["0.0006"].trace, f_fast)
        assert fast < slow

    def test_closed_form_method(self, instance_path):
        res, summary = run_experiment(instance_path, method="closed", alpha_spec="f0.5")
        assert res.iterations == 0
        inst, _ = read_instance(instance_path)
        pre = precompute(inst)
        w_opt = closed_form_unconstrained(pre)
        assert np.allclose(res.w_final, w_opt)
        assert summary.alpha is None

    def test_mirror_routes_agree(self, instance_path):
        out = {}
        for method in ("pgd", "real-augmented"):
            res, _ = run_experiment(
                instance_path, method=method, alpha_spec="f0.9", tau=1e-12,
            )
            out[method] = res.objective
        assert abs(out["pgd"] - out["real-augmented"]) <= 1e-12 * max(1.0, abs(out["pgd"]))

    def test_summary_line_contents(self, capsys, instance_path):
        run_experiment(instance_path, method="gd", alpha_spec="f0.5", tau=1e-10)
        line = capsys.readouterr().out.strip().splitlines()[-1]
        for key in ("method=gd", "objective=", "iterations=", "stop=", "alpha=", "L=", "alpha_in_interval="):
            assert key in line


class TestRunCheck:
    def test_pgd_bundle_passes(self, tmp_path, instance_path):
        passed, lines = run_check(
            instance_path,
            w_source="pgd",
            monitors=["thm3", "lemma4", "kkt"],
            report_path=tmp_path / "report.txt",
            alpha_spec="f0.9",
            tau=1e-14,
        )
        assert passed
        text = (tmp_path / "report.txt").read_text()
        assert "thm3-decrease" in text and "thm3-fejer" in text
        assert "lemma4-vi" in text
        assert "kkt passed" in text

    def test_gd_descent_monitor_passes(self, instance_path):
        passed, _ = run_check(
            instance_path, w_source="gd", monitors=["thm2"], alpha_spec="f0.5",
            tau=1e-12,
        )
        assert passed

    def test_monitor_method_validity(self, instance_path):
        with pytest.raises(InputError):
            run_check(instance_path, w_source="pgd", monitors=["thm2"])
        with pytest.raises(InputError):
            run_check(instance_path, w_source="gd", monitors=["thm3"])
        with pytest.raises(InputError):
            run_check(instance_path, w_source="gd", monitors=["kkt"])
        with pytest.raises(InputError):
            run_check(instance_path, w_source="pgd", monitors=["nonsense"])
        with pytest.raises(InputError):
            run_check(instance_path, w_source="pgd", monitors=[])

    def test_thm3_beyond_enumeration_size(self, tmp_path, capsys):
        """N = 13 was past the old 2^N enumeration's cap; the dual oracle
        supplies W* and every thm3 and kkt line passes."""
        path = tmp_path / "wide.json"
        write_instance(gen_instance(m=14, n=13, k=2, seed=1), path)
        report = tmp_path / "r.txt"
        assert main([
            "check", str(path), "--w-source", "pgd", "--monitors", "thm3,kkt",
            "--alpha", "f0.9", "--tau", "1e-14", "--max-iter", "200000",
            "--report", str(report),
        ]) == EXIT_OK
        capsys.readouterr()
        lines = report.read_text().splitlines()
        assert any(line.startswith("monitor thm3") for line in lines)
        assert any(line.startswith("kkt passed") for line in lines)
        assert not any("FAILED" in line or line.startswith("violation") for line in lines)

    def test_file_source_kkt(self, tmp_path, instance_path):
        res, _ = run_experiment(
            instance_path, method="pgd", alpha_spec="f0.9", tau=1e-14,
            max_iter=200_000, out_path=tmp_path / "w.json",
        )
        passed, _ = run_check(
            instance_path, w_source="file", monitors=["kkt"], w_path=tmp_path / "w.json",
        )
        assert passed

    def test_thm3_runs_the_oracle_before_the_solve(self, tmp_path):
        # At range 3e153 the oracle's dual value and the solve's initial
        # objective both overflow. thm3 needs the optimum before the solve
        # starts, so its error is the oracle's, wherever thm3 is listed.
        path = tmp_path / "big.cmop.json"
        write_instance(gen_instance(seed=0, rng_range=3e153), path)
        for monitors in (["thm3"], ["kkt", "thm3"]):
            with pytest.raises(SingularSystemError):
                run_check(path, "pgd", monitors)
        with pytest.raises(InputError, match="initial iterate"):
            run_check(path, "pgd", ["kkt"])


M, N, K = 300, 60, 64


@pytest.fixture(scope="module")
def mid_instance(tmp_path_factory):
    path = tmp_path_factory.mktemp("mid") / "mid.cmop.json"
    write_instance(gen_instance(m=M, n=N, k=K, eta=0.5, seed=0), path)
    return path


def _traced_peak(path, w_source, monitors, alpha_spec):
    """The peak traced memory of one run_check, in bytes."""
    tracemalloc.start()
    try:
        passed, _ = run_check(path, w_source, monitors, alpha_spec=alpha_spec, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert passed
    return peak


# thm3 keeps one distance per iterate, not the iterate, and the sample
# monitors hold one block of samples at a time: at M x N x K = 300 x 60 x 64
# thm3 sees 110 iterates (61 kB each) at f0.9 and 199 at f0.5, lemma2
# draws 100 pairs and lemma4 500 samples.
@pytest.mark.parametrize("w_source, monitors, alpha_spec", [
    ("pgd", ["thm3"], "f0.9"),
    ("pgd", ["thm3"], "f0.5"),
    ("oracle", ["lemma2"], "f0.5"),
    ("oracle", ["lemma4"], "f0.5"),
], ids=["thm3-f0.9", "thm3-f0.5", "lemma2", "lemma4"])
def test_check_memory_stays_within_a_few_blocks_of_kkt(
    mid_instance, capsys, w_source, monitors, alpha_spec
):
    kkt = _traced_peak(mid_instance, w_source, ["kkt"], alpha_spec)
    peak = _traced_peak(mid_instance, w_source, monitors, alpha_spec)
    capsys.readouterr()
    # lemma2's largest temporary per sample, above an iterate's 16 N K bytes
    # and lemma4's block.
    block = 16 * max(M, 2 * N) * K
    assert peak <= kkt + 4 * block


class TestRunSweep:
    def test_summary_and_traces(self, tmp_path, instance_path):
        out = tmp_path / "sweep"
        rows = run_sweep(
            instance_path, method="gd", alpha_specs=["0.0002", "0.0006"],
            tau=1e-12, max_iter=400_000, out_dir=out,
        )
        assert (out / "trace_0.csv").exists() and (out / "trace_1.csv").exists()
        assert (out / "summary.csv").exists()
        finals = [float(r["final_objective"]) for r in rows]
        assert finals[0] == pytest.approx(finals[1], rel=1e-6)
        assert int(rows[1]["iters_to_threshold"]) < int(rows[0]["iters_to_threshold"])

    def test_reruns_byte_identical(self, tmp_path, instance_path):
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            run_sweep(
                instance_path, method="pgd", alpha_specs=["f0.5", "f0.9"],
                tau=1e-10, out_dir=out,
            )
            outs.append(
                {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            )
        assert outs[0] == outs[1]

    def test_solver_error_recorded_not_raised(self, tmp_path, instance_path):
        rows = run_sweep(
            instance_path, method="gd", alpha_specs=["f0.5", "garbage"],
            tau=1e-10, out_dir=tmp_path / "s",
        )
        assert rows[0]["error"] == ""
        assert rows[1]["error"] != ""


    def test_threshold_ignores_rounding_level_optimum(self):
        # Unconstrained gd on N > M reaches F = 0; its last objectives are
        # rounding noise (0.0 and 2.3e-13), which must not move the column.
        inst = make_instance(0, m=4, n=6, eta=0.01)
        res = gd_solve(precompute(inst), inst, zero_w(inst), SolverConfig(alpha="f0.3", tau=1e-14))
        limits = [0.0, res.objective, max(rec.objective for rec in res.trace[-10:])]
        reached = {iterations_to_threshold(res.trace, limit) for limit in limits}
        assert len(reached) == 1 and None not in reached


class TestCli:
    def test_gen_solve_check_pipeline(self, tmp_path, capsys):
        inst = tmp_path / "i.cmop.json"
        assert main(["gen", "--seed", "5", "-o", str(inst)]) == EXIT_OK
        assert main([
            "solve", str(inst), "--method", "pgd", "--alpha", "f0.9",
            "--tau", "1e-14", "--max-iter", "200000",
            "--trace", str(tmp_path / "t.csv"), "-o", str(tmp_path / "w.json"),
        ]) == EXIT_OK
        assert main([
            "check", str(inst), "--w-source", "pgd", "--monitors", "thm3,lemma4,kkt",
            "--alpha", "f0.9", "--tau", "1e-14", "--max-iter", "200000",
            "--report", str(tmp_path / "r.txt"),
        ]) == EXIT_OK
        capsys.readouterr()

    def test_missing_instance_is_input_error(self, tmp_path, capsys):
        code = main(["solve", str(tmp_path / "absent.json"), "--method", "gd"])
        capsys.readouterr()
        assert code == EXIT_INPUT

    def test_divergent_solve_exit_code(self, tmp_path, capsys):
        inst = tmp_path / "i.json"
        main(["gen", "--seed", "1", "-o", str(inst)])
        code = main(["solve", str(inst), "--method", "gd", "--alpha", "1e6"])
        capsys.readouterr()
        assert code == EXIT_DIVERGED

    def test_rising_solve_exits_as_diverged(self, tmp_path, capsys):
        # 2/L is 0.0015 on seed 0: the first step raises the objective from
        # 2852.9 to 2888.6, far below the 1e6x divergence marker.
        inst = tmp_path / "i.json"
        main(["gen", "--seed", "0", "-o", str(inst)])
        capsys.readouterr()
        code = main(["solve", str(inst), "--method", "gd", "--alpha", "0.002"])
        out = capsys.readouterr().out
        assert code == EXIT_DIVERGED
        assert "iterations=1 stop=diverged" in out

    @pytest.mark.parametrize("method, monitors", [
        ("gd", "thm2"), ("pgd", "thm3,kkt"), ("real-augmented", None),
    ])
    @pytest.mark.parametrize("alpha", ["0.002", "1e300"])
    def test_a_step_outside_the_interval_warns_once_on_solve_only(
        self, tmp_path, capsys, instance_path, method, monitors, alpha
    ):
        # 2/L is 0.0015 on seed 0 and 1/L 0.00075: both steps lie outside.
        lipschitz = precompute(read_instance(instance_path)[0]).lipschitz
        sup = (2.0 if method == "gd" else 1.0) / lipschitz
        main(["solve", str(instance_path), "--method", method, "--alpha", alpha])
        out, err = capsys.readouterr()
        assert err == (
            f"warning: step size {float(alpha)!r} lies outside the guaranteed "
            f"interval (0, {sup!r}); proceeding\n"
        )
        assert "alpha_in_interval=no" in out
        if monitors is not None:
            main(["check", str(instance_path), "--w-source", method, "--alpha", alpha,
                  "--monitors", monitors])
            assert capsys.readouterr().err == ""
        assert main(["sweep", str(instance_path), "--method", method, "--alphas", alpha,
                     "--out-dir", str(tmp_path / "sw")]) == EXIT_OK
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv", [
        ["solve", "{inst}", "--method", "pgd", "--alpha", "{alpha}"],
        ["check", "{inst}", "--w-source", "gd", "--alpha", "{alpha}", "--monitors", "thm2"],
    ], ids=["solve", "check"])
    @pytest.mark.parametrize("alpha", ["inf", "1e400", "nan"])
    def test_a_non_finite_step_is_a_one_line_input_error(
        self, capsys, instance_path, argv, alpha
    ):
        code = main([arg.format(inst=instance_path, alpha=alpha) for arg in argv])
        out, err = capsys.readouterr()
        assert code == EXIT_INPUT and out == ""
        assert err == f"error: fixed step size must be positive and finite, got {float(alpha)}\n"

    def test_failing_check_exit_code(self, tmp_path, capsys):
        inst = tmp_path / "i.json"
        main(["gen", "--seed", "2", "-o", str(inst)])
        # A deliberately wrong solution: infeasible rows fail the primal check.
        doc = json.loads(inst.read_text())
        w = 10.0 * np.ones((doc["n"], doc["k"]))
        write_solution(w + 0j, tmp_path / "w.json")
        code = main([
            "check", str(inst), "--w-source", "file", "--monitors", "kkt",
            "--w-file", str(tmp_path / "w.json"),
        ])
        capsys.readouterr()
        assert code == EXIT_CHECK_FAILED

    def test_lemma4_draws_on_the_balls_scale(self, tmp_path, capsys, monkeypatch):
        # With range 0.01, entries on the scale of H all lie far inside the
        # ball of radius sqrt(2), where no projection is ever tested.
        import cmop.diagnostics
        from cmop.projection import RowBall

        inst = tmp_path / "small-h.json"
        assert main(["gen", "--seed", "0", "--range", "0.01", "-o", str(inst)]) == EXIT_OK
        argv = ["check", str(inst), "--w-source", "pgd", "--monitors", "lemma4"]
        assert main(argv) == EXIT_OK
        monkeypatch.setattr(  # a ball 0.1% too small
            cmop.diagnostics, "project_rows",
            lambda w, ball: project_rows(w, RowBall(0.999 * ball.radius)),
        )
        assert main(argv) == EXIT_CHECK_FAILED
        summary = next(line for line in capsys.readouterr().out.splitlines()
                       if line.startswith("monitor lemma4-vi FAILED"))
        assert int(summary.split()[3].removeprefix("violations=")) > 400  # of 500 draws

    def test_certify_report_fields_parse_as_floats(self, tmp_path, capsys, monkeypatch):
        import cmop.diagnostics

        inst = tmp_path / "c0.json"
        main(["gen", "--seed", "0", "--m", "16", "--n", "8", "--k", "8", "--eta", "0.01",
              "-o", str(inst)])
        argv = ["check", str(inst), "--w-source", "pgd",
                "--monitors", "thm3,kkt,lemma2,lemma4,lipschitz", "--seed", "0"]
        assert main(argv) == EXIT_OK
        passing = capsys.readouterr().out
        # Planted faults give the lemma4 and lipschitz monitors violation lines.
        monkeypatch.setattr(
            cmop.diagnostics, "project_rows", lambda w, ball: 0.5 * project_rows(w, ball)
        )
        lipschitz = cmop.diagnostics.monitor_lipschitz
        monkeypatch.setattr(
            cmop.diagnostics, "monitor_lipschitz", lambda g, bound: lipschitz(g, 0.5 * bound)
        )
        assert main(argv) == EXIT_CHECK_FAILED
        lines = (passing + capsys.readouterr().out).splitlines()
        summaries = [line.split() for line in lines if line.startswith("monitor ")]
        violations = [line.split() for line in lines if line.startswith("violation ")]
        assert len(summaries) == 10
        assert {fields[1] for fields in violations} == {"lemma4-vi", "lemma3-lipschitz"}
        for _, _, _, count, worst in summaries:
            float(count.removeprefix("violations="))
            float(worst.removeprefix("worst_slack="))
        for fields in violations:
            assert len(fields) == 6
            for field in fields[2:]:
                float(field)

    def test_sweep_outputs(self, tmp_path, capsys):
        inst = tmp_path / "i.json"
        main(["gen", "--seed", "3", "-o", str(inst)])
        code = main([
            "sweep", str(inst), "--method", "gd", "--alphas", "0.0002,0.0006",
            "--tau", "1e-10", "--out-dir", str(tmp_path / "sw"),
        ])
        capsys.readouterr()
        assert code == EXIT_OK
        assert (tmp_path / "sw" / "summary.csv").exists()

    # A numpy warning would print a second stderr line outside pytest.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("method", ["gd", "pgd", "real-augmented", "closed", "oracle"])
    def test_zero_h_is_a_one_line_input_error(self, tmp_path, capsys, method):
        # L = 0: no step can be resolved and G is singular.
        doc = gen_instance(m=3, n=2, k=2, seed=0)
        doc["h_re"] = doc["h_im"] = [[0.0, 0.0]] * 3
        inst = tmp_path / "zero.json"
        write_instance(doc, inst)
        code = main(["solve", str(inst), "--method", method])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("option", [["--eta", "inf"], ["--range", "inf"], ["--range", "1e308"]])
    def test_gen_refuses_documents_no_command_reads(self, tmp_path, capsys, option):
        out = tmp_path / "g.cmop.json"
        assert main(["gen", *option, "-o", str(out)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv, env_seed", [
        (["gen", "--seed", "-1", "-o", "{out}"], None),
        (["gen", "-o", "{out}"], "-5"),
        (["check", "{inst}", "--w-source", "pgd", "--monitors", "lemma2", "--seed", "-3"], None),
    ], ids=["gen-seed", "gen-env-seed", "check-seed"])
    def test_negative_seed_is_a_one_line_input_error(self, tmp_path, capsys, monkeypatch,
                                                     instance_path, argv, env_seed):
        out = tmp_path / "g.cmop.json"
        if env_seed is not None:
            monkeypatch.setenv("CMOP_SEED", env_seed)
        code = main([arg.format(out=out, inst=instance_path) for arg in argv])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "non-negative" in err and not out.exists()

    def test_nan_descent_fails_the_thm2_monitor(self, tmp_path, capsys):
        # A step of 1e160 overflows the first iterate, so the trace's
        # decrease is NaN; that check once passed with worst_slack=inf.
        inst = tmp_path / "g0.json"
        main(["gen", "--seed", "0", "-o", str(inst)])
        capsys.readouterr()
        code = main(["check", str(inst), "--w-source", "gd", "--alpha", "1e160",
                     "--monitors", "thm2"])
        out = capsys.readouterr().out
        assert code == EXIT_CHECK_FAILED
        assert "monitor thm2-descent FAILED violations=1 worst_slack=nan" in out

    def test_rank_deficient_closed_form_is_a_one_line_error(self, tmp_path, capsys):
        inst = tmp_path / "r0.json"
        main(["gen", "--seed", "0", "--m", "4", "--n", "6", "--eta", "0.01", "-o", str(inst)])
        code = main(["solve", str(inst), "--method", "closed"])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "singular" in err

    def test_row_norm_cap_is_the_squared_budget(self, tmp_path, capsys):
        # A row-norm cap of eta is posed by the instance whose budget is
        # eta^2; every solver and certificate reads that one budget.
        inst = tmp_path / "c0.cmop.json"
        gen = ["gen", "--seed", "0", "--m", "16", "--n", "8", "--k", "8", "--eta", "0.01"]
        assert main([*gen, "-o", str(inst)]) == EXIT_OK
        doc = json.loads(inst.read_text())
        doc["eta"] = doc["eta"] * doc["eta"]
        write_instance(doc, inst)
        capsys.readouterr()
        run = ["--alpha", "f0.9", "--tau", "1e-14"]
        objectives = {}
        for method in ("pgd", "real-augmented", "oracle"):
            assert main(["solve", str(inst), "--method", method, *run]) == EXIT_OK
            out = capsys.readouterr().out
            objectives[method] = float(out.split("objective=")[1].split()[0])
        assert objectives["pgd"] == pytest.approx(objectives["oracle"], rel=1e-8)
        assert objectives["real-augmented"] == pytest.approx(objectives["oracle"], rel=1e-8)
        assert main([
            "check", str(inst), "--w-source", "pgd", "--monitors", "kkt,thm3", *run,
        ]) == EXIT_OK
        with pytest.raises(SystemExit) as exited:
            main(["solve", str(inst), "--method", "pgd", "--radius-is-eta"])
        assert exited.value.code == 2
        capsys.readouterr()

    def test_successive_mains_behave_like_fresh_ones(self, monkeypatch):
        # The parser is built once per process; no option may carry over
        # from one main() call to the next.
        import cmop.cli

        calls = []

        def run_check(*args, **kwargs):
            calls.append(kwargs)
            return True, []

        monkeypatch.setattr(cmop.cli, "run_check", run_check)
        base = ["check", "inst.json", "--monitors", "lemma4"]
        assert main([*base, "--seed", "5", "--max-iter", "7"]) == EXIT_OK
        assert main(base) == EXIT_OK
        default = SolverConfig.max_iter
        assert (calls[0]["seed"], calls[0]["max_iter"]) == (5, 7)
        assert (calls[1]["seed"], calls[1]["max_iter"]) == (None, default)
        assert calls[1] == dict(calls[0], seed=None, max_iter=default)
        assert cmop.cli._build_parser() is cmop.cli._build_parser()

    def test_env_seed_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CMOP_SEED", "77")
        assert default_seed() == 77
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["gen", "-o", str(a)])
        monkeypatch.delenv("CMOP_SEED")
        main(["gen", "--seed", "77", "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_env_seed(self, monkeypatch):
        monkeypatch.setenv("CMOP_SEED", "not-a-number")
        with pytest.raises(InputError):
            default_seed()


class TestAlphaSpecParsing:
    def test_literal(self):
        assert parse_alpha_spec("0.0006") == 0.0006

    def test_fraction_passthrough(self):
        assert parse_alpha_spec("f0.9") == "f0.9"

    def test_garbage(self):
        with pytest.raises(InputError):
            parse_alpha_spec("fast")


# Names the orchestration calls through its own module, so that replacing
# them on cmop.harness (as a tracer does) reaches every call.
BOUND_IN_HARNESS = (
    "read_instance", "read_solution", "write_solution", "write_trace", "precompute",
    "gd_solve", "pgd_solve", "real_augmented_pgd", "active_set_oracle",
)


def test_orchestration_calls_through_the_harness_bindings(tmp_path, instance_path, monkeypatch):
    calls = collections.Counter()
    for name in BOUND_IN_HARNESS + ("cmatrix", "_complex"):
        def recorder(*args, real=getattr(harness, name), name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, name, recorder)
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 1)  # every sweep step in this process
    inst, w = str(instance_path), str(tmp_path / "w.json")
    options = ["--alpha", "f0.9", "--tau", "1e-14"]
    ops = [
        ["solve", inst, "--method", "gd", *options, "--trace", str(tmp_path / "t.csv"), "-o", w],
        ["check", inst, "--w-source", "pgd", "--monitors", "thm3,kkt", *options],
        ["check", inst, "--w-source", "file", "--monitors", "kkt", "--w-file", w],
        ["sweep", inst, "--method", "real-augmented", "--alphas", "f0.5,f0.9",
         "--out-dir", str(tmp_path / "sweep")],
    ]
    assert [main(op) for op in ops] == [EXIT_OK] * 4
    assert calls == {  # every op reads and precomputes its instance; two sweep traces
        "read_instance": 4, "precompute": 4, "read_solution": 1, "cmatrix": 1, "_complex": 1,
        "write_solution": 1, "write_trace": 3, "gd_solve": 1, "pgd_solve": 1,
        "active_set_oracle": 1, "real_augmented_pgd": 2,
    }
    calls.clear()
    harness.read_solution(w)
    assert calls == {"read_solution": 1, "cmatrix": 1, "_complex": 1}


@pytest.mark.parametrize("command", [
    ["solve", "--method", "pgd"],
    ["check", "--w-source", "file", "--monitors", "kkt"],
    ["sweep", "--method", "gd", "--alphas", "f0.5,f0.9"],
], ids=["solve", "check-file", "sweep"])
def test_instance_document_is_freed_before_precompute(tmp_path, instance_path, monkeypatch,
                                                      command):
    """Each run keeps only the problem: the parsed document, a second copy
    of H and A, is gone by the time precompute runs."""
    documents, alive = [], []

    def reading(path, real=harness.read_instance):
        instance, doc = real(path)
        documents.append(weakref.ref(doc["h_re"]))
        return instance, doc

    def precomputing(instance, real=harness.precompute):
        alive.append(documents[-1]() is not None)
        return real(instance)

    w = tmp_path / "w.json"
    assert main(["solve", str(instance_path), "--method", "pgd", "-o", str(w)]) == EXIT_OK
    monkeypatch.setattr(harness, "read_instance", reading)
    monkeypatch.setattr(harness, "precompute", precomputing)
    extra = {"check": ["--w-file", str(w)], "sweep": ["--out-dir", str(tmp_path / "sweep")]}
    argv = [command[0], str(instance_path), *command[1:], *extra.get(command[0], [])]
    assert main(argv) == EXIT_OK
    assert alive == [False]
