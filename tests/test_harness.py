"""Instance generation, file round trips, experiment orchestration, and
the command-line surface with its exit-status contract."""

import json

import numpy as np
import pytest

from cmop import (
    gen_instance,
    instance_from_document,
    precompute,
    closed_form_unconstrained,
    read_instance,
    read_solution,
    read_trace,
    run_check,
    run_experiment,
    run_sweep,
    write_instance,
    write_solution,
)
from cmop.cli import EXIT_CHECK_FAILED, EXIT_DIVERGED, EXIT_INPUT, EXIT_OK, main
from cmop.errors import InputError
from cmop.harness import default_seed, iterations_to_threshold, parse_alpha_spec
from cmop.solvers import SolverConfig, gd_solve
from helpers import make_instance, zero_w


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


MALFORMED_INSTANCES = {
    "non-ascii-byte": json.dumps(gen_instance(seed=0)).encode().replace(
        b'"rng"', b'"r\xc3\xa9ng"'
    ),
    "top-level-number": b"7",
    "top-level-list": b"[1, 2]",
    "over-long-integer": b'{"m": ' + b"1" * 5000 + b"}",
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

    def test_rank_deficient_closed_form_is_a_one_line_error(self, tmp_path, capsys):
        inst = tmp_path / "r0.json"
        main(["gen", "--seed", "0", "--m", "4", "--n", "6", "--eta", "0.01", "-o", str(inst)])
        code = main(["solve", str(inst), "--method", "closed"])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "singular" in err

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
