"""Sweeps split over forked worker processes: the outputs do not depend on
the number of workers, a failed worker is an error that leaves nothing
behind and raises what the same steps raise in one process, groups are
pinned in ascending CPU order and the caller's CPU affinity is restored,
and instances whose solves would start BLAS threads never fork."""

import os
import threading

import pytest

import cmop.harness as harness
import cmop.workers as workers
from cmop import WorkerError, gen_instance, precompute, run_sweep, write_instance
from helpers import make_instance

FRACTIONS = ["f0.1", "f0.3", "f0.5", "f0.7", "f0.9"]
MIXED = ["f0.9", "fbad", "f0.1", "1e9", "f0.5", "f0.3", "-1", "f1.5"]


@pytest.fixture
def instance_path(tmp_path):
    path = tmp_path / "inst.cmop.json"
    write_instance(gen_instance(seed=0), path)
    return path


def _sweep(path, out, method, specs, capsys, **options):
    run_sweep(path, method, specs, tau=1e-14, out_dir=out, **options)
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    return files, capsys.readouterr().out


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.parametrize("method", ["gd", "pgd", "real-augmented"])
def test_outputs_do_not_depend_on_worker_count(tmp_path, instance_path, capsys, monkeypatch,
                                               forks, method):
    affinity = os.sched_getaffinity(0)
    parallel = _sweep(instance_path, tmp_path / "parallel", method, FRACTIONS, capsys)
    assert os.sched_getaffinity(0) == affinity
    for cpus, children in ((1, 0), (4, 3)):
        monkeypatch.setattr(workers, "_usable_cpus", lambda cpus=cpus: cpus)
        del forks[:]
        out = _sweep(instance_path, tmp_path / f"cpus{cpus}", method, FRACTIONS, capsys)
        assert len(forks) == children
        assert out == parallel
        assert os.sched_getaffinity(0) == affinity
    assert sorted(parallel[0]) == ["summary.csv"] + [f"trace_{i}.csv" for i in range(5)]


def test_mixed_specs_keep_index_order(tmp_path, instance_path, capsys, monkeypatch, forks):
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 4)
    files, stdout = _sweep(instance_path, tmp_path / "par", "gd", MIXED, capsys)
    assert len(forks) == 3  # four workers over the five steps that resolve
    rows = [line.split(",") for line in files["summary.csv"].decode().splitlines()[1:]]
    assert [row[0] for row in rows] == [str(i) for i in range(len(MIXED))]
    assert [row[1] for row in rows] == MIXED
    errors = [i for i, row in enumerate(rows) if row[-1]]
    assert errors == [1, 6, 7]
    assert rows[3][6] == "diverged"
    assert "trace_1.csv" not in files and "trace_3.csv" in files

    monkeypatch.setattr(workers, "_usable_cpus", lambda: 1)
    assert _sweep(instance_path, tmp_path / "one", "gd", MIXED, capsys) == (files, stdout)


def test_partition_longest_first():
    inst = make_instance(0)
    pre = precompute(inst)
    costs = [workers._step_cost(pre, harness._configure(pre, "gd", spec)[1])
             for spec in FRACTIONS]
    assert workers._lpt_groups(costs, 2) == [[0], [1, 2, 3, 4]]
    for count in range(1, 7):
        groups = workers._lpt_groups(costs, count)
        assert len(groups) == count
        assert sorted(i for group in groups for i in group) == list(range(5))


def test_step_cost_follows_the_gd_rate(tmp_path, monkeypatch, forks):
    # kappa = L / lambda_min = 7.0: gd takes 531, 179, 106 and 748
    # iterations. Priced at 1/alpha, f0.99 would cost a tenth of f0.1 and
    # share a worker with f0.3 and f0.5 (1033 iterations against 531).
    path = tmp_path / "inst.cmop.json"
    write_instance(gen_instance(seed=5003), path)
    pre = precompute(make_instance(5003))
    assert pre.lipschitz / pre.lambda_min == pytest.approx(7.0, abs=0.05)
    specs = ["f0.1", "f0.3", "f0.5", "f0.99"]
    split = []
    run_groups = workers._run_groups

    def recording(groups, run_group, valid):
        split.append(groups)
        return run_groups(groups, run_group, valid)

    monkeypatch.setattr(workers, "_run_groups", recording)
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
    rows = run_sweep(path, "gd", specs, out_dir=tmp_path / "s")
    iterations = [int(row["iterations"]) for row in rows]
    assert max(iterations) == iterations[3]
    assert split == [[[3], [0, 1, 2]]]
    assert len(forks) == 1
    for spec in specs:  # projected steps: x = alpha L < 1, cost 1/x
        alpha = harness._configure(pre, "pgd", spec)[1]
        assert workers._step_cost(pre, alpha) == 1.0 / (alpha * pre.lipschitz)


def _deny(records, path):
    raise PermissionError(13, "Permission denied")


def _break_workers(monkeypatch, how):
    """Make every worker's group fail in the way ``how`` names; the group
    run in this process is left alone."""
    run_groups = workers._run_groups
    parent = os.getpid()

    def broken(groups, run_group, valid):
        def group_rows(group):
            if how == "write_trace" and os.getpid() != parent:
                harness.write_trace = _deny  # in this child's memory only
            rows = run_group(group)
            if os.getpid() == parent:
                return rows
            if how == "exit":
                os._exit(3)
            if how == "short":
                return rows[:-1]
            if how == "misplaced":
                return [dict(row, index=row["index"] + 1) for row in rows]
            return [object()]  # not JSON-serializable: the child raises

        return run_groups(groups, group_rows, valid)

    monkeypatch.setattr(workers, "_run_groups", broken)


@pytest.mark.parametrize("how, error, message", [
    ("exit", WorkerError, "exited with status 3"),
    ("short", WorkerError, "sent an invalid result"),
    ("misplaced", WorkerError, "sent an invalid result"),
    ("unserializable", TypeError, "not JSON serializable"),
    ("write_trace", PermissionError, "Permission denied"),
])
def test_failed_worker_raises_and_cleans_up(tmp_path, instance_path, monkeypatch, forks,
                                            how, error, message):
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 4)
    _break_workers(monkeypatch, how)
    fds = _open_fds()
    affinity = os.sched_getaffinity(0)
    out = tmp_path / "s"
    with pytest.raises(error, match=message) as raised:
        run_sweep(instance_path, "pgd", FRACTIONS, tau=1e-14, out_dir=out)
    if error is not WorkerError:  # the child's own exception, naming the child
        assert isinstance(raised.value.__cause__, WorkerError)
        assert f"process {forks[0]} raised {error.__name__}" in str(raised.value.__cause__)
    assert len(forks) == 3
    assert not (out / "summary.csv").exists()
    for pid in forks:
        with pytest.raises(ChildProcessError):  # already reaped
            os.waitpid(pid, os.WNOHANG)
    assert _open_fds() == fds
    assert os.sched_getaffinity(0) == affinity


def test_step_exception_in_one_process_matches_a_workers(tmp_path, instance_path, monkeypatch,
                                                         forks):
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(harness, "write_trace", _deny)
    out = tmp_path / "s"
    with pytest.raises(PermissionError, match="Permission denied"):
        run_sweep(instance_path, "pgd", FRACTIONS, tau=1e-14, out_dir=out)
    assert forks == []
    assert not (out / "summary.csv").exists()


def test_error_in_this_process_stops_the_workers(tmp_path, instance_path, monkeypatch, forks):
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 4)
    parent = os.getpid()
    sweep_step = harness._sweep_step

    def failing(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return sweep_step(*args)

    monkeypatch.setattr(harness, "_sweep_step", failing)
    fds = _open_fds()
    affinity = os.sched_getaffinity(0)
    with pytest.raises(KeyboardInterrupt):
        run_sweep(instance_path, "pgd", FRACTIONS, tau=1e-14, out_dir=tmp_path / "s")
    assert len(forks) == 3
    for pid in forks:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    assert _open_fds() == fds
    assert os.sched_getaffinity(0) == affinity


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two usable CPUs")
def test_this_process_runs_its_group_on_the_lowest_cpu(tmp_path, instance_path, monkeypatch,
                                                       forks):
    cpus = os.sched_getaffinity(0)
    parent = os.getpid()
    pinned = []
    sweep_step, run_groups = harness._sweep_step, workers._run_groups

    def recording(*args):
        if os.getpid() == parent:
            pinned.append(os.sched_getaffinity(0))
        return sweep_step(*args)

    def from_the_highest_cpu(groups, run_group, valid):
        os.sched_setaffinity(0, {max(cpus)})  # moves this process there
        os.sched_setaffinity(0, cpus)
        return run_groups(groups, run_group, valid)

    monkeypatch.setattr(harness, "_sweep_step", recording)
    monkeypatch.setattr(workers, "_run_groups", from_the_highest_cpu)
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
    run_sweep(instance_path, "gd", FRACTIONS, out_dir=tmp_path / "s")
    assert len(forks) == 1
    assert pinned and all(affinity == {min(cpus)} for affinity in pinned)
    assert os.sched_getaffinity(0) == cpus


@pytest.mark.parametrize("m, n, k, method", [
    (32, 32, 64, "pgd"),  # (N x N)(N x K) of 4 N^2 K = 2^18 real multiply-adds
    (160, 20, 32, "real-augmented"),  # its (2N x 2M)(2M x 2N) Gram product
    (4, 1, 2501, "gd"),  # inner products over M K > 10^4 entries
    (4, 2, 1251, "real-augmented"),  # over 2 M K > 10^4
])
def test_above_the_gate_never_forks(tmp_path, monkeypatch, m, n, k, method):
    path = tmp_path / "big.cmop.json"
    write_instance(gen_instance(m=m, n=n, k=k, seed=0), path)
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 4)

    def no_fork():
        raise AssertionError("os.fork called above the gate")

    monkeypatch.setattr(os, "fork", no_fork)
    rows = run_sweep(path, method, ["f0.5", "f0.9"], max_iter=20, out_dir=tmp_path / "s")
    assert [row["error"] for row in rows] == ["", ""]


@pytest.mark.parametrize("m, n, k, method", [
    (80, 40, 40, "pgd"),
    (80, 20, 32, "real-augmented"),
    (4, 1, 2500, "gd"),
    (4, 2, 1250, "real-augmented"),
])
def test_just_below_the_gate_uses_workers(monkeypatch, m, n, k, method):
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 4)
    assert workers._sweep_workers(make_instance(0, m=m, n=n, k=k), method, 5) == 4


def test_in_process_when_forking_is_unsafe_or_pointless(tmp_path, instance_path, monkeypatch,
                                                        forks):
    inst = make_instance(0)
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 4)
    assert workers._sweep_workers(inst, "gd", 5) == 4
    assert workers._sweep_workers(inst, "gd", 1) == 1
    assert workers._sweep_workers(inst, "gd", 0) == 1

    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert workers._sweep_workers(inst, "gd", 5) == 1
        run_sweep(instance_path, "gd", FRACTIONS, out_dir=tmp_path / "thread")
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()

    monkeypatch.setattr(workers, "_usable_cpus", lambda: 1)
    assert workers._sweep_workers(inst, "gd", 5) == 1
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 4)
    with monkeypatch.context() as without:  # workers run only pinned to CPUs
        without.delattr(os, "sched_setaffinity")
        assert workers._sweep_workers(inst, "gd", 5) == 1
        run_sweep(instance_path, "gd", FRACTIONS, out_dir=tmp_path / "noaffinity")
    monkeypatch.delattr(os, "fork")
    assert workers._sweep_workers(inst, "gd", 5) == 1
    run_sweep(instance_path, "gd", FRACTIONS, out_dir=tmp_path / "nofork")
    assert forks == []
