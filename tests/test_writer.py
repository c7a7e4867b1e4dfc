"""The JSON writer behind ``write_instance`` and ``write_solution``: the
bytes are ``json.dumps(doc, indent=1) + "\\n"`` on the C-encoded path, on
its two-CPU split and on every document the fast path hands back to
``json.dumps``; a failed split falls back to the same bytes and leaves no
process behind; a document that cannot be encoded leaves the file as it
was."""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cmop.harness as harness
from cmop import gen_instance, write_instance, write_solution

SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, float("inf"), float("-inf"),
                  float("nan")]
NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(SPECIAL_FLOATS),
    st.integers(min_value=-(10**30), max_value=10**30),
)
SCALARS = st.one_of(NUMBERS, st.booleans(), st.none(), st.text(max_size=8),
                    st.sampled_from(["],[", '"],["', "a,b", "\n"]))
MATRICES = st.lists(st.lists(NUMBERS, min_size=1, max_size=6), min_size=1, max_size=5)
DOCUMENTS = st.dictionaries(st.text(max_size=6), st.one_of(SCALARS, MATRICES), max_size=8)


@pytest.fixture
def split_everything(monkeypatch):
    """Every document with two or more matrices takes the two-CPU path."""
    monkeypatch.setattr(harness, "_SPLIT_NUMBERS", 1)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)


def _reference(doc) -> bytes:
    return (json.dumps(doc, indent=1) + "\n").encode("ascii")


def _written(doc, tmp_path) -> bytes:
    path = tmp_path / "doc.json"
    write_instance(doc, path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def tmp_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("writer")


def _solution_doc(w) -> dict:
    return {"n": w.shape[0], "k": w.shape[1], "w_re": w.real.tolist(), "w_im": w.imag.tolist()}


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(DOCUMENTS)
def test_documents_of_scalars_and_matrices(tmp_dir, doc):
    assert _written(doc, tmp_dir) == _reference(doc)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.dictionaries(st.sampled_from(["a", "b", "c", "d"]), MATRICES, min_size=2))
def test_split_documents(tmp_dir, doc):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_SPLIT_NUMBERS", 1)
        patch.setattr(harness, "_usable_cpus", lambda: 2)
        assert _written(doc, tmp_dir) == _reference(doc)


HANDED_BACK = {
    "not-a-dict": [[1.0, 2.0]],
    "empty-dict": {},
    "1-d-list": {"n": 2, "w": [1.0, 2.0]},
    "3-d-list": {"w": [[[1.0], [2.0]], [[3.0], [4.0]]]},
    "empty-list": {"w": []},
    "empty-row": {"w": [[1.0], []]},
    "ragged-with-a-list-item": {"w": [[1.0, [2.0]], [3.0]]},
    "tuple-rows": {"w": [(1.0, 2.0), (3.0, 4.0)]},
    "tuple-matrix": {"w": ([1.0, 2.0], [3.0, 4.0])},
    "nested-dict": {"a": {"w": [[1.0]], "b": {"c": None}}},
    "non-str-key": {1: [[1.0, 2.0]], "b": 2.0},
    "string-item": {"w": [["],[", 1.0], ["a,b", 2.0]]},
    "bool-and-none-items": {"w": [[True, None], [False, 1.0]]},
    "float-subclass": {"w": [[np.float64(0.1), 2.0]]},
}


@pytest.mark.parametrize("doc", HANDED_BACK.values(), ids=HANDED_BACK.keys())
def test_documents_the_fast_path_hands_back(doc, tmp_path):
    assert _written(doc, tmp_path) == _reference(doc)


def test_ragged_rows_of_numbers(tmp_path):
    doc = {"w": [[1.0], [2.0, 3.0, -0.0], [4]], "s": "],["}
    assert _written(doc, tmp_path) == _reference(doc)


@pytest.mark.parametrize("doc", [
    {"n": np.int64(3)},
    {"w": [[1.0, np.int64(2)]]},
    {"w": [[1.0]], "v": [[object()]]},
    {"w": [[1.0]], "v": [[2.0, 10**5000]]},
    {"w": [[1.0]], "n": 10**5000},
], ids=["scalar", "matrix-item", "second-matrix", "long-int-item", "long-int-scalar"])
def test_unserializable_values_raise_what_json_raises(doc, tmp_path, split_everything):
    """Also after a matrix that encodes: the file is neither opened nor
    truncated, since every matrix of exact floats encodes."""
    with pytest.raises((TypeError, ValueError)) as expected:
        json.dumps(doc, indent=1)
    path = tmp_path / "doc.json"
    path.write_bytes(b"kept")
    with pytest.raises(expected.type) as raised:
        write_instance(doc, path)
    assert str(raised.value) == str(expected.value)
    assert path.read_bytes() == b"kept"


def test_instance_and_solution_files(tmp_path):
    doc = gen_instance(m=6, n=3, k=4, seed=11)
    assert _written(doc, tmp_path) == _reference(doc)
    rng = np.random.default_rng(2)
    w = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    w[0, 0] = complex(-0.0, 5e-324)
    write_solution(w, tmp_path / "w.json")
    assert (tmp_path / "w.json").read_bytes() == _reference(_solution_doc(w))


def test_two_cpu_path_writes_the_same_bytes(tmp_path, split_everything, forks):
    doc = gen_instance(m=6, n=3, k=4, seed=11)
    assert _written(doc, tmp_path) == _reference(doc)
    w = np.arange(12.0).reshape(3, 4) - 1j * np.arange(12.0).reshape(3, 4)
    write_solution(w, tmp_path / "w.json")
    assert (tmp_path / "w.json").read_bytes() == _reference(_solution_doc(w))
    assert len(forks) == 2


def test_below_the_constant_or_unsafe_to_fork_stays_serial(tmp_path, monkeypatch, forks):
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(harness, "_SPLIT_NUMBERS", 2 * 3 * 4 + 1)
    w = np.ones((3, 4), dtype=complex)
    write_solution(w, tmp_path / "w.json")  # 24 numbers
    monkeypatch.setattr(harness, "_SPLIT_NUMBERS", 1)
    write_instance({"w": [[1.0, 2.0]]}, tmp_path / "one.json")  # one matrix: nothing to split
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    write_solution(w, tmp_path / "w1.json")
    assert forks == []
    assert (tmp_path / "w1.json").read_bytes() == (tmp_path / "w.json").read_bytes()


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.parametrize("how", ["raise", "exit", "invalid"])
def test_failed_child_falls_back_to_the_serial_bytes(tmp_path, monkeypatch, split_everything,
                                                     forks, how):
    parent = os.getpid()
    matrix_text = harness._matrix_text

    def failing(matrix):
        if os.getpid() != parent:
            if how == "raise":
                raise ValueError("encoder failed")
            if how == "exit":
                os._exit(1)
            return 7
        return matrix_text(matrix)

    monkeypatch.setattr(harness, "_matrix_text", failing)
    doc = gen_instance(m=6, n=3, k=4, seed=11)
    fds = _open_fds()
    affinity = os.sched_getaffinity(0)
    assert _written(doc, tmp_path) == _reference(doc)
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):  # already reaped
        os.waitpid(forks[0], os.WNOHANG)
    assert _open_fds() == fds
    assert os.sched_getaffinity(0) == affinity
