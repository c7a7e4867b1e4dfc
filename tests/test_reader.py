"""The JSON reader behind ``read_instance`` and ``read_solution``: a file
below ``_WALK_BYTES`` goes whole to ``json.loads``, a larger one is read
into an anonymous buffer and walked one member at a time, converting the
named array fields as it goes and releasing their pages. Every path returns
what ``json.loads`` returns (those fields converted as ``_float_array``
converts them) and raises the same errors: the serial walk, the two-CPU
split, a document either cannot take, a failed split and a file whose size
changes while it is read; none leaves a process, a file descriptor or an
open buffer behind. Also bounds the memory a read takes and smoke-tests
``tools/io_bench.py``."""

import contextlib
import itertools
import json
import mmap
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cmop.harness as harness
from cmop import gen_instance, read_instance, write_instance
from cmop.errors import InputError
from cmop.harness import _read_json_object

ROOT = Path(__file__).resolve().parent.parent
NAMED = {"instance": ("h_re", "h_im", "a_re", "a_im"), "solution": ("w_re", "w_im")}
# Every kind's named fields, so each kind also sees the other's as extras.
KEYS = ("h_re", "h_im", "a_re", "a_im", "w_re", "w_im", "m", "n", "eta", "seed", "x", "h_r")
WHITESPACE = (" ", "\t", "\r", "\n", "", "\n  ", " \r\n")


# -- documents as token trees ----------------------------------------------
#
# A node is ("tok", text) for a number or literal, ("str", text, escaped),
# ("arr", [nodes]) or ("obj", [(key, escaped, node)]). Rendering puts one
# whitespace string from a drawn palette in every gap between tokens and
# records where the gaps are.

def _string(text: str, escaped: bool) -> str:
    if escaped:
        return '"' + "".join(f"\\u{ord(c):04x}" for c in text) + '"'
    return json.dumps(text)


def render(node, palette):
    out, gaps = [], []
    spaces = itertools.cycle(palette)

    def gap():
        gaps.append(sum(map(len, out)))
        out.append(next(spaces))

    def emit(node):
        tag = node[0]
        if tag == "tok":
            out.append(node[1])
        elif tag == "str":
            out.append(_string(node[1], node[2]))
        else:
            members = node[1]
            out.append("[" if tag == "arr" else "{")
            gap()
            for i, member in enumerate(members):
                if i:
                    out.append(",")
                    gap()
                if tag == "obj":
                    key, escaped, member = member
                    out.append(_string(key, escaped))
                    gap()
                    out.append(":")
                    gap()
                emit(member)
                gap()
            out.append("]" if tag == "arr" else "}")

    gap()
    emit(node)
    gap()
    return "".join(out), gaps


NUMBER_TOKENS = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.tuples(st.integers(-999, 999), st.integers(0, 99), st.integers(-320, 320),
              st.sampled_from("eE"), st.sampled_from(("", "+", "-")))
    .map(lambda t: f"{t[0]}.{t[1]}{t[3]}{t[4]}{abs(t[2])}"),
    st.sampled_from(("-0.0", "-0", "0e0", "1e400", "-1e400", "NaN", "Infinity",
                     "-Infinity", "5e-324", "1" + "0" * 400)),
).map(lambda text: ("tok", text))

TEXT = st.text(
    st.one_of(st.sampled_from('"},\\[]:u'), st.characters(max_codepoint=0xFFFF)), max_size=6
)
STRINGS = st.tuples(st.just("str"), TEXT, st.booleans())
SCALARS = st.one_of(
    NUMBER_TOKENS, STRINGS, st.sampled_from(("true", "false", "null")).map(lambda t: ("tok", t))
)


@st.composite
def grids(draw):
    """Nested rows of numbers: rectangular, ragged, flat or three deep."""
    rows = draw(st.integers(0, 4))
    cols = draw(st.integers(0, 4))
    ragged = draw(st.booleans())
    grid = []
    for _ in range(rows):
        width = draw(st.integers(0, 4)) if ragged else cols
        grid.append(("arr", [draw(NUMBER_TOKENS) for _ in range(width)]))
    shape = draw(st.sampled_from(("2d", "2d", "2d", "flat", "deep")))
    if shape == "flat":
        return ("arr", [draw(NUMBER_TOKENS) for _ in range(cols)])
    if shape == "deep":
        return ("arr", [("arr", [row]) for row in grid])
    return ("arr", grid)


def _extend(children):
    keys = st.tuples(TEXT, st.booleans())
    return st.one_of(
        st.lists(children, max_size=3).map(lambda xs: ("arr", xs)),
        st.lists(st.tuples(keys, children), max_size=3).map(
            lambda kvs: ("obj", [(k, esc, v) for (k, esc), v in kvs])
        ),
    )


JSON_VALUES = st.recursive(st.one_of(SCALARS, grids()), _extend, max_leaves=8)
VALUES = st.one_of(grids(), grids(), JSON_VALUES)


@st.composite
def documents(draw):
    """(kind, text, gap offsets) of a well-formed top-level object."""
    kind = draw(st.sampled_from(sorted(NAMED)))
    members = draw(st.lists(st.tuples(st.sampled_from(KEYS), st.booleans(), VALUES),
                            max_size=8))
    palette = draw(st.lists(st.sampled_from(WHITESPACE), min_size=1, max_size=6))
    text, gaps = render(("obj", members), palette)
    return kind, text, gaps


# -- comparison --------------------------------------------------------------

def canonical(value):
    """A form of a parsed value that compares floats and arrays by their
    bits and objects by their key order."""
    if isinstance(value, np.ndarray):
        assert value.dtype == np.float64
        return ("array", value.shape, value.view(np.uint64).tobytes())
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    if isinstance(value, list):
        return ("list", [canonical(v) for v in value])
    if isinstance(value, dict):
        return ("dict", [(k, canonical(v)) for k, v in value.items()])
    return (type(value).__name__, value)


def as_float_array(value):
    """What ``_float_array`` converts a field to, or the value if it fails."""
    try:
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        return value


def loads(path: Path):
    """The reference: ``json.loads`` of the file's bytes decoded as ASCII,
    line endings kept, so error positions are file offsets."""
    return json.loads(path.read_bytes().decode("ascii"))


def expected_document(path: Path, kind: str) -> dict:
    return {k: as_float_array(v) if k in NAMED[kind] else v for k, v in loads(path).items()}


@contextlib.contextmanager
def walk_forced():
    """Every read within walks the file's buffer in this process alone."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_WALK_BYTES", 0)
        patch.setattr(harness, "_SPLIT_CHARS", float("inf"))
        yield


@contextlib.contextmanager
def split_forced():
    """Every read within takes the two-CPU path where its document allows."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_WALK_BYTES", 0)
        patch.setattr(harness, "_SPLIT_CHARS", 0)
        patch.setattr(harness, "_usable_cpus", lambda: 2)
        yield


PATHS = (contextlib.nullcontext, walk_forced, split_forced)


def write(tmp_dir: Path, text: str) -> Path:
    path = tmp_dir / "doc.json"
    path.write_text(text, encoding="ascii")
    return path


@pytest.fixture(scope="module")
def tmp_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("reader")


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(doc=documents())
def test_reader_equals_json_loads(tmp_dir, doc):
    kind, text, _ = doc
    path = write(tmp_dir, text)
    expected = canonical(expected_document(path, kind))
    for forced in PATHS:
        with forced():
            assert canonical(_read_json_object(path, kind)) == expected


def _assert_same_error(tmp_dir, text, kind):
    """``json.loads`` of the whole file, the serial walk and the forced
    split all raise what json.loads raises, as an InputError."""
    path = write(tmp_dir, text)
    with pytest.raises(ValueError) as reference:
        loads(path)
    for forced in PATHS:
        with forced(), pytest.raises(InputError) as info:
            _read_json_object(path, kind)
        assert str(info.value) == f"{kind} file {path} is not valid JSON: {reference.value}"


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(doc=documents(), data=st.data())
def test_truncated_document_fails_as_json_loads_does(tmp_dir, doc, data):
    kind, text, _ = doc
    cut = data.draw(st.integers(0, len(text.rstrip()) - 1))
    _assert_same_error(tmp_dir, text[:cut], kind)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(doc=documents(), sep=st.sampled_from(WHITESPACE),
       extra=st.sampled_from(("1", "{}", "x", ",", "}", '"a"', "[")))
def test_trailing_data_fails_as_json_loads_does(tmp_dir, doc, sep, extra):
    kind, text, _ = doc
    _assert_same_error(tmp_dir, text + sep + extra, kind)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(doc=documents(), char=st.sampled_from("\x0b\x0c"), data=st.data())
def test_non_json_whitespace_fails_as_json_loads_does(tmp_dir, doc, char, data):
    """Vertical tab and form feed are whitespace to ``str.isspace`` but not
    to JSON, in any gap between tokens."""
    kind, text, gaps = doc
    at = data.draw(st.sampled_from(gaps))
    _assert_same_error(tmp_dir, text[:at] + char + text[at:], kind)


def test_error_position_is_the_file_offset_on_crlf_lines(tmp_path):
    content = b'{\r\n "m": 1,\r\n "n": x\r\n}\r\n'
    path = tmp_path / "crlf.json"
    path.write_bytes(content)
    with pytest.raises(InputError, match=f"line 3 column 7 \\(char {content.index(b'x')}\\)"):
        _read_json_object(path, "instance")


def test_named_fields_come_back_as_arrays(tmp_path):
    path = tmp_path / "inst.json"
    doc = gen_instance(m=3, n=2, k=4, seed=5)
    write_instance(doc, path)
    _, loaded = read_instance(path)
    for field in NAMED["instance"]:
        assert isinstance(loaded[field], np.ndarray) and loaded[field].dtype == np.float64
        assert loaded[field].tobytes() == np.asarray(doc[field]).tobytes()
    assert {k: v for k, v in loaded.items() if k not in NAMED["instance"]} == {
        k: v for k, v in doc.items() if k not in NAMED["instance"]
    }


def _assert_read_peak_near_the_file_size(path: Path):
    size = path.stat().st_size
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        read_instance(path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * size, f"peak {peak / size:.2f}x the file size"


def test_read_peak_memory_stays_near_the_file_size(tmp_path, monkeypatch):
    """Parsing all of a document into lists before converting peaked at
    about 2.45x the file size, and holding the file's bytes and text while
    converting each field as it was parsed at 2.00x. The file's buffer is an
    anonymous map, which the trace does not see, and the text of one matrix
    at a time peaks at about 0.99x. Serial path."""
    path = tmp_path / "inst.json"
    write_instance(gen_instance(m=400, n=80, k=128, seed=11), path)
    monkeypatch.setattr(harness, "_SPLIT_CHARS", path.stat().st_size + 1)
    _assert_read_peak_near_the_file_size(path)


def test_split_read_peak_memory_stays_near_the_file_size(tmp_path, forks):
    """The same bound for this process on the two-CPU path (about 0.82x),
    where the child's matrices land in a shared map that the trace does not
    see either."""
    path = tmp_path / "inst.json"
    write_instance(gen_instance(m=400, n=80, k=128, seed=11), path)
    forks.clear()  # the writer's
    with split_forced():
        _assert_read_peak_near_the_file_size(path)
    assert len(forks) == 1


# -- the buffer --------------------------------------------------------------

def test_release_gives_back_whole_pages_only():
    page = mmap.PAGESIZE
    with mmap.mmap(-1, 4 * page, flags=mmap.MAP_PRIVATE) as buf:
        buf[:] = b"x" * (4 * page)
        harness._release(buf, page // 2, 3 * page + 1)
        assert buf[:page] == b"x" * page  # shared with bytes outside the range
        assert buf[page:3 * page] == bytes(2 * page)  # given back: reads as zeros
        assert buf[3 * page:] == b"x" * page


def _matrix_spans(path: Path, fields) -> list:
    """(start, end) of each field's matrix text in an instance file."""
    text = path.read_bytes()
    starts = [text.index(b'"%s": ' % field.encode()) + len(field) + 4 for field in fields]
    return [(start, text.index(b"\n ]", start) + 3) for start in starts]


@pytest.mark.parametrize("forced", [walk_forced, split_forced], ids=["walk", "split"])
def test_each_matrix_is_released_when_no_process_needs_it(tmp_path, monkeypatch, forks, forced):
    """The serial walk releases each matrix once it is parsed. On the split,
    this process releases the child's matrices before it parses its own."""
    path = tmp_path / "inst.json"
    write_instance(gen_instance(m=60, n=40, k=50, seed=3), path)
    spans = _matrix_spans(path, NAMED["instance"])
    parent, released, release = os.getpid(), [], harness._release

    def recording(buf, start, end):
        if os.getpid() == parent and (start, end) in spans:
            released.append(spans.index((start, end)))
        release(buf, start, end)

    monkeypatch.setattr(harness, "_release", recording)
    with forced():
        _, loaded = read_instance(path)
    assert canonical(loaded) == canonical(expected_document(path, "instance"))
    assert released == ([0, 1, 2, 3] if forced is walk_forced else [1, 3, 0, 2])


# Rewrites of an instance file between the reader's fstat and its read.
REWRITES = {
    "cut-in-a-matrix": lambda text: text[:len(text) // 2],
    "emptied": lambda text: "",
    "grown-by-whitespace": lambda text: text + "\n" * 5000,
    "grown-by-a-member": lambda text: text[:-3] + ',\n "x": 1\n}\n',
    "grown-by-garbage": lambda text: text + "x",
    "rewritten-shorter": lambda text: json.dumps({"m": 1, "h_re": [[1.0]], "h_im": [[2.0]]}),
    "same-size": lambda text: text.replace("5", "6"),
}


@pytest.mark.parametrize("forced", [walk_forced, split_forced], ids=["walk", "split"])
@pytest.mark.parametrize("rewrite", REWRITES.values(), ids=REWRITES)
def test_size_change_while_read_gives_what_json_loads_gives(tmp_path, monkeypatch, forced,
                                                            rewrite):
    """A read that comes up short, or a file that has grown, is decoded
    whole: the result is json.loads's of the file as it then is, or the same
    InputError, and the reader never maps the file, so it cannot crash."""
    path = tmp_path / "inst.json"
    write_instance(gen_instance(m=20, n=10, k=12, seed=4), path)
    new_text, real_fstat, calls = rewrite(path.read_text()), os.fstat, []

    def fstat(fd):
        result = real_fstat(fd)
        if not calls:
            calls.append(fd)
            path.write_text(new_text, encoding="ascii")
        return result

    fds = _open_fds()
    with forced():
        monkeypatch.setattr(os, "fstat", fstat)
        try:
            got = _read_json_object(path, "instance")
        except InputError as exc:
            got = exc
        monkeypatch.setattr(os, "fstat", real_fstat)
    assert calls and _open_fds() == fds
    try:
        expected = canonical(expected_document(path, "instance"))
    except ValueError as exc:
        assert str(got) == f"instance file {path} is not valid JSON: {exc}"
    else:
        assert canonical(got) == expected


def test_buffer_is_anonymous_and_closed_on_every_path(tmp_path, monkeypatch, forks):
    made, real_mmap, parent = [], mmap.mmap, os.getpid()

    def recording(fileno, length, **kwargs):
        buf = real_mmap(fileno, length, **kwargs)
        made.append((fileno, kwargs.get("flags"), buf))
        return buf

    monkeypatch.setattr(mmap, "mmap", recording)
    good = tmp_path / "inst.json"
    write_instance(gen_instance(m=20, n=10, k=12, seed=4), good)
    bad = write(tmp_path, good.read_text().replace("]", "}", 30))
    parsed_array = harness._parsed_array

    @contextlib.contextmanager
    def child_fails():
        with split_forced(), pytest.MonkeyPatch.context() as patch:
            patch.setattr(harness, "_parsed_array", lambda *args: (
                parsed_array(*args) if os.getpid() == parent else os._exit(1)))
            yield

    fds = _open_fds()
    for path, forced in itertools.product((good, bad), PATHS + (child_fails,)):
        made.clear()
        with forced():
            try:
                _read_json_object(path, "instance")
            except InputError:
                assert path == bad
        buffers = [buf for fileno, flags, buf in made if flags is not None]  # the private ones
        assert len(buffers) == (forced is not contextlib.nullcontext)
        assert all(fileno == -1 for fileno, _, _ in made)
        assert all(buf.closed for buf in buffers)
        assert _open_fds() == fds
    _assert_reaped(forks)


# -- the two-CPU split -------------------------------------------------------

def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_split_adopts_the_childs_arrays_without_a_copy(tmp_path, forks):
    path = tmp_path / "inst.json"
    doc = gen_instance(m=6, n=3, k=4, seed=5)
    write_instance(doc, path)
    with split_forced():
        _, loaded = read_instance(path)
    assert len(forks) == 1
    _assert_reaped(forks)
    assert canonical(loaded) == canonical(expected_document(path, "instance"))
    for field in NAMED["instance"]:
        assert loaded[field].dtype == np.float64 and loaded[field].flags.writeable
    # Every other matrix was parsed by the child into the shared buffer.
    assert [loaded[f].flags.owndata for f in NAMED["instance"]] == [True, False, True, False]
    loaded["h_im"][0, 0] = 1.5  # the view is writable in place
    assert loaded["h_im"][0, 0] == 1.5


def test_small_file_or_unsafe_to_fork_stays_serial(tmp_path, monkeypatch, forks):
    path = tmp_path / "inst.json"
    write_instance(gen_instance(m=6, n=3, k=4, seed=5), path)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(harness, "_SPLIT_CHARS", path.stat().st_size + 1)
    read_instance(path)
    monkeypatch.setattr(harness, "_SPLIT_CHARS", 0)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    read_instance(path)
    assert forks == []


# Documents with two or more matrix-named members that the split must hand
# back to the serial walk, or whose split result must equal it.
HANDED_BACK = {
    "3-d": '{"h_re": [[[1.0]], [[2.0]]], "h_im": [[1.0]]}',
    "3-d-last": '{"h_re": [[1.0]], "h_im": [[[1.0], [2.0]]]}',
    "ragged": '{"h_re": [[1.0], [2.0, 3.0]], "h_im": [[1.0]]}',
    "ragged-in-the-child": '{"h_re": [[1.0]], "h_im": [[1.0, 2.0], [3.0]]}',
    "empty-rows": '{"h_re": [[], []], "h_im": [[]], "a_re": [[1.0]]}',
    "empty-and-full-rows": '{"h_re": [[1.0], []], "h_im": [[1.0]]}',
    "empty-matrix": '{"h_re": [], "h_im": [[1.0]]}',
    "flat": '{"h_re": [1.0, 2.0], "h_im": [[1.0]], "a_re": [[2.0]]}',
    "string-with-brackets": '{"h_re": [["]]", 1.0]], "h_im": [["] ]"]], "a_re": [[1.0]]}',
    "numeric-strings": '{"h_re": [["1.5", "2"]], "h_im": [["-0"]]}',
    "object-row": '{"h_re": [{"a": [[1]]}], "h_im": [[1.0]]}',
    "object-in-a-row": '{"h_re": [[1.0, {"a": 1}]], "h_im": [[1.0]]}',
    "duplicate-key": '{"h_re": [[1.0]], "h_im": [[2.0]], "h_re": [[3.0]]}',
    "duplicate-scalar": '{"h_re": [[1.0]], "h_im": [[2.0]], "h_im": 5}',
    "scalar-field": '{"h_re": 5, "h_im": [[2.0]], "a_re": "1e3", "a_im": [[1.0]]}',
    "members-after": '{"h_re": [[1.0]], "h_im": [[2.0]], "m": 1, "x": [[3]], "a_re": [[4.0]]}',
    "other-kind": '{"w_re": [[1.0]], "w_im": [[2.0]], "h_re": [[3.0]], "h_im": [[4.0]]}',
}


@pytest.mark.parametrize("text", HANDED_BACK.values(), ids=HANDED_BACK)
def test_split_hands_back_or_matches_the_serial_walk(tmp_path, forks, text):
    path = write(tmp_path, text)
    with split_forced():
        loaded = _read_json_object(path, "instance")
    assert canonical(loaded) == canonical(expected_document(path, "instance"))
    assert len(forks) <= 1
    _assert_reaped(forks)


def test_error_inside_a_matrix_fails_as_json_loads_does(tmp_path):
    """The pre-scan does not parse the matrices: an error inside one is
    found by whichever process parses it, then by the serial walk."""
    for bad in ('[[1.0, 2x]]', '[[1.0, 1e]]', '[[1.0,, 2.0]]', '[[1.0] [2.0]]'):
        _assert_same_error(tmp_path, '{"h_re": [[1.0]], "h_im": %s, "a_re": [[1]]}' % bad,
                           "instance")
        _assert_same_error(tmp_path, '{"h_re": %s, "h_im": [[1.0]], "a_re": [[1]]}' % bad,
                           "instance")


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.parametrize(
    "how", ["raise", "exit", "flat-shape", "oversized", "wrong-end", "wrong-end-here"]
)
def test_failed_child_falls_back_to_the_serial_result(tmp_path, monkeypatch, forks, how):
    parent = os.getpid()
    parsed_array = harness._parsed_array
    calls = []

    def failing(buf, start, stop):
        array, end = parsed_array(buf, start, stop)
        calls.append(start)
        if how == "wrong-end-here":  # in this process: its own ends are checked too
            return array, end - (os.getpid() == parent)
        if os.getpid() != parent:
            if how == "raise":
                raise ValueError("parse failed")
            if how == "exit":
                os._exit(1)
            if how == "flat-shape":
                return array.ravel(), end
            if how == "oversized":  # one number more than h_im's room, within a_im's
                return (np.zeros((1, (end - start) // 2 + 1)) if len(calls) == 1 else array), end
            return array, end - 1
        return array, end

    monkeypatch.setattr(harness, "_parsed_array", failing)
    path = tmp_path / "inst.json"
    write_instance(gen_instance(m=6, n=3, k=4, seed=5), path)
    fds = _open_fds()
    affinity = os.sched_getaffinity(0)
    with split_forced():
        got = _read_json_object(path, "instance")
    assert canonical(got) == canonical(expected_document(path, "instance"))
    assert got["h_im"].flags.owndata  # decoded whole, not adopted from the child
    assert len(forks) == 1
    _assert_reaped(forks)
    assert _open_fds() == fds
    assert os.sched_getaffinity(0) == affinity


def test_io_bench_small_run(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "io_bench.py"), "--small", "--label", "smoke"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    run = json.loads((tmp_path / "BENCH_io.json").read_text())["smoke"]
    assert {"nproc", "blas", "blas_threads", "git_commit"} <= set(run["machine"])
    for size in run["sizes"].values():
        assert set(size["seconds"]) == {
            "read_instance", "read_solution", "write_instance", "write_solution"
        }
        assert all(s > 0 for s in size["seconds"].values())
        assert set(size["rss_rise_mb"]) == set(size["seconds"])
        assert size["instance_bytes"] > 0 and size["solution_bytes"] > 0
    for name, paths in (("read_split", ("split", "serial")), ("read_walk", ("walk", "loads"))):
        for ratio in run[name]["numbers"].values():
            assert all(ratio[f"{path}_s"] > 0 for path in paths) and ratio["ratio"] > 0
