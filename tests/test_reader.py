"""The JSON reader behind ``read_instance`` and ``read_solution``: a file
below ``_SPLIT_CHARS`` goes whole to ``json.loads``, a larger one is
walked one member at a time through a window of ``_WINDOW_BYTES``, then
its named array fields are read again and converted one block of rows at
a time, by one process or two. Every path returns what ``json.loads``
returns (those fields converted as ``_float_array`` converts them) and
raises the same errors: the walk in one process, the two-CPU split, a
document either cannot take, a failed split and a file that changes while
it is read; none leaves a process, a file descriptor or an open buffer
behind. Also bounds the memory a read takes and what it reads at a time,
and smoke-tests ``tools/io_bench.py``."""

import contextlib
import itertools
import json
import mmap
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cmop.formats as formats
import cmop.workers as workers
from cmop import gen_instance, read_instance, write_instance
from cmop.errors import InputError
from cmop.formats import _read_json_object

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
    """Every read within walks the file through its window in this process
    alone."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(formats, "_SPLIT_CHARS", 0)
        patch.setattr(workers, "_can_fork", lambda: False)
        yield


@contextlib.contextmanager
def split_forced():
    """Every read within takes the two-CPU path where its document allows."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(formats, "_SPLIT_CHARS", 0)
        patch.setattr(workers, "_usable_cpus", lambda: 2)
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


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(doc=documents())
def test_reader_equals_json_loads_across_row_blocks(tmp_dir, doc):
    """Matrices parsed one row, two numbers or five numbers a block: every
    seam between blocks is crossed."""
    kind, text, _ = doc
    path = write(tmp_dir, text)
    expected = canonical(expected_document(path, kind))
    for block, forced in itertools.product((1, 2, 5), PATHS):
        with forced(), pytest.MonkeyPatch.context() as patch:
            patch.setattr(formats, "_BLOCK_NUMBERS", block)
            assert canonical(_read_json_object(path, kind)) == expected


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(doc=documents())
def test_reader_equals_json_loads_across_windows(tmp_dir, doc):
    """A window of 8, 32 or 128 bytes: the walk crosses a seam between
    windows inside keys, scalars, whitespace and matrices, a key or scalar
    longer than the window is handed back to json.loads, and a block of
    rows longer than the window grows the buffer."""
    kind, text, _ = doc
    path = write(tmp_dir, text)
    expected = canonical(expected_document(path, kind))
    for window, block, forced in itertools.product((8, 32, 128), (1, 5), PATHS):
        with forced(), pytest.MonkeyPatch.context() as patch:
            patch.setattr(formats, "_WINDOW_BYTES", window)
            patch.setattr(formats, "_BLOCK_NUMBERS", block)
            assert canonical(_read_json_object(path, kind)) == expected


@pytest.mark.parametrize("forced", [walk_forced, split_forced], ids=["walk", "split"])
def test_walk_takes_instances_through_any_window(tmp_path, forks, forced):
    """The walk itself, not the fallback to json.loads, reads an instance
    file through windows shorter than a row (the buffer grows to hold a
    block), about a block long and longer than the file, with blocks of
    one row, five numbers and 400 numbers."""
    path = tmp_path / "inst.json"
    write_instance(gen_instance(m=30, n=3, k=20, seed=2), path)
    expected = canonical(expected_document(path, "instance"))
    walked, docs = formats._walked, []
    for window, block in itertools.product((64, 500, 2**14, 2**20), (1, 5, 400)):
        with forced(), pytest.MonkeyPatch.context() as patch:
            patch.setattr(formats, "_WINDOW_BYTES", window)
            patch.setattr(formats, "_BLOCK_NUMBERS", block)
            patch.setattr(formats, "_walked", lambda *args: docs.append(walked(*args)) or docs[-1])
            assert canonical(_read_json_object(path, "instance")) == expected
        assert docs.pop() is not None, (window, block)
    _assert_reaped(forks)


def _assert_same_error(tmp_dir, text, kind):
    """``json.loads`` of the whole file, the serial walk and the forced
    split, through the whole window and through one of 32 bytes, all raise
    what json.loads raises, as an InputError."""
    path = write(tmp_dir, text)
    with pytest.raises(ValueError) as reference:
        loads(path)
    for window, forced in itertools.product((formats._WINDOW_BYTES, 32), PATHS):
        with forced(), pytest.MonkeyPatch.context() as patch:
            patch.setattr(formats, "_WINDOW_BYTES", window)
            with pytest.raises(InputError) as info:
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


def _assert_read_peak_below(path: Path, bound: float):
    size = path.stat().st_size
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        read_instance(path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= bound * size, f"peak {peak / size:.2f}x the file size"


def test_read_peak_memory_stays_near_the_file_size(tmp_path, monkeypatch):
    """Parsing all of a document into lists before converting peaked at
    about 2.45x the file size, holding the file's bytes and text while
    converting each field as it was parsed at 2.00x, and the text and lists
    of one matrix at a time at 0.99x. The window the file is read through is
    an anonymous map, which the trace does not see; with one block of rows
    at a time the peak is the four arrays and the complex H and A built
    from them, about 0.74x. Serial path."""
    path = tmp_path / "inst.json"
    write_instance(gen_instance(m=400, n=80, k=128, seed=11), path)
    monkeypatch.setattr(workers, "_can_fork", lambda: False)
    _assert_read_peak_below(path, 0.85)


def test_split_read_peak_memory_stays_near_the_file_size(tmp_path, forks):
    """This process on the two-CPU path, where the child's matrices land in
    a shared map that the trace does not see either: 0.82x with one
    matrix's text and lists at a time, about 0.56x with one block of rows."""
    path = tmp_path / "inst.json"
    write_instance(gen_instance(m=400, n=80, k=128, seed=11), path)
    forks.clear()  # the writer's
    with split_forced():
        _assert_read_peak_below(path, 0.7)
    assert len(forks) == 1


@pytest.mark.parametrize("block", [2**12, 2**14])
def test_matrix_parse_memory_scales_with_the_block(tmp_path, monkeypatch, block):
    """A 4000 x 64 matrix (5.9 MB of text) decoded whole held its text and
    nested lists at once, about 12 MB beyond its array. One block of rows at
    a time holds one block's text, lists and array, about 75 bytes a number
    of the block; the window it is read into is an anonymous map, which the
    trace does not see, and is bounded apart."""
    matrix = np.random.default_rng(7).uniform(-10.0, 10.0, (4000, 64))
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(matrix.tolist(), indent=1), encoding="ascii")
    size = path.stat().st_size
    monkeypatch.setattr(formats, "_BLOCK_NUMBERS", block)
    with open(path, "rb") as file, formats._Window(file.fileno(), size) as w:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            array, end = formats._parsed_array(w, 0, size, len(matrix))
            peak = tracemalloc.get_traced_memory()[1] - before - array.nbytes
        finally:
            tracemalloc.stop()
    assert end == size
    assert array.tobytes() == matrix.tobytes()
    assert peak <= 128 * block, f"peak {peak / block:.0f} bytes a number of the block"


# -- the window --------------------------------------------------------------

def _matrix_spans(path: Path, fields) -> list:
    """(start, end) of each field's matrix text in an instance file."""
    text = path.read_bytes()
    starts = [text.index(b'"%s": ' % field.encode()) + len(field) + 4 for field in fields]
    return [(start, text.index(b"\n ]", start) + 3) for start in starts]


@contextlib.contextmanager
def recorded(log: Path):
    """Within, every ``os.preadv``, ``os.pread`` and ``mmap.mmap`` call of
    this process and of the children it forks appends a line to ``log``:
    pid, call, then the file offset and byte count read, or the fileno,
    length and flags mapped (flags -1 where none were given)."""
    real_preadv, real_pread, real_mmap = os.preadv, os.pread, mmap.mmap

    def note(*fields):
        with open(log, "a") as out:
            out.write(" ".join(map(str, (os.getpid(), *fields))) + "\n")

    def preadv(fd, buffers, offset, *flags):
        note("read", offset, sum(len(memoryview(b)) for b in buffers))
        return real_preadv(fd, buffers, offset, *flags)

    def pread(fd, count, offset):
        note("read", offset, count)
        return real_pread(fd, count, offset)

    def mapping(fileno, length, *args, **kwargs):
        note("map", fileno, length, kwargs.get("flags", -1))
        return real_mmap(fileno, length, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "preadv", preadv)
        patch.setattr(os, "pread", pread)
        patch.setattr(mmap, "mmap", mapping)
        yield


def _records(log: Path) -> list:
    """The lines of a ``recorded`` log as (pid, call, int, int[, int])."""
    if not log.exists():
        return []
    return [(int(pid), call, *map(int, rest))
            for pid, call, *rest in (line.split() for line in log.read_text().splitlines())]


def _runs(reads) -> list:
    """Reads (offset, count) joined into the spans they cover back to back."""
    runs = []
    for offset, count in reads:
        if runs and runs[-1][1] == offset:
            runs[-1][1] += count
        else:
            runs.append([offset, offset + count])
    return [tuple(run) for run in runs]


@pytest.mark.parametrize("forced", [walk_forced, split_forced], ids=["walk", "split"])
def test_each_matrix_is_released_when_no_process_needs_it(tmp_path, monkeypatch, forks, forced):
    """No process holds a matrix that it does not parse. This process reads
    the file once from start to end, a window at a time; then each process
    reads each matrix that it parses once more, back to back in group
    order, and nothing else: on the split this process never reads the
    child's matrices, nor the child this process's."""
    path = tmp_path / "inst.json"
    write_instance(gen_instance(m=60, n=40, k=50, seed=3), path)
    spans, size = _matrix_spans(path, NAMED["instance"]), path.stat().st_size
    monkeypatch.setattr(formats, "_BLOCK_NUMBERS", 400)  # 6 or 8 blocks of rows a matrix
    monkeypatch.setattr(formats, "_WINDOW_BYTES", 2**14)  # 16 windows for the walk
    log, walked, docs = tmp_path / "calls.log", formats._walked, []
    monkeypatch.setattr(formats, "_walked", lambda *args: docs.append(walked(*args)) or docs[-1])
    with forced(), recorded(log):
        _, loaded = read_instance(path)
    assert docs[0] is not None and canonical(loaded) == canonical(
        expected_document(path, "instance"))
    reads = {}
    for pid, call, *fields in _records(log):
        if call == "read":
            reads.setdefault(pid, []).append(tuple(fields))
    assert all(count <= 2**14 for process in reads.values() for _, count in process)
    parent = reads.pop(os.getpid())
    walk = next(i for i in range(len(parent) + 1) if _runs(parent[:i]) == [(0, size)])
    spans = [(start + 1, end) for start, end in spans]  # the walk has seen each '['
    if forced is walk_forced:
        assert _runs(parent[walk:]) == spans and not reads
    else:
        assert _runs(parent[walk:]) == [spans[0], spans[2]]
        assert [_runs(child) for child in reads.values()] == [[spans[1], spans[3]]]
        assert list(reads) == forks


def _rows(path: Path) -> list:
    """The length of each row of numbers in a file without strings."""
    return [len(row) for row in re.findall(rb"\[[^\[\]]*\]", path.read_bytes())]


@pytest.mark.parametrize("forced", [walk_forced, split_forced], ids=["walk", "split"])
@pytest.mark.parametrize("rows", ["narrow", "wide"])
def test_reads_and_buffers_hold_a_window_or_a_block(tmp_path, forks, forced, rows):
    """Every read of every process asks for at most one window, the file is
    never mapped, and every buffer of file text is an anonymous private map
    of one window; where a block of rows is longer than the window (a row of
    2000 numbers against a 16 kB window), the buffer grows to hold it and
    at most one window more. The one shared map is the split's, for the
    arrays the child parses."""
    path = tmp_path / "inst.json"
    m, n, k = (60, 40, 50) if rows == "narrow" else (3, 2000, 1500)
    write_instance(gen_instance(m=m, n=n, k=k, seed=3), path)
    window, log, walked, docs = 2**14, tmp_path / "calls.log", formats._walked, []
    with forced(), recorded(log), pytest.MonkeyPatch.context() as patch:
        patch.setattr(formats, "_BLOCK_NUMBERS", 400)
        patch.setattr(formats, "_WINDOW_BYTES", window)
        patch.setattr(formats, "_walked", lambda *args: docs.append(walked(*args)) or docs[-1])
        _, loaded = read_instance(path)
    assert docs[0] is not None and canonical(loaded) == canonical(
        expected_document(path, "instance"))
    records = _records(log)
    reads = [r[3] for r in records if r[1] == "read"]
    maps = [r[2:] for r in records if r[1] == "map"]
    assert reads and max(reads) <= window
    assert all(fileno == -1 for fileno, _, _ in maps)  # never a map of the file
    private = [length for _, length, flags in maps if flags == mmap.MAP_PRIVATE]
    shared = [length for _, length, flags in maps if flags != mmap.MAP_PRIVATE]
    assert len(shared) == (forced is split_forced)
    assert shared == [] or shared[0] == sum(8 * ((e - s) // 2) for s, e in
                                            _matrix_spans(path, ("h_im", "a_im")))
    longest = max(_rows(path))
    assert private[0] == window
    if rows == "narrow":
        assert longest < window and private == [window]
    else:
        assert longest > window and window < max(private) <= longest + window


def test_buffer_is_anonymous_and_closed_on_every_path(tmp_path, monkeypatch, forks):
    """Each walk of the file makes one buffer in this process, an anonymous
    private map as long as the window (or the file, where that is shorter),
    and closes it on every path: a document the walk takes, one it does
    not, a failed child. The only other map is the split's shared one for
    the child's arrays."""
    made, real_mmap, parent = [], mmap.mmap, os.getpid()

    def recording(fileno, length, **kwargs):
        buf = real_mmap(fileno, length, **kwargs)
        made.append((fileno, length, kwargs.get("flags"), buf))
        return buf

    monkeypatch.setattr(mmap, "mmap", recording)
    good = tmp_path / "inst.json"
    write_instance(gen_instance(m=20, n=10, k=12, seed=4), good)
    bad = write(tmp_path, good.read_text().replace("]", "}", 30))
    parsed_array = formats._parsed_array

    @contextlib.contextmanager
    def child_fails():
        with split_forced(), pytest.MonkeyPatch.context() as patch:
            patch.setattr(formats, "_parsed_array", lambda *args: (
                parsed_array(*args) if os.getpid() == parent else os._exit(1)))
            yield

    fds = _open_fds()
    for path, forced, window in itertools.product(
            (good, bad), PATHS + (child_fails,), (formats._WINDOW_BYTES, 2**12)):
        made.clear()
        with forced(), pytest.MonkeyPatch.context() as patch:
            patch.setattr(formats, "_WINDOW_BYTES", window)
            patch.setattr(formats, "_BLOCK_NUMBERS", 40)  # 4 rows, well within a window
            try:
                _read_json_object(path, "instance")
            except InputError:
                assert path == bad
        buffers = [(length, buf) for _, length, flags, buf in made if flags is not None]
        walked = forced is not contextlib.nullcontext
        if walked and path == bad and window < path.stat().st_size:
            # '}' for ']' makes "rows" longer than the window: the buffer grows
            assert len(buffers) > 1 and buffers[-1][0] > window
        else:
            assert len(buffers) == walked
        assert all(fileno == -1 for fileno, _, _, _ in made)
        assert all(flags in (None, mmap.MAP_PRIVATE) for _, _, flags, _ in made)
        assert not walked or buffers[0][0] == min(window, path.stat().st_size)
        assert all(buf.closed for _, buf in buffers)
        assert _open_fds() == fds
    _assert_reaped(forks)


# Rewrites of an instance file, and when they land: between the reader's
# first fstat and the walk ("walk"), or between the walk and the parse of
# the matrices ("parse").
REWRITES = {
    "cut-in-a-matrix": ("walk", lambda text: text[:len(text) // 2]),
    "emptied": ("walk", lambda text: ""),
    "grown-by-whitespace": ("walk", lambda text: text + "\n" * 5000),
    "grown-by-a-member": ("walk", lambda text: text[:-3] + ',\n "x": 1\n}\n'),
    "grown-by-garbage": ("walk", lambda text: text + "x"),
    "rewritten-shorter": ("walk", lambda text: SHORTER),
    "same-size": ("walk", lambda text: text.replace("5", "6")),
    "cut-before-the-parse": ("parse", lambda text: text[:len(text) // 2]),
    "shorter-before-the-parse": ("parse", lambda text: SHORTER),
    "grown-before-the-parse": ("parse", lambda text: text[:-3] + ',\n "x": 1\n}\n'),
    "same-size-before-the-parse": ("parse", lambda text: text.replace("5", "6")),
    "same-size-scalar-before-the-parse": ("parse", lambda text: text.replace(
        '"seed": 4', '"seed": 5')),
}
SHORTER = json.dumps({"m": 1, "h_re": [[1.0]], "h_im": [[2.0]]})


@pytest.mark.parametrize("forced", [walk_forced, split_forced], ids=["walk", "split"])
@pytest.mark.parametrize("rewrite", REWRITES.values(), ids=REWRITES)
def test_size_change_while_read_gives_what_json_loads_gives(tmp_path, monkeypatch, forced,
                                                            rewrite):
    """A read that comes up short, a file that has grown and a file that
    is not the one the reader first saw (its size, mtime or inode differ
    once every process has read it) are decoded whole: the result is
    json.loads's of the file as it then is, or the same InputError, and the
    reader never maps the file, so it cannot crash. With a rewrite between
    the walk and the parse, the walk's scalars and the parsed matrices come
    from different files unless that check catches it."""
    path = tmp_path / "inst.json"
    write_instance(gen_instance(m=20, n=10, k=12, seed=4), path)
    when, rewrite = rewrite
    new_text, calls = rewrite(path.read_text()), []
    assert new_text != path.read_text()
    module, name = (os, "fstat") if when == "walk" else (workers, "_run_groups")
    real = getattr(module, name)

    def rewriting(*args):
        if not calls:
            result = real(*args) if when == "walk" else None
            calls.append(when)
            path.write_text(new_text, encoding="ascii")
            if when == "walk":
                return result
        return real(*args)

    fds = _open_fds()
    with forced():
        monkeypatch.setattr(module, name, rewriting)
        try:
            got = _read_json_object(path, "instance")
        except InputError as exc:
            got = exc
        monkeypatch.setattr(module, name, real)
    assert calls and _open_fds() == fds
    try:
        expected = canonical(expected_document(path, "instance"))
    except ValueError as exc:
        assert str(got) == f"instance file {path} is not valid JSON: {exc}"
    else:
        assert canonical(got) == expected


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
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(formats, "_SPLIT_CHARS", path.stat().st_size + 1)
    read_instance(path)
    monkeypatch.setattr(formats, "_SPLIT_CHARS", 0)
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 1)
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


# Matrices whose rows are found but whose seams between blocks of one row
# are not those of a matrix of equal rows of numbers.
MALFORMED_SEAMS = {
    "no-comma": "[[1.0] [2.0]]",
    "two-commas": "[[1.0],,[2.0]]",
    "ragged": "[[1.0],[2.0, 3.0]]",
    "narrower-row": "[[1.0, 2.0],[3.0]]",
    "empty-row": "[[1.0],[]]",
    "deeper": "[[[1.0]],[[2.0]]]",
    "string-with-a-seam": '[["],[", 1.0],[2.0, 3.0]]',
}


@pytest.mark.parametrize("matrix", MALFORMED_SEAMS.values(), ids=MALFORMED_SEAMS)
def test_malformed_seam_gives_what_json_loads_gives(tmp_path, monkeypatch, forks, matrix):
    """With one row a block, in this process and in the child."""
    monkeypatch.setattr(formats, "_BLOCK_NUMBERS", 1)
    for text in ('{"h_re": %s, "h_im": [[1.0]], "a_re": [[1]]}' % matrix,
                 '{"h_re": [[1.0]], "h_im": %s, "a_re": [[1]]}' % matrix):
        path = write(tmp_path, text)
        try:
            expected = canonical(expected_document(path, "instance"))
        except ValueError:
            _assert_same_error(tmp_path, text, "instance")
            continue
        for forced in PATHS:
            with forced():
                assert canonical(_read_json_object(path, "instance")) == expected
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
    parsed_array = formats._parsed_array
    calls = []

    def failing(buf, start, stop, *empty):
        array, end = parsed_array(buf, start, stop, *empty)
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

    monkeypatch.setattr(formats, "_parsed_array", failing)
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
        assert set(size["before_mb"]) == set(size["peak_mb"]) == set(size["seconds"])
        for call, rise in size["rss_rise_mb"].items():
            before, peak = size["before_mb"][call], size["peak_mb"][call]
            assert 0 < before <= peak
            assert abs(rise - (peak - before)) <= 0.1
        assert size["instance_bytes"] > 0 and size["solution_bytes"] > 0
    for name, paths in (("read_split", ("split", "serial")), ("read_walk", ("walk", "loads"))):
        for ratio in run[name]["numbers"].values():
            assert all(ratio[f"{path}_s"] > 0 for path in paths) and ratio["ratio"] > 0
    harness_run = run["harness_large"]
    assert set(harness_run["rss_rise_mb"]) == {"run_experiment", "run_check"}
    for call, rise in harness_run["rss_rise_mb"].items():
        before, peak = harness_run["before_mb"][call], harness_run["peak_mb"][call]
        assert 0 < before <= peak and abs(rise - (peak - before)) <= 0.1
