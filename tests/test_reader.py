"""The JSON reader behind ``read_instance`` and ``read_solution``: it walks
the top-level object one member at a time and converts the named array
fields as it goes, yet returns what ``json.loads`` returns (those fields
converted as ``_float_array`` converts them) and raises the same errors.
Also bounds the memory a read takes and smoke-tests ``tools/io_bench.py``."""

import itertools
import json
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
    """The reference: ``json.loads`` of the file's text as ``read_text``
    gives it, with universal newlines."""
    return json.loads(path.read_text(encoding="ascii"))


def expected_document(path: Path, kind: str) -> dict:
    return {k: as_float_array(v) if k in NAMED[kind] else v for k, v in loads(path).items()}


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
    assert canonical(_read_json_object(path, kind)) == canonical(expected_document(path, kind))


def _assert_same_error(tmp_dir, text, kind):
    path = write(tmp_dir, text)
    with pytest.raises(ValueError) as reference:
        loads(path)
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


def test_read_peak_memory_stays_near_the_file_size(tmp_path):
    """Parsing all of a document into lists before converting peaked at
    about 2.45x the file size; converting each field as it is parsed leaves
    the file's bytes and text as the peak, about 2x."""
    path = tmp_path / "inst.json"
    write_instance(gen_instance(m=400, n=80, k=128, seed=11), path)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        read_instance(path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * size, f"peak {peak / size:.2f}x the file size"


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
        assert set(size["rss_rise_mb"]) == {"read_instance", "read_solution"}
        assert size["instance_bytes"] > 0 and size["solution_bytes"] > 0
