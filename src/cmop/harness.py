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

Instance and solution files hold exactly the bytes of
``json.dumps(doc, indent=1) + "\\n"``: one member, array row or number per
line, indented one space per level, with an LF after the closing brace.
The writer encodes each matrix with json's compact C encoder and then
widens its separators to that layout; a document of any other shape goes
to ``json.dumps`` itself. Keys and scalars are encoded before the file is
opened, so a document that cannot be encoded leaves it untouched; each
matrix's text is then written as it is made. A document with at least
``_SPLIT_NUMBERS`` numbers in its matrices has every other matrix encoded
by a forked child, pinned to a second CPU, when forking is safe (see
:func:`_can_fork`); a child that fails leaves this process to encode
everything, and the bytes never depend on the split.

The reader decodes a file of fewer than ``_WALK_BYTES`` bytes whole for
``json.loads``. It reads a larger one into an anonymous private mmap, off
the malloc heap (a map of the file would let another process that shrinks
it kill this one with SIGBUS), and walks it one member at a time: each
array field (``h_re``, ``h_im``, ``a_re``, ``a_im``; ``w_re``, ``w_im`` in
solution files) is decoded on its own, turned into a float64 array and its
pages released, so a read holds one matrix's text at a time. A file of at
least ``_SPLIT_CHARS`` bytes with two or more matrices has every other
matrix parsed by a forked child, under the same rule (see
:func:`_split_walk`). A document the walk cannot take, a child that fails
or a file whose size changes while it is read is decoded whole for
``json.loads``. What the reader returns, and every error it raises, is
what ``json.loads`` of the file would give with those fields converted.

Trace files are CSV with header
``iter,objective,decrease,grad_norm,step_norm,flops,elapsed_ns``, LF line
endings and '.' decimal separator. Iteration timing is off by default, so
re-running a command with identical inputs yields byte-identical outputs.

Step-size sweeps on small instances run their steps in forked worker
processes, each pinned to one CPU in ascending CPU order, when forking is
safe by the same rule; see :func:`run_sweep`. The outputs are
byte-identical to a run in one process, and nothing selects between the
two.
"""

from __future__ import annotations

import codecs
import dataclasses
import json
import math
import mmap
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
_JSON_WS = re.compile(rb"[ \t\n\r]*")  # JSON's four whitespace characters, as json.loads skips
_DECODER = json.JSONDecoder()
_WINDOW = 64  # bytes first decoded for a key, or for a member that is not a matrix
_NUMBER_GOES_ON = ".0123456789Ee"  # bytes that could extend a number just decoded


def _value(buf, pos: int, stop: int):
    """The JSON value at ``pos`` in ``buf`` and the offset just past it.

    It is decoded from ``buf[pos:stop]``, or from windows four times as
    long each time the value runs past the last one: a value is taken once
    it ends before the window's last byte and the byte after it could not
    extend a number. At the end of the buffer, the window's error is raised
    (ValueError, also for bytes that are not ASCII)."""
    size = len(buf)
    while True:
        stop = min(stop, size)
        try:
            text = codecs.ascii_decode(memoryview(buf)[pos:stop])[0]
            value, end = _DECODER.raw_decode(text)
            if stop == size or (end < len(text) and text[end] not in _NUMBER_GOES_ON):
                return value, pos + end
        except ValueError:
            if stop == size:
                raise
        stop = pos + 4 * (stop - pos)


def _walk_object(buf, parse_value) -> dict | None:
    """Parse the top-level JSON object in ``buf`` one member at a time.

    Keys are decoded by :func:`_value`; ``parse_value(key, pos)`` returns
    the value of member ``key``, which starts at ``pos``, and the offset
    just past it, and raises ValueError or RecursionError where it cannot.
    Anything this walk does not follow (a top level that is not an object,
    a syntax error, a byte that is not ASCII, trailing data, nesting past
    the recursion limit) returns None, and the caller decodes the file
    whole for ``json.loads``. Otherwise every key stands where
    ``json.loads`` puts it, duplicates included: the last value wins in
    the first key's position.
    """
    skip = _JSON_WS.match
    pos = skip(buf).end()
    if buf[pos:pos + 1] != b"{":
        return None
    doc = {}
    pos = skip(buf, pos + 1).end()
    if buf[pos:pos + 1] == b"}":
        pos += 1
    else:
        try:
            while True:
                if buf[pos:pos + 1] != b'"':
                    return None
                key, pos = _value(buf, pos, pos + _WINDOW)
                pos = skip(buf, pos).end()
                if buf[pos:pos + 1] != b":":
                    return None
                doc[key], pos = parse_value(key, skip(buf, pos + 1).end())
                pos = skip(buf, pos).end()
                sep = buf[pos:pos + 1]
                pos += 1
                if sep == b"}":
                    break
                if sep != b",":
                    return None
                pos = skip(buf, pos).end()
        except (ValueError, RecursionError):
            return None
    if skip(buf, pos).end() != len(buf):
        return None
    return doc


def _matrix_end(buf, pos: int) -> int:
    """Where the matrix at ``pos`` ends if it is one: just past the first
    ']' that follows another ']' and JSON whitespace; -1 if none does."""
    close = buf.find(b"]", pos)
    while close >= 0:
        after = _JSON_WS.match(buf, close + 1).end()
        if buf[after:after + 1] == b"]":
            return after + 1
        close = buf.find(b"]", after)
    return -1


def _release(buf, start: int, end: int) -> None:
    """Give the pages that lie wholly inside ``buf[start:end]`` back to the
    system. Nothing reads them again."""
    first = -(-start // mmap.PAGESIZE) * mmap.PAGESIZE
    last = end // mmap.PAGESIZE * mmap.PAGESIZE
    if last > first:
        buf.madvise(mmap.MADV_DONTNEED, first, last - first)


def _converted(value):
    """``value`` as a float64 array, or as it is if it does not convert
    (:func:`_float_array` then reports it by field name)."""
    try:
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        return value


def _converting(buf, arrays):
    """The ``parse_value`` of a serial walk. A member named in ``arrays``
    that opens with '[' is decoded from its text up to the byte after where
    :func:`_matrix_end` predicts it ends, and becomes a float64 array if it
    converts (a value that does not stays as parsed); every other member is
    decoded from a small window. The member's pages are released once it is
    parsed, so the read holds the text of one matrix at a time."""

    def parse_value(key: str, pos: int):
        end = _matrix_end(buf, pos) if key in arrays and buf[pos:pos + 1] == b"[" else -1
        value, end = _value(buf, pos, end + 1 if end > 0 else pos + _WINDOW)
        _release(buf, pos, end)
        return (_converted(value) if key in arrays else value), end

    return parse_value


def _parsed_array(buf, start: int, end: int):
    """The JSON value at ``start``, predicted to end at ``end`` and decoded
    by :func:`_value`, as a float64 array, and the offset past it. Its lists
    are freed on return."""
    value, stop = _value(buf, start, end + 1)
    return np.asarray(value, dtype=np.float64), stop


def _split_walk(buf, arrays) -> dict | None:
    """:func:`_walk_object`'s result with the matrices parsed on two CPUs,
    or None if the split does not apply or fails in any way.

    The walk decodes keys and scalars but only predicts where each member
    named in ``arrays`` that opens with '[' ends (:func:`_matrix_end`).
    With two such members or more, a forked child parses every other one
    from the buffer it inherits (see :func:`_run_groups`) into an anonymous
    shared mmap and sends back its shape and end, while this process
    parses the rest. Each process first releases the pages of the other's
    matrices, then those of each of its own once it is parsed. The result
    stands only if every one of them converts and ends where predicted;
    the child's arrays are then views of the shared map, adopted without a
    copy. Duplicate keys, a 3-D or ragged array or a string holding ']]'
    all return None."""
    parse, keys, members = _converting(buf, arrays), set(), []  # members: (key, start, end)

    def predict(key: str, pos: int):
        if key in keys:
            raise ValueError("duplicate key")  # json.loads keeps the first key's position
        keys.add(key)
        if key not in arrays or buf[pos:pos + 1] != b"[":
            return parse(key, pos)
        end = _matrix_end(buf, pos)
        if end < 0:
            raise ValueError("no matrix end")
        members.append((key, pos, end))
        return None, end

    doc = _walk_object(buf, predict)
    if doc is None or len(members) < 2:
        return None
    groups = [list(range(0, len(members), 2)), list(range(1, len(members), 2))]
    # A matrix of L characters holds at most L / 2 numbers. Pages the child
    # does not write are never allocated.
    room, offsets, size = {}, {}, 0
    for i in groups[1]:
        room[i], offsets[i] = (members[i][2] - members[i][1]) // 2, size
        size += 8 * room[i]
    out = mmap.mmap(-1, size)

    def run_group(group: list[int]) -> list:
        for i, (_, start, end) in enumerate(members):
            if i not in group:
                _release(buf, start, end)
        parsed = []
        for i in group:
            _, start, end = members[i]
            array, stop = _parsed_array(buf, start, end)
            _release(buf, start, end)
            if i in offsets:  # in the child: publish the numbers, send the shape
                np.frombuffer(out, np.float64, array.size, offsets[i])[:] = array.ravel()
                array = array.shape
            parsed.append((array, stop))
        return parsed

    def valid(result, group) -> bool:
        return isinstance(result, list) and len(result) == len(group) and all(
            isinstance(item, list) and len(item) == 2 and item[1] == members[i][2]
            and isinstance(item[0], list) and len(item[0]) == 2
            and all(type(d) is int and d >= 0 for d in item[0])
            and math.prod(item[0]) <= room[i]
            for item, i in zip(result, group)
        )

    try:
        mine, theirs = _run_groups(groups, run_group, valid)
    except Exception:  # a failed split only costs time: the caller decodes the file whole
        return None
    if any(end != members[i][2] for (_, end), i in zip(mine, groups[0])):
        return None
    for (array, _), i in zip(mine, groups[0]):
        doc[members[i][0]] = array
    for (shape, _), i in zip(theirs, groups[1]):
        view = np.frombuffer(out, np.float64, math.prod(shape), offsets[i])
        doc[members[i][0]] = view.reshape(shape)
    return doc


# A file of at least this many bytes has its matrices parsed on two CPUs
# (see _split_walk). Reading two N x 256 solution matrices (about 23.7 bytes
# a number) on a shared 2-vCPU x86-64 VM, split against the serial walk by
# the median of 61 interleaved reads, over 5 to 17 runs a size: 1.15-5.7x
# as long up to 0.24 MB; at 0.48, 0.73, 0.97 and 1.45 MB it lost 6 of 7,
# 2 of 12, 1 of 12 and 2 of 17 runs (up to 1.51x), and won 5 of 5 at
# 1.21 MB; from 1.94 MB on it won every run (0.59-0.97x), save one tie
# (1.00x) at 2.42 MB.
_SPLIT_CHARS = 1_900_000
# A file of fewer bytes is decoded whole for json.loads. The walk reads no
# faster: on the same VM it took 1.04-1.09x as long as json.loads from 0.06
# to 1.9 MB and 0.96-1.00x at 2.4-4.8 MB, and 1.8x on a 6.4 kB instance
# (0.31 against 0.17 ms). What it saves is memory, the file's bytes and
# text at once, which below this size come to at most about 2 MB.
_WALK_BYTES = 2**20


def _walked(file, size: int, arrays) -> dict | None:
    """The walk of the open ``file`` of ``size`` bytes, read into an
    anonymous private mmap (never a map of the file, which another process
    could shrink under the walk): :func:`_split_walk` where it applies,
    else the serial walk. None if the file no longer holds ``size`` bytes
    or the walk cannot take it."""
    flags = mmap.MAP_PRIVATE | getattr(mmap, "MAP_POPULATE", 0)  # populate: fewer faults
    with mmap.mmap(-1, size, flags=flags) as buf:
        if file.readinto(buf) != size or file.read(1):
            return None
        if size >= _SPLIT_CHARS and _can_fork():
            return _split_walk(buf, arrays)
        return _walk_object(buf, _converting(buf, arrays))


def _read_json_object(path, kind: str) -> dict:
    """Parse an ASCII JSON file whose top level must be an object.

    A file of at least ``_WALK_BYTES`` bytes is walked one member at a time
    from a buffer off the malloc heap (see :func:`_walked`): each array
    field of ``kind`` becomes a float64 array, and its pages are released,
    before the next member is read. With at least ``_SPLIT_CHARS`` bytes,
    its matrices are parsed on two CPUs (see :func:`_split_walk`). A
    smaller file, one the walk cannot take and one whose size changes while
    it is read are decoded whole for ``json.loads``, and their array fields
    converted after. So what this returns (an array field that does not
    convert stays as parsed) and every error it raises never depend on the
    path. Errors are those of ``json.loads`` on the file's text with its
    line endings kept, so their positions are offsets in the file.
    """
    arrays = _ARRAY_FIELDS[kind]
    try:
        with open(path, "rb") as file:
            size = os.fstat(file.fileno()).st_size
            walk = size >= max(_WALK_BYTES, 1) and hasattr(mmap, "MADV_DONTNEED")
            doc = _walked(file, size, arrays) if walk else None
            if doc is None:
                file.seek(0)
                doc = json.loads(file.read().decode("ascii"))
                if isinstance(doc, dict):
                    for key in arrays:
                        if key in doc:
                            doc[key] = _converted(doc[key])
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
    """Write an instance document as ASCII JSON: the bytes of
    ``json.dumps(doc, indent=1) + "\\n"``, written by :func:`_write_json`."""
    _write_json(doc, path)


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
    """Write a solution matrix as JSON with split re/im arrays: the bytes of
    ``json.dumps(doc, indent=1) + "\\n"`` for the document
    ``{"n": N, "k": K, "w_re": [[...]], "w_im": [[...]]}``, written by
    :func:`_write_json`."""
    w = np.asarray(w)
    doc = {
        "n": w.shape[0],
        "k": w.shape[1],
        "w_re": w.real.tolist(),
        "w_im": w.imag.tolist(),
    }
    _write_json(doc, path)


_COMPACT = json.JSONEncoder(separators=(",", ":"))  # served by json's C encoder
_SCALAR_TYPES = (str, int, float, bool, type(None))


def _is_matrix(value) -> bool:
    """Whether ``value`` is a non-empty list of non-empty lists of floats.
    The types are exact, so no repr can differ between json's encoders, and
    there are no ints, one of which could be too long to encode."""
    if type(value) is not list or not value:
        return False
    types = set()
    for row in value:
        if type(row) is not list or not row:
            return False
        types.update(map(type, row))
    return types == {float}


def _matrix_text(matrix: list) -> str:
    """A matrix as ``json.dumps(..., indent=1)`` lays it out as a member of
    a top-level object: the compact C encoding with every item break and
    then every row break widened. Numbers hold no ',' or ']'."""
    text = _COMPACT.encode(matrix)[2:-2]
    text = text.replace(",", ",\n   ").replace("],\n   [", "\n  ],\n  [\n   ")
    return "[\n  [\n   " + text + "\n  ]\n ]"


def _layout(doc) -> tuple[list[str], list[list], str]:
    """``(heads, matrices, tail)``: ``json.dumps(doc, indent=1) + "\\n"`` is
    ``heads[0]``, the :func:`_matrix_text` of ``matrices[0]``, ``heads[1]``
    and so on, then ``tail``, raising what ``json.dumps`` raises. A document
    other than an object of str keys and scalar or matrix values (see
    :func:`_is_matrix`) is all tail."""
    if type(doc) is dict and doc:
        heads, matrices, text = [], [], "{"
        for i, (key, value) in enumerate(doc.items()):
            if type(key) is not str:
                break
            text += (",\n " if i else "\n ") + json.dumps(key) + ": "
            if type(value) in _SCALAR_TYPES:
                text += json.dumps(value)
            elif _is_matrix(value):
                heads.append(text)
                matrices.append(value)
                text = ""
            else:
                break
        else:
            return heads, matrices, text + "\n}\n"
    return [], [], json.dumps(doc, indent=1) + "\n"


def _write_json(doc, path) -> None:
    """Write the bytes of ``json.dumps(doc, indent=1) + "\\n"`` to ``path``,
    one matrix at a time. All but the matrices is encoded first (see
    :func:`_layout`), so a document that cannot be encoded raises before
    the file is opened; each matrix's text is then written as
    :func:`_matrix_texts` hands it out, and dropped."""
    heads, matrices, tail = _layout(doc)
    with open(path, "wb") as file:
        for head, text in zip(heads, _matrix_texts(matrices)):
            file.write(head.encode("ascii"))
            file.write(text.encode("ascii"))
        file.write(tail.encode("ascii"))


# The matrices of a document with at least this many numbers in all are
# encoded on two CPUs (see _matrix_texts). Fork, pinning, the pipe and the
# reaping cost 10-15 ms; the C encoder takes 1.2-1.4 us per number on a
# shared 2-vCPU x86-64 VM. Two N x 256 solution matrices there, 41
# interleaved calls per size, split against serial by median: 2.07x as long
# at 5,120 numbers, 0.98-1.18x at 20,480-51,200 and 0.80-0.88x from 76,800
# on; a 1000 x 200 x 256 instance (912,000 numbers) took 0.78x.
_SPLIT_NUMBERS = 2**16


def _matrix_texts(matrices: list[list]):
    """:func:`_matrix_text` of every matrix, in order, each made when it is
    asked for. With at least ``_SPLIT_NUMBERS`` numbers in all, two or more
    matrices and :func:`_can_fork`, a forked child encodes every other
    matrix while this process encodes the rest, and the texts are then
    handed out one at a time; if that fails in any way, this process
    encodes them all, so the text never depends on the split."""
    if (
        len(matrices) > 1
        and sum(len(row) for matrix in matrices for row in matrix) >= _SPLIT_NUMBERS
        and _can_fork()
    ):
        groups = [list(range(0, len(matrices), 2)), list(range(1, len(matrices), 2))]

        def valid(texts, group) -> bool:
            return (
                isinstance(texts, list)
                and len(texts) == len(group)
                and all(isinstance(text, str) for text in texts)
            )

        try:
            results = _run_groups(
                groups, lambda group: [_matrix_text(matrices[i]) for i in group], valid
            )
        except Exception:  # a failed split only costs time: encode serially below
            pass
        else:
            texts = dict(zip(groups[0] + groups[1], results[0] + results[1]))
            del results
            for i in range(len(matrices)):
                yield texts.pop(i)
            return
    for matrix in matrices:
        yield _matrix_text(matrix)


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
            # Entries uniform over [-s, s] in both parts give E||V_n||^2 =
            # 2 K s^2 / 3 = r^2: rows fall on both sides of the boundary.
            reports.append(
                diagnostics.monitor_lemma4(
                    ball, instance.n, instance.k, 500, seed,
                    v_scale=ball.radius * float(np.sqrt(1.5 / instance.k)),
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

    def valid(group_rows, indices) -> bool:
        return (
            isinstance(group_rows, list)
            and all(isinstance(row, dict) and list(row) == list(SWEEP_COLUMNS)
                    for row in group_rows)
            and [row["index"] for row in group_rows] == indices
        )

    indices = list(steps)
    split = _lpt_groups(
        [_step_cost(pre, steps[i][1]) for i in indices],
        _sweep_workers(instance, method, len(indices)),
    )
    groups = [[indices[j] for j in group] for group in split]
    for group_rows in _run_groups(groups, run_group, valid):
        for row in group_rows:
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


def _can_fork() -> bool:
    """Whether work may be split over forked children pinned to CPUs, as
    :func:`_run_groups` runs them: fork and the CPU affinity calls exist,
    no other Python thread is alive (a child would inherit its locks in
    whatever state they are in) and at least two CPUs are usable."""
    return (
        hasattr(os, "fork")
        and hasattr(os, "sched_setaffinity")
        and threading.active_count() == 1
        and _usable_cpus() >= 2
    )


def _sweep_workers(instance: ProblemInstance, method: str, steps: int) -> int:
    """Processes a sweep of ``steps`` resolved steps runs in: one (this
    process) unless :func:`_can_fork`, or when a solve would start BLAS
    threads, or when there is only one step; else one per CPU, at most one
    per step."""
    macs, dot = _blas_sizes(method, instance.m, instance.n, instance.k)
    if not _can_fork() or macs >= _SERIAL_BLAS_MACS or dot > _SERIAL_BLAS_DOT:
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


def _run_groups(groups: list[list[int]], run_group, valid) -> list:
    """``run_group(group)`` for every group, in group order: the first
    group runs in this process, each other one in a forked child, whose
    result must pass ``valid(result, group)``. On any error the children
    still running are killed, and every child is reaped with its pipe
    closed.

    With more than one group, group g runs alone on the g-th usable CPU in
    ascending order (modulo their number), this process only until its
    group is done. On a 2-vCPU VM the scheduler was seen to keep an
    unpinned forked child on its parent's CPU, where two processes were no
    faster than one.
    """
    cpus = sorted(os.sched_getaffinity(0)) if len(groups) > 1 else []

    def work(g: int):
        if cpus:
            os.sched_setaffinity(0, {cpus[g % len(cpus)]})
        return run_group(groups[g])

    children = []  # (pid, read end of its pipe, group)
    try:
        for g in range(1, len(groups)):
            pid, fd = _fork(lambda g=g: work(g), [c[1] for c in children])
            children.append((pid, fd, groups[g]))
        try:
            results = [work(0)]
        finally:
            if cpus:
                os.sched_setaffinity(0, cpus)
        while children:
            results.append(_collect(*children.pop(0), valid))
        return results
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


def _collect(pid: int, fd: int, group: list[int], valid) -> list:
    """Read a child's result to the end of its pipe, reap it and check that
    it exited 0 and sent a JSON result that passes ``valid(result,
    group)``. An exception the child sent is raised here, caused by a
    WorkerError that names the child."""
    try:
        with os.fdopen(fd, "rb") as pipe:
            data = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    where = f"worker process {pid}"
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
        result = json.loads(data)
    except ValueError:
        result = None
    if not valid(result, group):
        raise WorkerError(f"{where} sent an invalid result ({len(data)} bytes)")
    return result
