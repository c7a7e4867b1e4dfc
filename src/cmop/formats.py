"""Instance generation and the instance, solution and trace file formats.

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
:func:`workers._can_fork`); a child that fails leaves this process to encode
everything, and the bytes never depend on the split.

The reader decodes a file of fewer than ``_SPLIT_CHARS`` bytes whole for
``json.loads``. It reads a larger one into an anonymous private mmap, off
the malloc heap (a map of the file would let another process that shrinks
it kill this one with SIGBUS), and walks it one member at a time: each
array field (``h_re``, ``h_im``, ``a_re``, ``a_im``; ``w_re``, ``w_im`` in
solution files) is decoded one block of rows of about ``_BLOCK_NUMBERS``
numbers at a time, straight into its float64 array, each block's pages
released before the next is decoded, so a read holds the text and lists of
one block of rows at a time. When forking is safe, a forked child parses
every other matrix (see :func:`_split_walk`); when it is not, this process
walks the file alone, which keeps the read as lean on memory. A document
the walk cannot take, a child that fails or a file whose size changes while
it is read is decoded whole for ``json.loads``. What the reader returns, and every error it
raises, is what ``json.loads`` of the file would give with those fields
converted.

Trace files are CSV with header
``iter,objective,decrease,grad_norm,step_norm,flops,elapsed_ns``, LF line
endings and '.' decimal separator. Iteration timing is off by default, so
re-running a command with identical inputs yields byte-identical outputs.
"""

from __future__ import annotations

import codecs
import json
import math
import mmap
import os
import re
from pathlib import Path

import numpy as np

from . import workers
from .errors import InputError
from .objective import ProblemInstance
from .solvers import IterationRecord

_RNG_ID = "numpy-pcg64"
ENV_SEED = "CMOP_SEED"

TRACE_HEADER = "iter,objective,decrease,grad_norm,step_norm,flops,elapsed_ns"


def _nonnegative_seed(seed: int, name: str) -> int:
    """``seed``, which numpy's generators need to be at least 0; InputError
    naming ``name`` if it is not."""
    if seed < 0:
        raise InputError(f"{name} must be a non-negative integer, got {seed}")
    return seed


def default_seed() -> int:
    """Seed used when none is given: the CMOP_SEED env var, else 0."""
    raw = os.environ.get(ENV_SEED)
    if raw is None:
        return 0
    try:
        seed = int(raw)
    except ValueError as exc:
        raise InputError(f"{ENV_SEED} must be an integer, got {raw!r}") from exc
    return _nonnegative_seed(seed, ENV_SEED)


def resolve_seed(seed: int | None) -> int:
    """``seed``, or :func:`default_seed` where it is None; a negative seed
    raises InputError."""
    return default_seed() if seed is None else _nonnegative_seed(seed, "seed")


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
    seed = resolve_seed(seed)
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


def _is_number(value, types) -> bool:
    """True iff ``value`` is an instance of ``types`` and not a bool, which
    JSON reads from ``true`` and ``false``."""
    return isinstance(value, types) and not isinstance(value, bool)


def _int_fields(doc: dict, names) -> list[int]:
    values = [doc[name] for name in names]
    if not all(_is_number(value, int) for value in values):
        raise InputError(f"fields {', '.join(names)} must be integers")
    return values


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


def _row_blocks(buf, start: int, end: int) -> list[list[int]]:
    """``[first, stop, rows]`` for each block of rows of the matrix at
    ``start``, predicted to end at ``end``: ``buf[first:stop]`` holds
    ``rows`` rows, about ``_BLOCK_NUMBERS`` numbers as the first row's
    commas count them. Rows must be joined by ',' and JSON whitespace; a
    row runs from a '[' to the next ']', found by one ``find``; the last
    one must be followed, past JSON whitespace, by the matrix's own ']' at
    ``end``. Raises ValueError where that does not hold."""
    skip = _JSON_WS.match
    blocks, per = [], 0
    pos = skip(buf, start + 1).end()
    while True:
        close = buf.find(b"]", pos, end) if buf[pos:pos + 1] == b"[" else -1
        if close < 0:
            raise ValueError("not a row")
        if not per:
            per = max(1, _BLOCK_NUMBERS // (buf[pos:close].count(b",") + 1))
        if blocks and blocks[-1][2] < per:
            blocks[-1][1:] = close + 1, blocks[-1][2] + 1
        else:
            blocks.append([pos, close + 1, 1])
        pos = skip(buf, close + 1).end()
        if buf[pos:pos + 1] != b",":
            break
        pos = skip(buf, pos + 1).end()
    if buf[pos:pos + 1] != b"]" or pos + 1 != end:
        raise ValueError("the rows do not end the matrix")
    return blocks


def _parsed_rows(buf, first: int, stop: int, rows: int) -> np.ndarray:
    """The block of ``rows`` rows in ``buf[first:stop]`` as a float64
    array, that text decoded by ``raw_decode`` between '[' and ']'; the
    text and lists are freed on return. Raises ValueError unless it is that
    many rows of equal, non-zero length."""
    text = "[" + codecs.ascii_decode(memoryview(buf)[first:stop])[0] + "]"
    value, used = _DECODER.raw_decode(text)
    block = np.asarray(value, dtype=np.float64)
    if used != len(text) or block.ndim != 2 or len(block) != rows or not block.size:
        raise ValueError("not a block of rows of numbers")
    return block


def _parsed_array(buf, start: int, end: int, empty=np.empty):
    """The matrix at ``start``, predicted to end at ``end``, as a float64
    array made by ``empty(shape)``, and ``end``. It is decoded one block of
    rows at a time (:func:`_row_blocks`), each assigned into the array and
    its whole pages released before the next is decoded, so the parse holds
    one block's text and lists at a time. Raises ValueError (or what
    decoding or converting a row raises) where the matrix is not equal rows
    of numbers that end at ``end``; the file is then decoded whole for
    ``json.loads``."""
    blocks = _row_blocks(buf, start, end)
    total = sum(rows for _, _, rows in blocks)
    array, row, done = None, 0, start
    for first, stop, rows in blocks:
        block = _parsed_rows(buf, first, stop, rows)
        if array is None:
            array = empty((total, block.shape[1]))
        if block.shape[1] != array.shape[1]:  # assignment would broadcast a row of one
            raise ValueError("rows of different lengths")
        array[row:row + rows] = block
        row += rows
        _release(buf, done, end if row == total else stop)
        done = max(done, stop // mmap.PAGESIZE * mmap.PAGESIZE)
    return array, end


def _split_walk(buf, arrays, processes: int) -> dict | None:
    """:func:`_walk_object`'s result with the matrices parsed by one or
    two ``processes``, or None if the walk cannot take the file or fails in
    any way.

    The walk decodes keys and scalars but only predicts where each member
    named in ``arrays`` that opens with '[' ends (:func:`_matrix_end`); a
    member named in ``arrays`` that does not becomes a float64 array if it
    converts. The matrices are then parsed through
    :func:`workers._run_groups`: this process parses the first group, and
    with two processes and two matrices or more, a forked child parses
    every other matrix from the buffer it inherits straight into its slot
    of an anonymous shared mmap and sends back its shape and end. Each
    process first releases the pages of the other's matrices, then parses
    each of its own one block of rows at a time (:func:`_parsed_array`),
    releasing each block's pages before it decodes the next, so it holds
    the text of one block of rows at a time. The result stands only if
    every matrix converts and ends where predicted; the child's arrays are
    then views of the shared map, adopted without a copy. Duplicate keys, a
    3-D or ragged array or a string holding ']' in a matrix all return
    None."""
    keys, members = set(), []  # members: (key, start, end)

    def predict(key: str, pos: int):
        if key in keys:
            raise ValueError("duplicate key")  # json.loads keeps the first key's position
        keys.add(key)
        if key not in arrays or buf[pos:pos + 1] != b"[":
            value, end = _value(buf, pos, pos + _WINDOW)
            _release(buf, pos, end)
            return (_converted(value) if key in arrays else value), end
        end = _matrix_end(buf, pos)
        if end < 0:
            raise ValueError("no matrix end")
        members.append((key, pos, end))
        return None, end

    doc = _walk_object(buf, predict)
    if doc is None:
        return None
    processes = min(processes, max(len(members), 1))
    groups = [list(range(g, len(members), processes)) for g in range(processes)]
    # A matrix of L characters holds at most L / 2 numbers. Pages the child
    # does not write are never allocated.
    room, offsets, size = {}, {}, 0
    for group in groups[1:]:
        for i in group:
            room[i], offsets[i] = (members[i][2] - members[i][1]) // 2, size
            size += 8 * room[i]
    out = mmap.mmap(-1, size) if size else None

    def slot(i: int, shape: tuple[int, int]) -> np.ndarray:
        if math.prod(shape) > room[i]:
            raise ValueError("no room for the matrix")
        return np.frombuffer(out, np.float64, math.prod(shape), offsets[i]).reshape(shape)

    def run_group(group: list[int]) -> list:
        for i, (_, start, end) in enumerate(members):
            if i not in group:
                _release(buf, start, end)
        parsed = []
        for i in group:
            _, start, end = members[i]
            if i in offsets:  # in the child: parse into the shared map, send the shape
                array, stop = _parsed_array(buf, start, end, lambda shape, i=i: slot(i, shape))
                parsed.append((array.shape, stop))
            else:
                parsed.append(_parsed_array(buf, start, end))
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
        results = workers._run_groups(groups, run_group, valid)
    except Exception:  # a failed walk only costs time: the caller decodes the file whole
        return None
    if any(end != members[i][2] for (_, end), i in zip(results[0], groups[0])):
        return None
    for result, group in zip(results, groups):
        for (array, _), i in zip(result, group):
            if i in offsets:  # a shape sent by the child: its numbers are in the map
                array = np.frombuffer(out, np.float64, math.prod(array), offsets[i]).reshape(array)
            doc[members[i][0]] = array
    return doc


# A file of at least this many bytes is walked, with its matrices parsed
# on two CPUs when forking is safe (see _walked); a smaller one is decoded
# whole for json.loads. Reading two N x 256 solution matrices (about 23.7
# bytes a number) on a shared 2-vCPU x86-64 VM, split against the
# one-process walk by the median of 61 interleaved reads, over 5 to 17 runs
# a size: 1.15-5.7x as long up to 0.24 MB; at 0.48, 0.73, 0.97 and 1.45 MB
# it lost 6 of 7, 2 of 12, 1 of 12 and 2 of 17 runs (up to 1.51x), and won
# 5 of 5 at 1.21 MB; from 1.94 MB on it won every run (0.59-0.97x), save
# one tie (1.00x) at 2.42 MB. The one-process walk reads no faster than
# json.loads (1.04-1.09x as long from 0.06 to 1.9 MB, 0.96-1.00x at 2.4-4.8
# MB): what it saves is memory. Under tracemalloc a 3.8 MB instance read
# whole for json.loads peaks at 2.45x the file size, walked by this process
# alone at 0.74x and on two CPUs at 0.56x (the arrays and the complex H and
# A; it was 0.99x and 0.82x with one matrix's text and lists at a time);
# below this size that saving is at most about 3.3 MB.
_SPLIT_CHARS = 1_900_000


def _walked(file, size: int, arrays) -> dict | None:
    """The walk of the open ``file`` of ``size`` bytes, read into an
    anonymous private mmap (never a map of the file, which another process
    could shrink under the walk): :func:`_split_walk` on two processes when
    :func:`workers._can_fork`, else on this one alone. None if the file no
    longer holds ``size`` bytes or the walk cannot take it."""
    flags = mmap.MAP_PRIVATE | getattr(mmap, "MAP_POPULATE", 0)  # populate: fewer faults
    with mmap.mmap(-1, size, flags=flags) as buf:
        if file.readinto(buf) != size or file.read(1):
            return None
        return _split_walk(buf, arrays, 2 if workers._can_fork() else 1)


def _read_json_object(path, kind: str) -> dict:
    """Parse an ASCII JSON file whose top level must be an object.

    A file of at least ``_SPLIT_CHARS`` bytes is walked one member at a
    time from a buffer off the malloc heap (see :func:`_walked`): each
    array field of ``kind`` is parsed into a float64 array one block of
    rows at a time, each block's pages released as it is done. Its
    matrices are parsed on two CPUs where forking is safe, and by this
    process alone elsewhere (see :func:`_split_walk`). A smaller file, one
    the walk cannot take and one whose size changes while it is read are
    decoded whole for ``json.loads``, and their array fields converted
    after. So what this returns (an array field that does not convert stays
    as parsed) and every error it raises never depend on the path. Errors
    are those of ``json.loads`` on the file's text with its line endings
    kept, so their positions are offsets in the file.
    """
    arrays = _ARRAY_FIELDS[kind]
    try:
        with open(path, "rb") as file:
            size = os.fstat(file.fileno()).st_size
            walk = size >= max(_SPLIT_CHARS, 1) and hasattr(mmap, "MADV_DONTNEED")
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
    eta = doc["eta"]
    if not _is_number(eta, (int, float)):
        raise InputError("field 'eta' must be a number")
    try:
        eta = float(eta)
    except OverflowError as exc:  # an integer past the float range
        raise InputError("field 'eta' must be a number") from exc
    if not (eta > 0.0 and np.isfinite(eta)):
        raise InputError(f"field 'eta' must be positive and finite, got {eta}")
    h = _complex(arrays["h_re"], arrays["h_im"])
    a = _complex(arrays["a_re"], arrays["a_im"])
    return ProblemInstance(h=h, a=a, eta=eta)


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The bits of ``re + 1j * im``, built in one complex buffer: the same
    two ufuncs, and the addition commutes bit for bit. The expression
    allocates a temporary ``1j * im`` unless numpy's elision of temporaries
    (CPython builds that can inspect their call stack, arrays of 256 KiB or
    more) reuses it."""
    out = np.multiply(1j, im, out=np.empty(im.shape, np.complex128))
    return np.add(out, re, out=out)


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


# Numbers per block of rows that a matrix's text is encoded in, and that
# the reader decodes it in (_parsed_array). json's C encoder holds one str
# per number until it joins them, about 5x the text it returns, so a matrix
# encoded whole peaked at about 5x its text; a block of 2^14 numbers is
# about 0.4 MB of text. Decoding a block holds its text, its lists and its
# array, about 75 bytes a number, where a matrix decoded whole held its
# text and lists at once.
_BLOCK_NUMBERS = 2**14


def _matrix_pieces(matrix: list):
    """:func:`_matrix_text` of ``matrix`` in pieces, each made when it is
    asked for: the compact C encoding of blocks of rows of about
    ``_BLOCK_NUMBERS`` numbers, widened as the whole text is and joined by
    the row break that ``],[`` widens to."""
    rows = max(1, _BLOCK_NUMBERS // len(matrix[0]))
    yield "[\n  [\n   "
    for start in range(0, len(matrix), rows):
        text = _COMPACT.encode(matrix[start:start + rows])[2:-2]
        text = text.replace(",", ",\n   ").replace("],\n   [", "\n  ],\n  [\n   ")
        yield "\n  ],\n  [\n   " + text if start else text
    yield "\n  ]\n ]"


def _matrix_text(matrix: list) -> str:
    """A matrix as ``json.dumps(..., indent=1)`` lays it out as a member of
    a top-level object: the compact C encoding with every item break and
    then every row break widened. Numbers hold no ',' or ']'."""
    return "".join(_matrix_pieces(matrix))


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
    one piece of a matrix at a time. All but the matrices is encoded first
    (see :func:`_layout`), so a document that cannot be encoded raises
    before the file is opened; each piece of text is then written as
    :func:`_matrix_texts` hands it out, and dropped."""
    heads, matrices, tail = _layout(doc)
    with open(path, "wb") as file:
        for head, pieces in zip(heads, _matrix_texts(matrices)):
            file.write(head.encode("ascii"))
            for piece in pieces:
                file.write(piece.encode("ascii"))
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
    """The text of every matrix, in order, as an iterable of pieces made
    when they are asked for (:func:`_matrix_pieces`). With at least
    ``_SPLIT_NUMBERS`` numbers in all, two or more matrices and
    :func:`workers._can_fork`, a forked child encodes every other matrix
    while this process encodes the rest, and the whole texts are then
    handed out one at a time; if that fails in any way, this process
    encodes them all, so the text never depends on the split."""
    if (
        len(matrices) > 1
        and sum(len(row) for matrix in matrices for row in matrix) >= _SPLIT_NUMBERS
        and workers._can_fork()
    ):
        groups = [list(range(0, len(matrices), 2)), list(range(1, len(matrices), 2))]

        def valid(texts, group) -> bool:
            return (
                isinstance(texts, list)
                and len(texts) == len(group)
                and all(isinstance(text, str) for text in texts)
            )

        try:
            results = workers._run_groups(
                groups, lambda group: [_matrix_text(matrices[i]) for i in group], valid
            )
        except Exception:  # a failed split only costs time: encode serially below
            pass
        else:
            texts = dict(zip(groups[0] + groups[1], results[0] + results[1]))
            del results
            for i in range(len(matrices)):
                yield (texts.pop(i),)
            return
    for matrix in matrices:
        yield _matrix_pieces(matrix)


def solution_parts(path) -> tuple[np.ndarray, np.ndarray]:
    """The real and imaginary parts of a solution file's N x K matrix.

    Its ``w_re`` and ``w_im`` fields become float64 arrays while the file
    is parsed, so the nested lists of one field are freed before the next.
    """
    doc = _read_json_object(path, "solution")
    _require_fields(doc, "solution", ("n", "k", "w_re", "w_im"))
    n, k = _int_fields(doc, ("n", "k"))
    return _float_array(doc, "w_re", (n, k)), _float_array(doc, "w_im", (n, k))


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
