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
The writer encodes each matrix with json's compact C encoder one block of
rows of about ``_BLOCK_NUMBERS`` numbers at a time, from its lists or, for
a solution, from the float64 arrays ``w.real`` and ``w.imag``, and then
widens its separators to that layout; a document of any other shape goes
to ``json.dumps`` itself. Keys and scalars are encoded before the file is
opened, so a document that cannot be encoded leaves it untouched; each
block's text is then written as it is made. A document with at least
``_SPLIT_NUMBERS`` numbers in its matrices is cut in two at a block of rows
when forking is safe (see :func:`workers._can_fork`): a forked child,
pinned to a second CPU, writes the second half to a temporary file that is
then copied in a window at a time (see :func:`_split_write`); a child that
fails leaves this process to write that half, and the bytes never depend
on the split.

The reader decodes a file of fewer than ``_SPLIT_CHARS`` bytes whole for
``json.loads``. It reads a larger one through a window of
``_WINDOW_BYTES``, an anonymous private mmap off the malloc heap (a map of
the file would let another process that shrinks it kill this one with
SIGBUS), so no process holds the whole file. A first pass walks the file
one member at a time, decoding keys and scalars and finding where each
array field (``h_re``, ``h_im``, ``a_re``, ``a_im``; ``w_re``, ``w_im`` in
solution files) ends. A second pass reads each of those again one block of
rows at a time and decodes it straight into its float64 array, so a read
holds one window, or one block of rows where that is longer, and that
block's lists. When forking is safe, a forked child parses every other
matrix (see :func:`_split_walk`); when it is not, this process parses them
alone, which keeps the read as lean on memory. A document the walk cannot
take, a child that fails, a short read and a file whose size, mtime or
inode change while it is read are decoded whole for ``json.loads``. What
the reader returns, and every error it raises, is what ``json.loads`` of
the file would give with those fields converted.

Trace files are CSV with header
``iter,objective,decrease,grad_norm,step_norm,flops,elapsed_ns``, LF line
endings and '.' decimal separator. Iteration timing is off by default, so
re-running a command with identical inputs yields byte-identical outputs.
"""

from __future__ import annotations

import codecs
import itertools
import json
import math
import mmap
import os
import re
import shutil
import tempfile
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
_PEEK = 64  # bytes first decoded for a key, or for a member that is not a matrix
_NUMBER_GOES_ON = ".0123456789Ee"  # bytes that could extend a number just decoded


class _Window:
    """Bytes ``[base, stop)`` of the open file ``fd``, held in one reused
    anonymous private buffer of ``_WINDOW_BYTES``, or of ``limit`` bytes if
    that is less (never a map of the file, which another process could
    shrink under the read), and read with ``os.preadv`` at most
    ``_WINDOW_BYTES`` at a time, never past ``limit``. Offsets are file
    offsets. Each method that needs a byte past ``stop`` moves the bytes
    from its ``keep`` offset (by default the one it looks at) to the front
    and reads on; the buffer grows, by one window, only when the bytes from
    ``keep`` fill it. A short read raises ValueError."""

    def __init__(self, fd: int, limit: int):
        self.fd, self.limit = fd, limit
        self.buf = mmap.mmap(-1, min(_WINDOW_BYTES, max(limit, 1)), flags=mmap.MAP_PRIVATE)
        self.base = self.stop = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.buf.close()

    def start(self, pos: int, limit: int) -> None:
        """Hold nothing, and read from ``pos`` up to ``limit`` next."""
        self.base = self.stop = pos
        self.limit = limit

    def _has(self, pos: int, keep: int) -> bool:
        """Whether the byte at ``pos`` (at least ``keep``) is held, reading
        on until it is; False from ``limit`` on."""
        if not self.base <= keep <= self.stop:
            self.start(keep, self.limit)
        while pos >= self.stop:
            if self.stop >= self.limit:
                return False
            kept = self.stop - keep
            if keep > self.base:
                self.buf.move(0, keep - self.base, kept)
                self.base = keep
            elif kept == len(self.buf):
                bigger = mmap.mmap(-1, kept + _WINDOW_BYTES, flags=mmap.MAP_PRIVATE)
                with memoryview(self.buf) as held:
                    bigger[:kept] = held
                self.buf.close()
                self.buf = bigger
            count = min(len(self.buf) - kept, _WINDOW_BYTES, self.limit - self.stop)
            with memoryview(self.buf) as view:
                if os.preadv(self.fd, [view[kept:kept + count]], self.stop) != count:
                    raise ValueError("the file came up short")
            self.stop += count
        return True

    def byte(self, pos: int, keep: int | None = None) -> bytes:
        """The byte at ``pos``; b"" from ``limit`` on."""
        if not self._has(pos, pos if keep is None else keep):
            return b""
        return self.buf[pos - self.base:pos - self.base + 1]

    def skip(self, pos: int, keep: int | None = None) -> int:
        """The first offset from ``pos`` that is not JSON whitespace, or
        ``limit``."""
        while self._has(pos, pos if keep is None else keep):
            pos = self.base + _JSON_WS.match(self.buf, pos - self.base, self.stop - self.base).end()
            if pos < self.stop:
                return pos
        return pos

    def find(self, sub: bytes, pos: int, keep: int | None = None) -> int:
        """The offset of the first byte ``sub`` from ``pos``, or -1."""
        while self._has(pos, pos if keep is None else keep):
            found = self.buf.find(sub, pos - self.base, self.stop - self.base)
            if found >= 0:
                return self.base + found
            pos = self.stop
        return -1

    def text(self, pos: int, stop: int) -> str:
        """Bytes ``[pos, stop)`` decoded as ASCII (ValueError where they are
        not); they must fit in the buffer."""
        self._has(stop - 1, pos)
        with memoryview(self.buf) as view:
            return codecs.ascii_decode(view[pos - self.base:stop - self.base])[0]


def _value(w: _Window, pos: int):
    """The JSON value at ``pos`` and the offset just past it.

    It is decoded from the first ``_PEEK`` bytes, or from spans four times
    as long each time the value runs past the last one: a value is taken
    once it ends before the span's last byte and the byte after it could
    not extend a number. At the end of the file, the span's error is raised
    (ValueError, also for bytes that are not ASCII); a value that does not
    fit in the window raises ValueError too."""
    room = pos + len(w.buf)
    stop = pos + _PEEK
    while True:
        stop = min(stop, w.limit, room)
        text = w.text(pos, stop)
        try:
            value, end = _DECODER.raw_decode(text)
            if stop == w.limit or (end < len(text) and text[end] not in _NUMBER_GOES_ON):
                return value, pos + end
        except ValueError:
            if stop == w.limit:
                raise
        if stop == room:
            raise ValueError("a value longer than the window")
        stop = pos + 4 * (stop - pos)


def _walk_object(w: _Window, parse_value) -> dict | None:
    """Parse the top-level JSON object of the file in ``w`` one member at
    a time, reading it once from start to end.

    Keys are decoded by :func:`_value`; ``parse_value(key, pos)`` returns
    the value of member ``key``, which starts at ``pos``, and the offset
    just past it, and raises ValueError or RecursionError where it cannot.
    Anything this walk does not follow (a top level that is not an object,
    a syntax error, a byte that is not ASCII, trailing data, nesting past
    the recursion limit, a key or value longer than the window, a short
    read) returns None, and the caller decodes the file whole for
    ``json.loads``. Otherwise every key stands where ``json.loads`` puts
    it, duplicates included: the last value wins in the first key's
    position.
    """
    try:
        pos = w.skip(0)
        if w.byte(pos) != b"{":
            return None
        doc = {}
        pos = w.skip(pos + 1)
        if w.byte(pos) == b"}":
            pos += 1
        else:
            while True:
                if w.byte(pos) != b'"':
                    return None
                key, pos = _value(w, pos)
                pos = w.skip(pos)
                if w.byte(pos) != b":":
                    return None
                doc[key], pos = parse_value(key, w.skip(pos + 1))
                pos = w.skip(pos)
                sep = w.byte(pos)
                pos += 1
                if sep == b"}":
                    break
                if sep != b",":
                    return None
                pos = w.skip(pos)
        if w.skip(pos) != w.limit:
            return None
    except (ValueError, RecursionError):
        return None
    return doc


def _matrix_end(w: _Window, pos: int) -> tuple[int, int]:
    """Where the matrix at ``pos`` ends if it is one, just past the first
    ']' that follows another ']' and JSON whitespace, and the number of ']'
    found up to there, its rows if it is a matrix; (-1, that number) if no
    ']' does."""
    rows, close = 0, w.find(b"]", pos)
    while close >= 0:
        rows += 1
        after = w.skip(close + 1)
        if w.byte(after) == b"]":
            return after + 1, rows
        close = w.find(b"]", after)
    return -1, rows


def _converted(value):
    """``value`` as a float64 array, or as it is if it does not convert
    (:func:`_float_array` then reports it by field name)."""
    try:
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        return value


def _row_blocks(w: _Window, start: int, end: int):
    """Read the matrix at ``start``, predicted to end at ``end``, and yield
    ``(first, stop, rows)`` for each block of rows once the window holds
    bytes ``[first, stop)``: ``rows`` rows, about ``_BLOCK_NUMBERS``
    numbers as the first row's commas count them. Rows must be joined by
    ',' and JSON whitespace; a row runs from a '[' to the next ']'; the
    last one must be followed, past JSON whitespace, by the matrix's own
    ']' at ``end``. Raises ValueError where that does not hold."""
    w.start(start, end)
    per, pos = 0, w.skip(start + 1)
    while True:
        first, rows = pos, 0
        while True:
            close = w.find(b"]", pos, first) if w.byte(pos, first) == b"[" else -1
            if close < 0:
                raise ValueError("not a row")
            if not per:
                per = max(1, _BLOCK_NUMBERS // (w.text(pos, close).count(",") + 1))
            rows += 1
            pos = w.skip(close + 1, first)
            more = w.byte(pos, first) == b","
            if not more or rows == per:
                break
            pos = w.skip(pos + 1, first)
        yield first, close + 1, rows
        if not more:
            break
        pos = w.skip(pos + 1)
    if w.byte(pos) != b"]" or pos + 1 != end:
        raise ValueError("the rows do not end the matrix")


def _parsed_rows(w: _Window, first: int, stop: int, rows: int) -> np.ndarray:
    """The block of ``rows`` rows at ``[first, stop)``, held by ``w``, as a
    float64 array: that text decoded by ``raw_decode`` between '[' and ']';
    the text and lists are freed on return. Raises ValueError unless it is
    that many rows of equal, non-zero length."""
    text = "[" + w.text(first, stop) + "]"
    value, used = _DECODER.raw_decode(text)
    block = np.asarray(value, dtype=np.float64)
    if used != len(text) or block.ndim != 2 or len(block) != rows or not block.size:
        raise ValueError("not a block of rows of numbers")
    return block


def _parsed_array(w: _Window, start: int, end: int, rows: int, empty=np.empty):
    """The matrix of ``rows`` rows at ``start``, predicted to end at
    ``end``, as a float64 array made by ``empty(shape)``, and ``end``. It is
    read and decoded one block of rows at a time (:func:`_row_blocks`),
    each assigned into the array before the next is read, so the parse
    holds one block's text and lists at a time. Raises ValueError (or what
    decoding or converting a row raises) where the matrix is not ``rows``
    equal rows of numbers that end at ``end``; the file is then decoded
    whole for ``json.loads``."""
    array, row = None, 0
    for first, stop, count in _row_blocks(w, start, end):
        block = _parsed_rows(w, first, stop, count)
        if array is None:
            if rows * block.shape[1] > (end - start) // 2:  # L characters hold <= L / 2 numbers
                raise ValueError("more numbers than the text can hold")
            array = empty((rows, block.shape[1]))
        if block.shape[1] != array.shape[1]:  # assignment would broadcast a row of one
            raise ValueError("rows of different lengths")
        if row + count > rows:
            raise ValueError("more rows than predicted")
        array[row:row + count] = block
        row += count
    if row != rows:
        raise ValueError("fewer rows than predicted")
    return array, end


def _split_walk(w: _Window, arrays, processes: int) -> dict | None:
    """:func:`_walk_object`'s result with the matrices parsed by one or
    two ``processes``, or None if the walk cannot take the file or fails in
    any way.

    The walk reads the file once through the window: it decodes keys and
    scalars but only predicts where each member named in ``arrays`` that
    opens with '[' ends and how many rows it has (:func:`_matrix_end`); a
    member named in ``arrays`` that does not becomes a float64 array if it
    converts. The matrices are then parsed through
    :func:`workers._run_groups`: this process parses the first group, and
    with two processes and two matrices or more, a forked child parses
    every other matrix straight into its slot of an anonymous shared mmap
    and sends back its shape and end. Each process reads only its own
    matrices, one block of rows at a time into the window it holds
    (:func:`_parsed_array`). The result stands only if every matrix
    converts and ends where predicted; the child's arrays are then views of
    the shared map, adopted without a copy. Duplicate keys, a 3-D or ragged
    array or a string holding ']' in a matrix all return None."""
    keys, members = set(), []  # members: (key, start, end, rows)

    def predict(key: str, pos: int):
        if key in keys:
            raise ValueError("duplicate key")  # json.loads keeps the first key's position
        keys.add(key)
        if key not in arrays or w.byte(pos) != b"[":
            value, end = _value(w, pos)
            return (_converted(value) if key in arrays else value), end
        end, rows = _matrix_end(w, pos)
        if end < 0:
            raise ValueError("no matrix end")
        members.append((key, pos, end, rows))
        return None, end

    doc = _walk_object(w, predict)
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
        parsed = []
        for i in group:
            _, start, end, rows = members[i]
            if i in offsets:  # in the child: parse into the shared map, send the shape
                array, stop = _parsed_array(w, start, end, rows, lambda shape, i=i: slot(i, shape))
                parsed.append((array.shape, stop))
            else:
                parsed.append(_parsed_array(w, start, end, rows))
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
# one-process walk by the median of 61 interleaved reads, in 4 runs through
# the window: 0.88-1.01x as long at 0.97 MB, 0.69-0.92x at 1.21 MB,
# 0.69-1.30x at 1.45 MB, 0.77-1.09x at 1.70 MB, 0.70-1.06x at 1.94 MB,
# 0.67-0.93x at 2.18 MB and 0.65-1.04x at 2.42 MB: no size where it turns,
# so the gate stays where the whole-file buffer put it (there the split
# lost 6 of 7 runs at 0.48 MB and won every run from 1.94 MB on). The
# one-process walk reads no faster than json.loads (1.05-1.10x as long from
# 0.97 to 2.42 MB): what it saves is memory. Under tracemalloc a 3.8 MB
# instance read whole for json.loads peaks at 2.45x the file size, walked
# by this process alone at 0.74x and on two CPUs at 0.56x (the arrays and
# the complex H and A; the window is an anonymous map, which the trace does
# not see); below this size that saving is at most about 3.3 MB.
_SPLIT_CHARS = 1_900_000


def _identity(stat: os.stat_result) -> tuple[int, int, int]:
    """What tells a file apart from a rewrite of it: size, mtime, inode."""
    return stat.st_size, stat.st_mtime_ns, stat.st_ino


def _walked(file, stat: os.stat_result, arrays) -> dict | None:
    """The walk of the open ``file``, whose ``os.fstat`` was ``stat``,
    through one window (see :class:`_Window`): :func:`_split_walk` on two
    processes when :func:`workers._can_fork`, else on this one alone. None
    if the walk cannot take the file or the file is not what ``stat``
    described once every process has read it."""
    fd = file.fileno()
    with _Window(fd, stat.st_size) as w:
        doc = _split_walk(w, arrays, 2 if workers._can_fork() else 1)
    if doc is None or _identity(os.fstat(fd)) != _identity(stat):
        return None
    return doc


def _read_json_object(path, kind: str) -> dict:
    """Parse an ASCII JSON file whose top level must be an object.

    A file of at least ``_SPLIT_CHARS`` bytes is read twice through a
    window of ``_WINDOW_BYTES`` (see :func:`_walked`): once to walk its
    members, and once more one block of rows at a time to parse each array
    field of ``kind`` into a float64 array. Its matrices are parsed on two
    CPUs where forking is safe, and by this process alone elsewhere (see
    :func:`_split_walk`). A smaller file, one the walk cannot take and one
    that changes while it is read are decoded whole for ``json.loads``, and
    their array fields converted after. So what this returns (an array
    field that does not convert stays as parsed) and every error it raises
    never depend on the path. Errors are those of ``json.loads`` on the
    file's text with its line endings kept, so their positions are offsets
    in the file.
    """
    arrays = _ARRAY_FIELDS[kind]
    try:
        with open(path, "rb") as file:
            stat = os.fstat(file.fileno())
            walk = stat.st_size >= max(_SPLIT_CHARS, 1) and hasattr(os, "preadv")
            doc = _walked(file, stat, arrays) if walk else None
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
    :func:`_write_json` from the float64 views ``w.real`` and ``w.imag``
    one block of rows at a time (as their lists, where they are not
    float64 matrices)."""
    w = np.asarray(w)
    doc = {"n": w.shape[0], "k": w.shape[1]}
    for key, part in (("w_re", w.real), ("w_im", w.imag)):
        doc[key] = part if _is_matrix(part) else part.tolist()
    _write_json(doc, path)


_COMPACT = json.JSONEncoder(separators=(",", ":"))  # served by json's C encoder
_SCALAR_TYPES = (str, int, float, bool, type(None))


def _is_matrix(value) -> bool:
    """Whether ``value`` is a non-empty 2-D float64 array, or a non-empty
    list of non-empty lists of floats. The types are exact, so no repr can
    differ between json's encoders (an array's rows become lists of floats),
    and there are no ints, one of which could be too long to encode."""
    if type(value) is np.ndarray:
        return value.ndim == 2 and value.size > 0 and value.dtype == np.float64
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
# Bytes of a file that the reader holds at a time (see _Window), unless one
# block of rows is longer, and that a write copies at a time from the
# child's file (see _split_write).
_WINDOW_BYTES = 2**20


def _layout(doc) -> tuple[list[str], list, str]:
    """``(heads, matrices, tail)``: ``json.dumps(doc, indent=1) + "\\n"`` is
    ``heads[0]``, the text of ``matrices[0]`` as that member of a top-level
    object, ``heads[1]`` and so on, then ``tail``, raising what
    ``json.dumps`` raises. A document other than an object of str keys and
    scalar or matrix values (see :func:`_is_matrix`) is all tail."""
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


def _parts(heads: list[str], matrices: list, tail: str) -> list:
    """The document of :func:`_layout` as parts in file order: each head and
    the tail as text, each matrix as ``(matrix, start, stop)`` for its
    blocks of rows of about ``_BLOCK_NUMBERS`` numbers, as the first row
    counts them."""
    parts = []
    for head, matrix in zip(heads, matrices):
        parts.append(head)
        rows = max(1, _BLOCK_NUMBERS // len(matrix[0]))
        parts.extend((matrix, start, min(start + rows, len(matrix)))
                     for start in range(0, len(matrix), rows))
    parts.append(tail)
    return parts


def _numbers(part) -> int:
    """The numbers in a part of :func:`_parts`."""
    if type(part) is str:
        return 0
    matrix, start, stop = part
    if type(matrix) is np.ndarray:
        return (stop - start) * matrix.shape[1]
    return sum(map(len, matrix[start:stop]))


def _part_text(part) -> str:
    """The text of a part of :func:`_parts`. A block of rows is laid out as
    ``json.dumps(..., indent=1)`` lays out a matrix member of a top-level
    object: the compact C encoding of the rows' lists with every item break
    and then every row break widened, after the matrix's opening or the
    break from the row before, and before its closing if it is the last.
    Numbers hold no ',' or ']'."""
    if type(part) is str:
        return part
    matrix, start, stop = part
    rows = matrix[start:stop]
    text = _COMPACT.encode(rows.tolist() if type(rows) is np.ndarray else rows)[2:-2]
    text = text.replace(",", ",\n   ").replace("],\n   [", "\n  ],\n  [\n   ")
    text = ("\n  ],\n  [\n   " if start else "[\n  [\n   ") + text
    return text + "\n  ]\n ]" if stop == len(matrix) else text


def _write_parts(file, parts: list) -> int:
    """Write the text of each part to ``file`` as it is made, and drop it;
    the bytes written."""
    return sum(file.write(_part_text(part).encode("ascii")) for part in parts)


def _write_json(doc, path) -> None:
    """Write the bytes of ``json.dumps(doc, indent=1) + "\\n"`` to ``path``,
    one block of rows at a time. All but the matrices is encoded first
    (see :func:`_layout`), so a document that cannot be encoded raises
    before the file is opened; the parts are then written in order, on two
    CPUs where :func:`_split_write` finds it worthwhile."""
    parts = _parts(*_layout(doc))
    with open(path, "wb") as file:
        _write_parts(file, _split_write(file, parts, path))


# A document with at least this many numbers in its matrices is written
# on two CPUs (see _split_write). Fork, pinning, the temporary file and the
# reaping cost about 5 ms, and the child's half of the text is copied once
# more; a serial write takes 0.65-0.75 us per number on a shared 2-vCPU
# x86-64 VM. Two N x 256 solution matrices there, 41 interleaved calls per
# size in 2 runs, split against serial by median: 1.81-2.11x as long at 5,120
# numbers, 1.23-1.37x at 10,240, 1.11-1.13x at 15,360, 1.01-1.11x at 20,480,
# 0.93-0.99x at 25,600, 0.87-0.90x at 30,720 and 0.75-0.88x from 35,840 to
# 65,536. The gate is the smallest size at which the split won both runs.
_SPLIT_NUMBERS = 25_600


def _split_write(file, parts: list, path) -> list:
    """Write the first parts to ``file`` on two CPUs where worthwhile; the
    parts still to write.

    With at least ``_SPLIT_NUMBERS`` numbers, two blocks of rows or more and
    :func:`workers._can_fork`, the parts are cut at the block that halves
    their numbers most evenly. A forked child writes the parts after the
    cut to an unnamed temporary file next to ``path``, while this process
    writes those before it to ``file``; the child's file is then copied
    into ``file`` ``_WINDOW_BYTES`` at a time, so neither process holds more
    than a block's text or that much of the child's. If the child fails in any way, the parts after the cut
    are returned for this process to write, so the bytes never depend on
    the split; an error of this process's own writing is raised."""
    numbers = [_numbers(part) for part in parts]
    total = sum(numbers)
    if total < _SPLIT_NUMBERS or not workers._can_fork():
        return parts
    cuts = [(max(done, total - done), i)
            for i, done in enumerate(itertools.accumulate(numbers, initial=0))
            if 0 < done < total]
    if not cuts:
        return parts
    cut = min(cuts)[1]
    try:
        spill = tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(path)))
    except OSError:
        return parts
    with spill:
        groups, done = [list(range(cut)), list(range(cut, len(parts)))], []

        def run_group(group: list[int]):
            if group[0]:  # in the child
                with open(spill.fileno(), "wb", closefd=False) as out:
                    return _write_parts(out, parts[cut:])
            done.append(_write_parts(file, parts[:cut]))

        def valid(sent, group) -> bool:
            return type(sent) is int and sent == os.fstat(spill.fileno()).st_size

        try:
            workers._run_groups(groups, run_group, valid)
        except Exception:
            if not done:
                raise
            return parts[cut:]  # the child failed: write its parts here
        spill.seek(0)
        shutil.copyfileobj(spill, file, _WINDOW_BYTES)
    return []


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
