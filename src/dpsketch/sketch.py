"""Seeded Gaussian sketchers: the projection Omega, regenerated on demand.

The projection matrix is a pure function of (seed, r, m): raw 64-bit words
come from a Philox counter stream and are mapped through Box-Muller, column
by column. Any column range can therefore be regenerated bit-exactly
without storing the whole matrix: no sketcher keeps any of it.
Normals are generated from one Philox stream in sub-blocks of 16,384
words, each mapped straight into its slice of the output, and a block of
columns is a view of those normals. ``column_block`` fills one request
into a fresh array. A tiled pass (``project_blocks``, LRA ingest and
``finalize``) walks its range with ``_tiles``: one stream, continued from
tile to tile, and one buffer of one tile, refilled for each, so a pass
holds a transient of one tile whatever its length. ``_project_stream``
is the walk of a row stream: it reads the stream's chunks as its tiles
reach them, so the tiles, and every product, do not depend on the
chunking; ``project_blocks`` is that walk over one chunk, and a multiply
or regression release walks its whole stream once. Every walk takes
tiles of ``per_tile(r) // 2`` columns (at least one). Where a release's
plan (``plan_release``) says so, a walk of two tiles or more whose
``per_tile(r)`` is 2 or more generates on two threads: the caller and a
helper thread that the walk starts and joins. Tiles go, in column order,
to whichever thread is free, each generated on that thread's own Philox
stream, advanced to the tile, into one of three buffers; the caller
yields them in column order with the same bits. Everywhere else the walk
is serial and starts no thread. Box-Muller
evaluates a sub-block's pairs in the order of their angles' top bits,
which keeps libm's branches predictable. Each pair moves as one 16-byte
item: its two words are gathered together in that order, and its cos and
sin normals are scattered together back to the pair's own slot. Each
normal is the same call on the same double wherever it is computed, so
any order that is scattered back changes no bit. The normals are
bit-exact under any split of a range into requests, tiles, sub-blocks or
threads. Products with them (sketches and releases) are bit-reproducible
under the same BLAS build and BLAS thread count: the tile width, which
sets how a product's terms are summed, is one on every walk path, so at
one BLAS thread a release's bytes depend on neither the usable CPU count
nor the walk path; a release's report records both, and its BLAS count
and build (``execution``). A sketch Omega @ X is a plain r x c array, so
turnstile updates and shards of a stream add entrywise. Every mechanism
retains its sketches only and regenerates its projection where it reads
it.
"""
from __future__ import annotations

import contextlib
import contextvars
import functools
import os
import sys
import threading
from collections.abc import Callable, Iterator
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, ContractViolationError, NumericFailureError, ParameterDomainError

# Bits in a seed: the width of Philox's key, and of a release's secret.
SEED_BITS = 128

# Float64 entry budget (1 GiB) of one column_block request or one tile of
# a walk, the only cap. A walk's tile holds max(TILE_ENTRIES // 2, r)
# entries at most (r only when one column exceeds that), in its one buffer
# or in each of a two-thread walk's three, which never walks one-column
# tiles.
MAX_SKETCH_ENTRIES = 1 << 27

# Float64 entries (512 KiB) per piece of a range. Block ingest, block
# queries and the CLI's chunked readers all walk their ranges in pieces of
# this size (see per_tile). A projection walk generates tiles of half of
# it on every path, into one buffer (three on two threads), so a pass holds
# half of it at a time serially and one and a half of it on two threads.
TILE_ENTRIES = 1 << 16

# Raw words per generation sub-block (128 KiB), on every walk path. A
# request is filled from one Philox stream in pieces of this size; any even
# split gives the same normals. A piece costs about 20 short numpy calls,
# each of which releases and retakes the GIL, so small pieces keep two
# generating threads handing the GIL back and forth: on a 2-core Xeon, two
# threads filling 32,768-word tiles ran 1.37x one thread at 8,192 words and
# 1.77x at 16,384. A piece's Box-Muller temporaries are about 385 KiB.
_SUB_BLOCK_WORDS = 1 << 14


def per_tile(size: int) -> int:
    """How many items of ``size`` float64 entries (projection columns of r
    rows, or input rows that wide) fit in TILE_ENTRIES; at least one."""
    return max(1, TILE_ENTRIES // max(size, 1))


def _philox(seed: int, offset: int) -> np.random.Philox:
    # Philox advances in 256-bit counter blocks of four 64-bit words, so
    # offsets must be block-aligned; column strides are kept multiples of 4.
    # A numpy integer offset (a start index such as np.int64(3) times the
    # stride) is made a Python int first: advance masks it with a 128-bit
    # Python int, which a numpy integer cannot take.
    offset = int(offset)
    if offset % 4:
        raise ContractViolationError(f"word offset {offset} is not block-aligned")
    bg = np.random.Philox(key=seed)
    if offset:
        bg.advance(offset // 4)
    return bg


def _raw_words(seed: int, offset: int, count: int) -> np.ndarray:
    return _philox(seed, offset).random_raw(count)


# Byte offset, within a pair of 64-bit words, of the angle word's top byte:
# (w >> 11) >> 45 is w >> 56, so the byte view reads the ordering key of a
# pair without any arithmetic.
_ANGLE_TOP_BYTE = 15 if sys.byteorder == "little" else 8


def _pair_order(words: np.ndarray) -> np.ndarray:
    # The order in which Box-Muller visits the word pairs: by their angle's
    # top 8 bits (a radix sort of uint8 keys), read before the words shift.
    return np.argsort(words.view(np.uint8)[_ANGLE_TOP_BYTE::16], kind="stable")


def _box_muller(words: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # One normal per 64-bit word, written into ``out`` (a new array when not
    # given); words length must be even. Each word pair maps to its own cos
    # and sin normal, so any even split of the words gives the same normals.
    # log, sqrt, cos and sin run on contiguous arrays only: numpy may pick
    # other loops for strided ones, and those need not round alike.
    # Consumes ``words``: they are shifted in place and then overwritten, so
    # pass fresh, contiguous ones.
    if out is None:
        out = np.empty(words.size)
    # The pairs are visited in the order of their angle's top 8 bits, and
    # each pair moves as one 16-byte item: one gather of (radius word, angle
    # word) in that order, one scatter of (cos normal, sin normal) back to
    # the pair's own slot. Every normal is the same elementwise call on the
    # same double, and radius * trig is commutative, so any order that is
    # scattered back gives the same bits. The order changes the speed
    # where numpy's cos and sin are libm's scalar ones: those branch on the
    # angle's range, quadrant and sign, and sorted angles make the branches
    # come in long, predictable runs.
    order = _pair_order(words)
    np.right_shift(words, np.uint64(11), out=words)
    pairs = words.view(np.complex128)[order]
    # The shifted words are below 2**53, so their int64 view holds the same
    # values and casts to float64 exactly, and faster than uint64 does.
    # u1 = (b0 + 1) * 2**-53 and the angle is 2pi * b1 * 2**-53: scaling by
    # 2**-53 is exact, so one product rounds the angle as (b1 * 2**-53) * 2pi.
    # Once gathered, the words are spent: their buffer takes the radii and
    # the angles, contiguous, and the pair array later takes the normals.
    bits = pairs.view(np.int64)
    spent = words.view(np.float64)
    half = words.size // 2
    radius = np.add(bits[0::2], 1.0, out=spent[:half])
    radius *= 2.0**-53
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle = np.multiply(bits[1::2], 2.0 * np.pi * 2.0**-53, out=spent[half:])
    normals = pairs.view(np.float64)
    trig = np.cos(angle)
    np.multiply(trig, radius, out=normals[0::2])
    np.sin(angle, out=trig)
    np.multiply(trig, radius, out=normals[1::2])
    out.view(np.complex128)[order] = pairs
    return out


def _fill(bg: np.random.Philox, out: np.ndarray) -> np.ndarray:
    # The next out.size words of the stream bg, mapped into out sub-block by
    # sub-block; the stream is left where the words end, so the next fill
    # continues it.
    for s0 in range(0, out.size, _SUB_BLOCK_WORDS):
        s1 = min(s0 + _SUB_BLOCK_WORDS, out.size)
        _box_muller(bg.random_raw(s1 - s0), out=out[s0:s1])
    return out


def _normals(seed: int, offset: int, count: int) -> np.ndarray:
    # Normals of words [offset, offset + count) of the seed's stream.
    return _fill(_philox(seed, offset), np.empty(count))


def _tile(
    sk: GaussianSketcher, bg: np.random.Philox, j0: int, j1: int, buf: np.ndarray
) -> np.ndarray:
    # Columns [j0, j1) of sk's projection, from the stream bg standing at
    # column j0, generated into the front of buf. Returns their r x (j1-j0)
    # view: column after column as Philox wrote them, padding dropped.
    words = _fill(bg, buf[: (j1 - j0) * sk._wpc])
    return words.reshape(j1 - j0, sk._wpc)[:, : sk.r].T


def _check_capacity(r: int, cols: int) -> None:
    if r * cols > MAX_SKETCH_ENTRIES:
        raise CapacityError(
            f"projection block of {r}x{cols} exceeds the {MAX_SKETCH_ENTRIES} entry budget"
        )


def _chunk_rows(blocks) -> int:
    # The row count of one chunk of a walk: 2-D blocks of as many rows each.
    if not blocks:
        raise ContractViolationError("no blocks to project")
    dims = [getattr(x, "ndim", None) for x in blocks]
    if any(dim != 2 for dim in dims):
        raise ContractViolationError(f"blocks must be 2-D arrays, got ndim {dims}")
    rows = [x.shape[0] for x in blocks]
    if len(set(rows)) > 1:
        raise ContractViolationError(f"row counts differ: {rows}")
    return rows[0]


def _project_stream(sk: GaussianSketcher, j0: int, j1: int, chunks) -> list[np.ndarray]:
    """[omega[:, j0:j1] @ x for each stream x], in one walk over columns [j0, j1).

    ``chunks`` yields the streams' rows in order, from the row that meets
    column j0 to the one that meets column j1 - 1: each chunk holds one 2-D
    block per stream, all of as many rows, and the streams keep the first
    chunk's widths. The walk reads a chunk when its tiles reach it, and
    checks it then; it reads the first before it generates any tile. A
    tile multiplies views of the chunk it falls in, and a tile that a chunk
    boundary cuts multiplies a carry: its own rows, copied out of the
    chunks it spans, so the walk carries at most one tile of rows and holds
    no chunk it has read to the end. The tiles are the same whatever the
    chunks, and so is every product, bit for bit.
    """
    if not (0 <= j0 <= j1 <= sk.m):
        raise ContractViolationError(f"column range [{j0}, {j1}) outside [0, {sk.m})")
    chunks = iter(chunks)
    # The chunk being read, its next row, its row count and the column past
    # the rows read so far; the results, made at the first chunk.
    head, at, rows, end = (), 0, 0, j0
    outs = []

    def read() -> None:
        nonlocal head, at, rows, end
        head = ()  # the chunk read to the end goes before the next comes
        blocks = next(chunks, None)
        if blocks is None:
            raise ContractViolationError(f"chunks end at column {end}, expected {j1}")
        head, at, rows = blocks, 0, _chunk_rows(blocks)
        end += rows
        widths = [x.shape[1] for x in blocks]
        if not outs:
            outs.extend(np.zeros((sk.r, width)) for width in widths)
        elif widths != [out.shape[1] for out in outs]:
            raise ContractViolationError(
                f"block widths {widths}, expected {[out.shape[1] for out in outs]}"
            )

    def take(k: int) -> list[np.ndarray]:
        # The next k rows of every stream.
        nonlocal at
        while at == rows:
            read()
        if at + k <= rows:
            at += k
            return [x[at - k : at] for x in head]
        carry = [np.empty((k, x.shape[1])) for x in head]
        done = 0
        while done < k:
            while at == rows:
                read()
            n = min(k - done, rows - at)
            for i, c in enumerate(carry):
                c[done : done + n] = head[i][at : at + n]
            done, at = done + n, at + n
        return carry

    read()
    with contextlib.closing(_tiles(sk, j0, j1)) as walk:
        for t0, t1, tile in walk:
            for out, x in zip(outs, take(t1 - t0)):
                out += tile @ x
            del x  # a view of a chunk may not keep it past this tile
    if at < rows or any(_chunk_rows(blocks) for blocks in chunks):
        raise ContractViolationError(f"chunks run past column {j1}")
    return outs


@functools.cache
def _blas_thread_fns() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """(get, set) of the thread count of numpy's bundled OpenBLAS, found by
    its own entry points; None where numpy bundles no OpenBLAS."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "lib*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "openblas_{}_num_threads"):
            get = getattr(lib, name.format("get"), None)
            set_ = getattr(lib, name.format("set"), None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _blas_build() -> str:
    """numpy's BLAS build, name and version, as numpy was configured."""
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


class ReleasePlan(NamedTuple):
    """How one CLI release runs, from ``plan_release``."""

    cpus: int  # the usable CPUs it was made for
    one_blas: bool  # BLAS on one thread; else on the count it finds
    walk: str  # "serial" or "two-thread"
    csv_reader: str  # "serial" or "forked"
    chunk_rows: int  # rows of each input a chunk
    tile_cols: int  # columns a walk tile


def plan_release(command: str, fmt: str, rows: int, widths: tuple[int, ...], r: int,
                 cpus: int, blas: bool, fork: bool) -> ReleasePlan:
    """The plan of a ``command`` release over inputs of ``rows`` rows and
    ``widths`` columns in ``fmt``, with an r-row projection, where the
    process may use ``cpus`` CPUs, ``blas`` says numpy's OpenBLAS thread
    entry points exist and ``fork`` that a CSV parser may be forked. Pure:

    | plan       | where, and only with cpus == 2 and blas                  | else   |
    |------------|----------------------------------------------------------|--------|
    | walk       | two-thread: multiply or regress, half = per_tile(r) // 2 | serial |
    |            | >= 1 and min(rows, per_tile(max(widths))) > 2 * half     |        |
    | csv_reader | forked: lra, fmt csv, rows > chunk_rows and fork         | serial |
    | one_blas   | True: the walk is two-thread or the reader forked        | False  |

    A chunk holds one tile of the widest input's rows; four for ``lra``,
    which regenerates its data block per chunk. A two-thread walk pays
    where generation is most of a release, a forked reader where parsing
    is; BLAS's idle second thread would spin on the second CPU. README,
    "Execution plan", has the measurements; only 2 CPUs were measured.
    """
    chunk = per_tile(max(widths)) * (4 if command == "lra" else 1)
    half = per_tile(r) // 2
    pinned = cpus == 2 and blas
    split = (pinned and command != "lra" and half > 0
             and min(rows, per_tile(max(widths))) > 2 * half)
    forked = pinned and command == "lra" and fmt == "csv" and rows > chunk and fork
    return ReleasePlan(cpus, split or forked, "two-thread" if split else "serial",
                       "forked" if forked else "serial", chunk, max(half, 1))


# Whether this context's walks generate on two threads. Only _plan_scope
# sets it, for the context that entered it; a new thread starts serial.
_split_walks: contextvars.ContextVar[bool] = contextvars.ContextVar("split_walks", default=False)

# How many plan scopes hold BLAS on one thread, and the count the first
# of them found, which the last one to close gives back.
_blas_pins = [0, None]
_blas_lock = threading.Lock()


@contextlib.contextmanager
def _plan_scope(plan: ReleasePlan):
    """Apply ``plan`` until the scope ends, whatever happens inside: BLAS
    on one thread where it says so and, where the count went to one, this
    context's walks and CSV reader as it says. Yields the ``execution``
    record of what ran; a reader whose fork fails marks itself serial."""
    fns = _blas_thread_fns()
    pin = plan.one_blas and fns is not None
    if pin:
        with _blas_lock:
            if not _blas_pins[0]:
                _blas_pins[1] = fns[0]()
                fns[1](1)
            _blas_pins[0] += 1
    one = pin and fns[0]() == 1
    token = _split_walks.set(one and plan.walk == "two-thread")
    try:
        yield {"usable_cpus": plan.cpus, "blas_build": _blas_build(),
               "blas_threads": fns[0]() if fns else None,
               "walk": plan.walk if one else "serial",
               "csv_reader": plan.csv_reader if one else "serial",
               "walk_tile_columns": plan.tile_cols}
    finally:
        _split_walks.reset(token)
        if pin:
            with _blas_lock:
                _blas_pins[0] -= 1
                if not _blas_pins[0]:
                    fns[1](_blas_pins[1])


def _tiles(sk: GaussianSketcher, j0: int, j1: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield (t0, t1, tile) over columns [j0, j1) of sk's projection, in
    column order, in tiles of ``per_tile(r) // 2`` columns (one, where
    that is none) on every walk path.

    One Philox stream per generating thread is opened for the walk and
    only moved forward, and every tile is generated into one of the walk's
    buffers (one serially, three on two threads): a tile is valid only
    until the next one is yielded. A tile over the cap (one column, when
    r alone exceeds it) is refused before anything is generated. Where
    this context's plan splits walks (``_plan_scope``), ``per_tile(r)`` is
    two columns or more and the range spans two tiles or more,
    ``_split_tiles`` generates the same tiles on two threads, each tile on
    whichever thread is free to claim it, so the path decides which thread
    generates a tile, never its width or bits.
    """
    half = per_tile(sk.r) // 2
    width = min(max(half, 1), j1 - j0)
    if width <= 0:
        return
    _check_capacity(sk.r, width)
    if _split_walks.get() and half and j1 - j0 > width:
        yield from _split_tiles(sk, j0, j1, width)
        return
    bg = _philox(sk.seed, j0 * sk._wpc)
    buf = np.empty(width * sk._wpc)
    for t0 in range(j0, j1, width):
        t1 = min(t0 + width, j1)
        yield t0, t1, _tile(sk, bg, t0, t1, buf)


def _split_tiles(
    sk: GaussianSketcher, j0: int, j1: int, width: int
) -> Iterator[tuple[int, int, np.ndarray]]:
    # The two-thread walk of two tiles or more. Tiles are claimed in column
    # order from one counter, under one condition, each into one of three
    # buffers: the caller claims tile 0 and a helper thread of the walk's
    # own tile 1, and the helper then claims the next tile whenever a buffer
    # is free. The caller yields the tiles in order: its next one once it is
    # ready, and until then it claims and generates the next unclaimed tile
    # itself, waiting only when every tile or buffer is claimed. A tile's
    # buffer is freed when the caller is back from it. Each thread opens one
    # Philox stream at j0 and advances it to each tile it claims; Philox is
    # counter-based, so every tile holds the words of its own columns
    # whichever thread draws them (Salmon et al., SC 2011).
    starts = range(j0, j1, width)
    n = len(starts)
    skip = width * sk._wpc // 4  # counter blocks of one tile
    free = [np.empty(width * sk._wpc) for _ in range(3)]
    bufs = {0: free.pop(), 1: free.pop()}  # each claimed tile's buffer
    done = [None] * n  # each tile once generated, or what the helper raised
    claimed, stop = 2, False
    cond = threading.Condition()

    def claim() -> int:
        # The next unclaimed tile, with a free buffer; under cond.
        nonlocal claimed
        claimed += 1
        bufs[claimed - 1] = free.pop()
        return claimed - 1

    def generator() -> Callable[[int], np.ndarray]:
        # This thread's own generation: tile i from its stream, which only
        # moves forward.
        bg, at = _philox(sk.seed, j0 * sk._wpc), 0

        def generate(i: int) -> np.ndarray:
            nonlocal at
            if i > at:
                bg.advance((i - at) * skip)
            at = i + 1
            return _tile(sk, bg, starts[i], min(starts[i] + width, j1), bufs[i])

        return generate

    def serve() -> None:
        # The helper: generates tile 1, then each tile it claims, until the
        # walk stops, every tile is claimed or a tile raises, which the
        # walk raises at that tile.
        generate, i = generator(), 1
        while True:
            try:
                tile = generate(i)
            except BaseException as exc:
                tile = exc
            with cond:
                done[i] = tile
                cond.notify()
                if isinstance(tile, BaseException):
                    return
                cond.wait_for(lambda: stop or claimed == n or free)
                if stop or claimed == n:
                    return
                i = claim()

    helper = threading.Thread(target=serve, name="dpsketch-tiles", daemon=True)
    helper.start()
    try:
        generate = generator()
        done[0] = generate(0)
        for i, t0 in enumerate(starts):
            while done[i] is None:
                with cond:
                    cond.wait_for(lambda: done[i] is not None or (claimed < n and free))
                    k = claim() if done[i] is None else None
                if k is not None:
                    done[k] = generate(k)
            if isinstance(done[i], BaseException):
                raise done[i]
            yield t0, min(t0 + width, j1), done[i]
            with cond:
                # Tile i is released: its buffer is free.
                done[i] = None
                free.append(bufs.pop(i))
                cond.notify()
    finally:
        # However the walk ends (to its last tile, closed or raised), its
        # helper finishes the tile it holds and stops, so no thread, tile
        # or buffer outlives the walk.
        with cond:
            stop = True
            cond.notify()
        helper.join()


# Known answers of the generation path itself: normals [i, i + 4) of one
# request from column 3 of an r = 1031 sketcher (1032 words a column) at
# seed 11, each computed by a scalar Box-Muller of its Philox words.
# Normals 8190-8193 straddle the boundary of 8,192-word sub-blocks, the
# size before 16,384, and 16382-16385 the first boundary of today's.
_GENERATION_SEED, _GENERATION_OFFSET = 11, 3 * 1032
_GENERATION_ANSWERS = {
    8190: (0.21258872969133344, -0.016356562183325325, 0.07166874535821129, -0.1503623450514315),
    16382: (0.37156922086013217, 1.5155587299706959, 1.9048494477295344, 1.050236379759291),
}


@functools.cache
def _self_test() -> None:
    """Map pinned Philox word blocks through Box-Muller, once per process."""
    # (seed, word offset, normals of its four words); 1e-13 absorbs libm ulps.
    for seed, offset, want in (
        (0, 0, (0.15853383451844166, 2.9828792826170734, -1.925691981917186, -0.8249255452762637)),
        (7, 4096, (0.7216767268470948, -1.2367826969507096, -0.4362659615331338, 0.16548749239334265)),
    ):
        if not np.allclose(_box_muller(_raw_words(seed, offset, 4)), want, rtol=0, atol=1e-13):
            raise NumericFailureError(f"generator known-answer self-test failed at seed {seed}")
    got = _normals(_GENERATION_SEED, _GENERATION_OFFSET, max(_GENERATION_ANSWERS) + 4)
    for i, want in _GENERATION_ANSWERS.items():
        if not np.allclose(got[i : i + 4], want, rtol=0, atol=1e-13):
            raise NumericFailureError("generator known-answer self-test failed across a sub-block")


class GaussianSketcher:
    """Seeded r x m standard-normal matrix with deterministic regeneration.

    The seed is Philox's whole 128-bit key, so a seed outside [0, 2**128)
    is refused. Columns are regenerated from the seed on demand and nothing
    is retained beyond the identity tuple; construction generates nothing.
    ``MAX_SKETCH_ENTRIES`` caps each ``column_block`` request and each tile
    of a ``project_blocks`` pass. The Philox + Box-Muller mapping is
    verified against known answers once per process, by the first
    construction.
    """

    # Never stored; kept only for perfbench/spans.py, which reads it after
    # every traced column_block call to count its normals.
    store_omega = False

    def __init__(self, seed: int, r: int, m: int):
        _self_test()
        if r < 1 or m < 1:
            raise ContractViolationError(f"sketch dimensions must be >= 1, got r={r}, m={m}")
        self.seed = int(seed)
        if not 0 <= self.seed < 1 << SEED_BITS:
            raise ParameterDomainError(f"seed must be in [0, 2**{SEED_BITS}), got {seed}")
        self.r = int(r)
        self.m = int(m)
        self.fingerprint = (self.seed, self.r, self.m)
        # Raw words consumed per column: a multiple of 4 so every column
        # starts on a Philox counter block and Box-Muller pairs never
        # straddle columns.
        self._wpc = 4 * ((self.r + 3) // 4)

    def column_block(self, j0: int, j1: int) -> np.ndarray:
        """Columns [j0, j1) of omega, shape (r, j1-j0). Treat as read-only:
        it views the normals where they were generated, column after column,
        and BLAS takes it as a transposed operand without a copy."""
        if not (0 <= j0 <= j1 <= self.m):
            raise ContractViolationError(f"column range [{j0}, {j1}) outside [0, {self.m})")
        _check_capacity(self.r, j1 - j0)
        bg = _philox(self.seed, j0 * self._wpc)
        return _tile(self, bg, j0, j1, np.empty((j1 - j0) * self._wpc))

    def project_blocks(self, j0: int, blocks) -> list[np.ndarray]:
        """[omega[:, j0:j0+k] @ x for x in blocks], each x a 2-D block of k rows.

        The blocks and the whole range are checked first. Then one walk
        (``_project_stream``, with the blocks as its one chunk) generates
        each tile (see ``_tiles``) once and applies it to all the blocks, so
        a pass holds the walk's tile buffers (one, or three on two threads)
        and each result is the same, bit for bit, as a pass of its own.
        """
        return _project_stream(self, j0, j0 + _chunk_rows(blocks), [blocks])

    @property
    def omega(self) -> np.ndarray:
        """The full r x m matrix, regenerated per call."""
        return self.column_block(0, self.m)
