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
or regression release walks its whole stream once. Inside
``_release_threads`` (CLI multiply and regress releases of inputs
narrower than about r columns), where the process may use exactly two
CPUs, BLAS runs on one thread and a walk of tiles at least two columns
wide generates on two threads: the caller and one persistent helper
thread take alternate tiles of half the width, each on a Philox stream of
its own that skips the other's tiles and into a buffer of its own, so the
two buffers hold one tile in all, and the tiles come in the same order
with the same bits. Everywhere else the walk is serial, ``lra``
releases included: a CLI ``lra`` release of a CSV file on two CPUs runs
BLAS on one thread too (``_one_blas_thread``, which owns the count in both
scopes), and gives the second CPU to a forked parser. Box-Muller
evaluates a sub-block's pairs in the order of their angles' top bits,
which keeps libm's branches predictable. Each pair moves as one 16-byte
item: its two words are gathered together in that order, and its cos and
sin normals are scattered together back to the pair's own slot. Each
normal is the same call on the same double wherever it is computed, so
any order that is scattered back changes no bit. The normals are
bit-exact under any split of a range into requests, tiles, sub-blocks or
threads. Products with them (sketches and releases) are bit-reproducible
only under the same BLAS build, BLAS thread count and walk path, since
the tile width sets how a product's terms are summed: a CLI release that
enters ``_release_threads`` differs in its last bits from the same release
on another number of CPUs, and an ``lra`` CSV release on two CPUs has the
bits of a run at one BLAS thread. A sketch Omega @ X is a plain r x c array, so
turnstile updates and shards of a stream add entrywise. Every mechanism
retains its sketches only and regenerates its projection where it reads
it.
"""
from __future__ import annotations

import contextlib
import functools
import os
import queue
import sys
import threading
from collections.abc import Callable, Iterator

import numpy as np

from .errors import CapacityError, ContractViolationError, NumericFailureError, ParameterDomainError

# Bits in a seed: the width of Philox's key, and of a release's secret.
SEED_BITS = 128

# Float64 entry budget (1 GiB) of one column_block request or one tile of
# a walk, the only cap. A walk's one buffer holds max(TILE_ENTRIES, r)
# entries at most (r only when one column exceeds the tile); a two-thread
# walk's two buffers hold that much together.
MAX_SKETCH_ENTRIES = 1 << 27

# Float64 entries per regenerated projection tile (512 KiB). Block ingest,
# block queries and the CLI's chunked readers all walk their ranges in
# pieces of this size (see per_tile); a walk generates every tile into one
# buffer of this size (two of half the size on two threads), so a pass
# holds one tile at a time.
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
    rows, or input rows of that many columns) fit in one tile; at least one."""
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


# Whether walks generate on two threads; set only by _release_threads.
_split_walks = False


@contextlib.contextmanager
def _one_blas_thread():
    """Run the scope with numpy's bundled OpenBLAS on one thread, and give
    it back its count on the way out, whatever happens inside. Yields
    whether the count went to one: False where numpy bundles no OpenBLAS
    or the count does not take. Both release scopes (``_release_threads``
    and the CLI's two-process CSV parse) set the count here alone."""
    fns = _blas_thread_fns()
    if fns is None:
        yield False
        return
    get, set_ = fns
    before = get()
    set_(1)
    try:
        yield get() == 1
    finally:
        set_(before)


@contextlib.contextmanager
def _release_threads(r: int, walk: int):
    """Run the scope with numpy's bundled OpenBLAS on one thread and walks
    on two, for a release over an r-row projection whose input rows come
    ``walk`` to a tile of its widest input (all of them, if fewer), where
    that pays; give both back as they were on the way out, whatever
    happens inside.

    It pays where generation, not BLAS, is most of a release: its per-tile
    products are near OpenBLAS's threading threshold, so a second BLAS
    thread barely speeds them up and spins between them. A tile of r x t
    normals costs the same whatever the input, and its products cost t
    multiply-adds per normal for each input column, so the rule is one of
    r and the input width w: ``walk``, min(n, per_tile(w)), must span at
    least three half tiles of the projection, which holds about where
    w <= r and the stream is that long (with two half tiles, each thread
    generates one and nothing overlaps the products). Measured on 2 CPUs
    only, it needs exactly two usable CPUs. Elsewhere, or where numpy
    bundles no OpenBLAS or the count does not go to one, nothing changes.
    (An ``lra`` release of a CSV file takes BLAS to one thread in its own
    scope, for its two-process parse, and walks serially.)
    """
    global _split_walks
    half = per_tile(r) // 2
    if not (half and walk > 2 * half and _usable_cpus() == 2):
        yield
        return
    with _one_blas_thread() as one:
        was = _split_walks
        _split_walks = one
        try:
            yield
        finally:
            _split_walks = was


# The helper thread's job queue, made by the first two-thread walk. A
# forked child has the queue but not the thread, so it drops the queue.
_helper_jobs: queue.SimpleQueue | None = None
_helper_lock = threading.Lock()


def _serve(jobs: queue.SimpleQueue) -> None:
    # The helper thread: runs each job in turn, and hands its result, or
    # whatever it raised, to the job's own reply queue, where the walk
    # raises it; a job that died unanswered would leave its walk waiting.
    while True:
        fn, args, reply = jobs.get()
        try:
            reply.put((fn(*args), None))
        except BaseException as exc:
            reply.put((None, exc))


def _helper() -> queue.SimpleQueue:
    global _helper_jobs
    with _helper_lock:
        if _helper_jobs is None:
            _helper_jobs = queue.SimpleQueue()
            threading.Thread(
                target=_serve, args=(_helper_jobs,), name="dpsketch-tiles", daemon=True
            ).start()
        return _helper_jobs


def _drop_helper() -> None:
    global _helper_jobs
    _helper_jobs = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_helper)


def _tiles(sk: GaussianSketcher, j0: int, j1: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield (t0, t1, tile) over columns [j0, j1) of sk's projection, in
    column order, in tiles of ``per_tile(r)`` columns (half as wide on two
    threads).

    One Philox stream per generating thread is opened for the walk and
    continued from tile to tile, and every tile is generated into that
    thread's one buffer: a tile is valid only until the next one is
    yielded. A tile over the cap (one column, when r alone exceeds it) is
    refused before anything is generated. Inside ``_release_threads``,
    where a tile has at least two columns to halve, ``_split_tiles``
    generates the tiles on two threads; they hold the same bits as the
    serial walk's, which stays the reference.
    """
    width = per_tile(sk.r)
    split = _split_walks and width >= 2
    width = min(width // 2 if split else width, j1 - j0)
    if width <= 0:
        return
    _check_capacity(sk.r, width)
    if split:
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
    # The two-thread walk: the caller generates the even tiles and the
    # helper thread the odd ones, each on a Philox stream of its own that
    # skips the other's tiles, into a buffer of its own. The helper is
    # handed tile i + 2 as soon as the caller is back from tile i, whose
    # buffer it takes, and generates it while the caller computes with
    # tile i + 1 and generates tile i + 3.
    # Philox is counter-based, so every tile holds the words of its own
    # columns whichever thread draws them (Salmon et al., SC 2011).
    starts = range(j0, j1, width)
    streams = [_philox(sk.seed, t0 * sk._wpc) for t0 in starts[:2]]
    bufs = [np.empty(width * sk._wpc) for _ in streams]
    skip = width * sk._wpc // 4  # counter blocks of the other thread's tile

    def generate(i: int) -> np.ndarray:
        bg = streams[i % 2]
        if i >= 2:
            bg.advance(skip)
        return _tile(sk, bg, starts[i], min(starts[i] + width, j1), bufs[i % 2])

    jobs, reply = _helper(), queue.SimpleQueue()
    pending = len(starts) > 1
    if pending:
        jobs.put((generate, (1,), reply))
    try:
        own = generate(0)
        for i, t0 in enumerate(starts):
            if i % 2:
                pending = False
                tile, exc = reply.get()
                if exc is not None:
                    raise exc
            else:
                tile = own
            yield t0, min(t0 + width, j1), tile
            # Tile i is released: its buffer takes tile i + 2.
            if i + 2 < len(starts):
                if i % 2:
                    jobs.put((generate, (i + 2,), reply))
                    pending = True
                else:
                    own = generate(i + 2)
    finally:
        # A walk left early (the caller raised, or closed it) still waits
        # for the helper's tile, so no tile outlives the walk.
        if pending:
            reply.get()


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
        each tile of ``per_tile(r)`` columns once, into its one buffer, and
        applies it to all the blocks, so a pass holds one tile at a time and
        each result is the same, bit for bit, as a pass of its own.
        """
        return _project_stream(self, j0, j0 + _chunk_rows(blocks), [blocks])

    @property
    def omega(self) -> np.ndarray:
        """The full r x m matrix, regenerated per call."""
        return self.column_block(0, self.m)
