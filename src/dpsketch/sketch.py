"""Seeded Gaussian sketchers: the projection Omega, regenerated on demand.

The projection matrix is a pure function of (seed, r, m): raw 64-bit words
come from a Philox counter stream and are mapped through Box-Muller, column
by column. Any column range can therefore be regenerated bit-exactly
without storing the whole matrix: no sketcher keeps any of it.
Normals are generated from one Philox stream in sub-blocks of 8,192
words, each mapped straight into its slice of the output, and a block of
columns is a view of those normals. ``column_block`` fills one request
into a fresh array. A tiled pass (``project_blocks``, LRA ingest) walks
its range with ``_tiles``: one stream, continued from tile to tile, and
one buffer of one tile, refilled for each, so a pass holds a transient of
one tile whatever its length. Box-Muller evaluates a sub-block's pairs in
the order of their angles' top bits, which keeps libm's branches
predictable. Each pair moves as one 16-byte item: its two words are
gathered together in that order, and its cos and sin normals are
scattered together back to the pair's own slot. Each normal is the same
call on the same double wherever it is computed, so any order that is
scattered back changes no bit. The normals are bit-exact under any split
of a range into requests, tiles or sub-blocks; products with them
(sketches and releases) are bit-reproducible only under the same BLAS
build and thread count. A sketch Omega @ X is a plain r x c array, so
turnstile updates and shards of a stream add entrywise. Every mechanism
retains its sketches only and regenerates its projection where it reads it.
"""
from __future__ import annotations

import functools
import sys
from collections.abc import Iterator

import numpy as np

from .errors import CapacityError, ContractViolationError, NumericFailureError, ParameterDomainError

# Bits in a seed: the width of Philox's key, and of a release's secret.
SEED_BITS = 128

# Float64 entry budget (1 GiB) of one column_block request or one tile of
# a walk, the only cap. A walk's one buffer holds max(TILE_ENTRIES, r)
# entries at most (r only when one column exceeds the tile).
MAX_SKETCH_ENTRIES = 1 << 27

# Float64 entries per regenerated projection tile (512 KiB). Block ingest,
# block queries and the CLI's chunked readers all walk their ranges in
# pieces of this size (see per_tile); a walk generates every tile into one
# buffer of this size, so a pass holds one tile at a time.
TILE_ENTRIES = 1 << 16

# Raw words per generation sub-block (64 KiB). A request is filled from
# one Philox stream in pieces of this size, so Box-Muller's temporaries
# stay in the L2 cache; any even split gives the same normals.
_SUB_BLOCK_WORDS = 1 << 13


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


def _tiles(sk: GaussianSketcher, j0: int, j1: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield (t0, t1, tile) over columns [j0, j1) of sk's projection, in
    tiles of ``per_tile(r)`` columns.

    One Philox stream is opened for the walk and continued from tile to
    tile, and every tile is generated into one buffer owned by the walk:
    a tile is valid only until the next one is yielded. A tile over the
    cap (one column, when r alone exceeds it) is refused before anything
    is generated.
    """
    width = min(per_tile(sk.r), j1 - j0)
    if width <= 0:
        return
    _check_capacity(sk.r, width)
    bg = _philox(sk.seed, j0 * sk._wpc)
    buf = np.empty(width * sk._wpc)
    for t0 in range(j0, j1, width):
        t1 = min(t0 + width, j1)
        yield t0, t1, _tile(sk, bg, t0, t1, buf)


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
    # The generation path itself: a request from column 3 of an r = 1031
    # sketcher (1032 words a column), whose normals 8190-8193 straddle its
    # first sub-block boundary.
    want = (0.21258872969133344, -0.016356562183325325, 0.07166874535821129, -0.1503623450514315)
    if not np.allclose(_normals(11, 3 * 1032, 8196)[8190:8194], want, rtol=0, atol=1e-13):
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
        generates each tile of ``per_tile(r)`` columns once, into its one
        buffer, and applies it to all the blocks, so a pass holds one tile
        at a time and each result is the same, bit for bit, as a pass of
        its own.
        """
        if not blocks:
            raise ContractViolationError("no blocks to project")
        dims = [getattr(x, "ndim", None) for x in blocks]
        if any(dim != 2 for dim in dims):
            raise ContractViolationError(f"blocks must be 2-D arrays, got ndim {dims}")
        k = blocks[0].shape[0]
        if any(x.shape[0] != k for x in blocks):
            raise ContractViolationError(f"row counts differ: {[x.shape[0] for x in blocks]}")
        j1 = j0 + k
        if not (0 <= j0 <= j1 <= self.m):
            raise ContractViolationError(f"column range [{j0}, {j1}) outside [0, {self.m})")
        outs = [np.zeros((self.r, x.shape[1])) for x in blocks]
        for t0, t1, tile in _tiles(self, j0, j1):
            for out, x in zip(outs, blocks):
                out += tile @ x[t0 - j0 : t1 - j0]
        return outs

    @property
    def omega(self) -> np.ndarray:
        """The full r x m matrix, regenerated per call."""
        return self.column_block(0, self.m)
