"""Seeded Gaussian sketchers: the projection Omega, regenerated on demand.

The projection matrix is a pure function of (seed, r, m): raw 64-bit words
come from a Philox counter stream and are mapped through Box-Muller, column
by column. Any column range can therefore be regenerated bit-exactly
without storing the whole matrix: no sketcher keeps any of it.
``column_block``, the one generator, fills a request from one Philox
stream in sub-blocks of 8,192 words, each mapped straight into its slice
of the output, and returns a view of those normals; ``project_blocks``
walks a range in tiles of such requests. The normals are bit-exact under
any split of a range into requests, tiles or sub-blocks; products with
them (sketches and releases) are bit-reproducible only under the same
BLAS build and thread count. A sketch Omega @ X is a plain r x c array,
so turnstile updates and shards of a stream add entrywise. The
multiply/regression mechanisms retain their sketches only, and the
low-rank mechanism keeps its sketches plus the data block of its projection.
"""
from __future__ import annotations

import functools

import numpy as np

from .errors import CapacityError, ContractViolationError, NumericFailureError

_U64 = (1 << 64) - 1

# Float64 entry budget (1 GiB) of one requested column range, and of the
# whole projection that the low-rank mechanism's finalize stacks at once.
MAX_SKETCH_ENTRIES = 1 << 27

# Float64 entries per regenerated projection tile (512 KiB). Block ingest,
# block queries and the CLI's chunked readers all walk their ranges in
# pieces of this size.
TILE_ENTRIES = 1 << 16

# Raw words per generation sub-block (64 KiB). A request is filled from
# one Philox stream in pieces of this size, so Box-Muller's temporaries
# stay in the L2 cache; any even split gives the same normals.
_SUB_BLOCK_WORDS = 1 << 13


def _philox(seed: int, offset: int) -> np.random.Philox:
    # Philox advances in 256-bit counter blocks of four 64-bit words, so
    # offsets must be block-aligned; column strides are kept multiples of 4.
    if offset % 4:
        raise ContractViolationError(f"word offset {offset} is not block-aligned")
    bg = np.random.Philox(key=seed & _U64)
    if offset:
        bg.advance(offset // 4)
    return bg


def _raw_words(seed: int, offset: int, count: int) -> np.ndarray:
    return _philox(seed, offset).random_raw(count)


def _box_muller(words: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # One normal per 64-bit word, written into ``out`` (a new array when not
    # given); words length must be even. Each word pair maps to its own cos
    # and sin normal, so any even split of the words gives the same normals.
    # log, sqrt, cos and sin run on contiguous arrays only: numpy may pick
    # other loops for strided ones, and those need not round alike.
    # Consumes ``words``: they are shifted in place, so pass fresh ones.
    if out is None:
        out = np.empty(words.size)
    np.right_shift(words, np.uint64(11), out=words)
    # The shifted words are below 2**53, so their int64 view holds the same
    # values and casts to float64 exactly, and faster than uint64 does.
    # u1 = (b0 + 1) * 2**-53 and the angle is 2pi * b1 * 2**-53: scaling by
    # 2**-53 is exact, so one product rounds the angle as (b1 * 2**-53) * 2pi.
    bits = words.view(np.int64)
    radius = np.add(bits[0::2], 1.0)
    radius *= 2.0**-53
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle = np.multiply(bits[1::2], 2.0 * np.pi * 2.0**-53)
    trig = np.cos(angle)
    np.multiply(radius, trig, out=out[0::2])
    np.sin(angle, out=trig)
    np.multiply(radius, trig, out=out[1::2])
    return out


def _normals(seed: int, offset: int, count: int) -> np.ndarray:
    # Normals of words [offset, offset + count) of the seed's stream: one
    # Philox stream, continued sub-block by sub-block into one output.
    bg = _philox(seed, offset)
    out = np.empty(count)
    for s0 in range(0, count, _SUB_BLOCK_WORDS):
        s1 = min(s0 + _SUB_BLOCK_WORDS, count)
        _box_muller(bg.random_raw(s1 - s0), out=out[s0:s1])
    return out


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

    Columns are regenerated from the seed on demand and nothing is retained
    beyond the identity tuple; construction generates nothing.
    ``MAX_SKETCH_ENTRIES`` caps each ``column_block`` request. The Philox +
    Box-Muller mapping is verified against known answers once per process,
    by the first construction.
    """

    # Never stored; kept only for perfbench/spans.py, which reads it after
    # every traced column_block, the one generator, to count its normals.
    store_omega = False

    def __init__(self, seed: int, r: int, m: int):
        _self_test()
        if r < 1 or m < 1:
            raise ContractViolationError(f"sketch dimensions must be >= 1, got r={r}, m={m}")
        self.seed = int(seed) & _U64
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
        if self.r * (j1 - j0) > MAX_SKETCH_ENTRIES:
            raise CapacityError(
                f"projection block of {self.r}x{j1 - j0} exceeds the "
                f"{MAX_SKETCH_ENTRIES} entry budget"
            )
        normals = _normals(self.seed, j0 * self._wpc, (j1 - j0) * self._wpc)
        return normals.reshape(j1 - j0, self._wpc)[:, : self.r].T

    def project_blocks(self, j0: int, blocks) -> list[np.ndarray]:
        """[omega[:, j0:j0+k] @ x for x in blocks], each x a 2-D block of k rows.

        The blocks and the whole range are checked first. Then each tile of
        as many columns as fit in TILE_ENTRIES (at least one) is generated
        once and applied to all the blocks, so a pass holds one tile at a
        time and each result is the same, bit for bit, as a pass of its own.
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
        width = max(1, TILE_ENTRIES // self.r)
        outs = [np.zeros((self.r, x.shape[1])) for x in blocks]
        for t0 in range(j0, j1, width):
            t1 = min(t0 + width, j1)
            tile = self.column_block(t0, t1)
            for out, x in zip(outs, blocks):
                out += tile @ x[t0 - j0 : t1 - j0]
        return outs

    @property
    def omega(self) -> np.ndarray:
        """The full r x m matrix, regenerated per call."""
        return self.column_block(0, self.m)
