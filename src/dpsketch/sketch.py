"""Seeded Gaussian sketchers and turnstile-additive sketch state.

The projection matrix is a pure function of (seed, r, m): raw 64-bit words
come from a Philox counter stream and are mapped through Box-Muller, column
by column. Any column range can therefore be regenerated bit-exactly
without storing the whole matrix: no sketcher keeps any of it. The
multiply/regression mechanisms retain their sketches only, and the low-rank
mechanism keeps its sketches plus the data block of its projection.
"""
from __future__ import annotations

import functools
import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ContractViolationError, FormatError, NumericFailureError
from .numerics import as_vector

_U64 = (1 << 64) - 1

# Float64 entry budget (1 GiB) of one requested column range, and of the
# whole projection that the low-rank mechanism's finalize stacks at once.
MAX_SKETCH_ENTRIES = 1 << 27

# Float64 entries per regenerated projection tile (512 KiB). Block ingest,
# block queries and the CLI's chunked readers all walk their ranges in
# pieces of this size.
TILE_ENTRIES = 1 << 16

MAGIC = b"DPSK"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHBIIIQQ")
_KIND_CODES = {"psg1": 1, "psg2": 2}
_KIND_NAMES = {code: name for name, code in _KIND_CODES.items()}


def fingerprint_of(seed: int, r: int, m: int) -> int:
    """Stable 64-bit hash of the sketcher identity (seed, r, m)."""
    digest = hashlib.blake2b(
        struct.pack("<QII", seed & _U64, r, m), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


def _raw_words(seed: int, offset: int, count: int) -> np.ndarray:
    # Philox advances in 256-bit counter blocks of four 64-bit words, so
    # offsets must be block-aligned; column strides are kept multiples of 4.
    if offset % 4:
        raise ContractViolationError(f"word offset {offset} is not block-aligned")
    bg = np.random.Philox(key=seed & _U64)
    if offset:
        bg.advance(offset // 4)
    return bg.random_raw(count)


def _box_muller(words: np.ndarray) -> np.ndarray:
    # One normal per 64-bit word; words length must be even.
    pairs = words.reshape(-1, 2)
    u1 = ((pairs[:, 0] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
    u2 = (pairs[:, 1] >> np.uint64(11)).astype(np.float64) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = (2.0 * np.pi) * u2
    out = np.empty(words.size)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
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


class GaussianSketcher:
    """Seeded r x m standard-normal matrix with deterministic regeneration.

    Columns are regenerated from the seed on demand and nothing is retained
    beyond the identity tuple; construction generates nothing.
    ``MAX_SKETCH_ENTRIES`` caps each ``column_block`` request. The Philox +
    Box-Muller mapping is verified against known answers once per process,
    by the first construction.
    """

    # Never stored; kept only for perfbench/spans.py, which reads it after
    # every traced column_block to decide whether the block was generated.
    store_omega = False

    def __init__(self, seed: int, r: int, m: int):
        _self_test()
        if r < 1 or m < 1:
            raise ContractViolationError(f"sketch dimensions must be >= 1, got r={r}, m={m}")
        self.seed = int(seed) & _U64
        self.r = int(r)
        self.m = int(m)
        self.fingerprint = fingerprint_of(self.seed, self.r, self.m)
        # Raw words consumed per column: a multiple of 4 so every column
        # starts on a Philox counter block and Box-Muller pairs never
        # straddle columns.
        self._wpc = 4 * ((self.r + 3) // 4)

    def _generate_block(self, j0: int, j1: int) -> np.ndarray:
        # Columns [j0, j1) of omega as the rows of a (j1-j0) x r view.
        if self.r * (j1 - j0) > MAX_SKETCH_ENTRIES:
            raise CapacityError(
                f"projection block of {self.r}x{j1 - j0} exceeds the "
                f"{MAX_SKETCH_ENTRIES} entry budget"
            )
        normals = _box_muller(_raw_words(self.seed, j0 * self._wpc, (j1 - j0) * self._wpc))
        return normals.reshape(j1 - j0, self._wpc)[:, : self.r]

    def column_block(self, j0: int, j1: int) -> np.ndarray:
        """Columns [j0, j1) of omega, shape (r, j1-j0). Treat as read-only."""
        if not (0 <= j0 <= j1 <= self.m):
            raise ContractViolationError(f"column range [{j0}, {j1}) outside [0, {self.m})")
        return np.ascontiguousarray(self._generate_block(j0, j1).T)

    def _tile_width(self) -> int:
        # As many columns as fit in TILE_ENTRIES, at least one.
        return max(1, TILE_ENTRIES // self.r)

    def tiles(self, j0: int, j1: int):
        """Yield (t0, t1, column_block(t0, t1)) covering columns [j0, j1).

        Each tile is regenerated once and can be dropped after use, so a
        pass over any range holds at most one tile of the projection.
        """
        if not (0 <= j0 <= j1 <= self.m):
            raise ContractViolationError(f"column range [{j0}, {j1}) outside [0, {self.m})")
        width = self._tile_width()
        for t0 in range(j0, j1, width):
            t1 = min(t0 + width, j1)
            yield t0, t1, self.column_block(t0, t1)

    def project_blocks(self, j0: int, blocks) -> list[np.ndarray]:
        """[omega[:, j0:j0+k] @ x for x in blocks], each x a 2-D block of k rows.

        Every tile of columns [j0, j0+k) is regenerated once and applied to
        all the blocks, so each result equals ``project(j0, x)`` bit for bit.
        """
        k = blocks[0].shape[0]
        if any(x.shape[0] != k for x in blocks):
            raise ContractViolationError(f"row counts differ: {[x.shape[0] for x in blocks]}")
        outs = [np.zeros((self.r, x.shape[1])) for x in blocks]
        for t0, t1, tile in self.tiles(j0, j0 + k):
            for out, x in zip(outs, blocks):
                out += tile @ x[t0 - j0 : t1 - j0]
        return outs

    def project(self, j0: int, x: np.ndarray) -> np.ndarray:
        """omega[:, j0:j0+len(x)] @ x for a 2-D block x, one tile at a time."""
        return self.project_blocks(j0, [x])[0]

    @property
    def omega(self) -> np.ndarray:
        """The full r x m matrix, regenerated per call."""
        return self.column_block(0, self.m)

    def psg1(self, v) -> np.ndarray:
        """Project a length-m vector: omega @ v, one tile at a time."""
        x = as_vector(v, "v")
        if x.size != self.m:
            raise ContractViolationError(f"psg1 expects length {self.m}, got {x.size}")
        return self.project(0, x[:, None])[:, 0]

    def psg2(self, v) -> np.ndarray:
        """Lift-and-project a length-m vector: omega.T @ (omega @ v).

        Computed as omega.T applied to psg1(v), one tile at a time. When
        one tile covers omega (r * m <= TILE_ENTRIES) this is literally
        omega.T @ psg1(v), bit for bit; wider sketchers agree with that
        product up to floating-point summation order.
        """
        x = as_vector(v, "v")
        if x.size != self.m:
            raise ContractViolationError(f"psg2 expects length {self.m}, got {x.size}")
        y = self.psg1(x)
        return np.concatenate([tile.T @ y for _t0, _t1, tile in self.tiles(0, self.m)])


@dataclass
class Sketch:
    """Linear sketch with additive turnstile updates.

    ``data`` is (r, c) for psg1 sketches and (m, c) for psg2 sketches; the
    fingerprint ties the sketch to the sketcher that produced it.
    """

    kind: str
    data: np.ndarray
    col_count: int
    fingerprint: int
    seed: int
    r: int
    m: int

    @classmethod
    def empty(cls, sketcher: GaussianSketcher, kind: str, col_count: int) -> "Sketch":
        if kind not in _KIND_CODES:
            raise ContractViolationError(f"unknown sketch kind {kind!r}")
        if col_count < 0:
            raise ContractViolationError("col_count must be non-negative")
        rows = sketcher.r if kind == "psg1" else sketcher.m
        return cls(
            kind=kind,
            data=np.zeros((rows, col_count)),
            col_count=col_count,
            fingerprint=sketcher.fingerprint,
            seed=sketcher.seed,
            r=sketcher.r,
            m=sketcher.m,
        )

    def update_column(self, sketcher: GaussianSketcher, col: int, v) -> None:
        """Add omega@v (psg1) or omega.T@omega@v (psg2) into column ``col``."""
        if sketcher.fingerprint != self.fingerprint:
            raise ContractViolationError("sketcher fingerprint does not match sketch")
        if not (0 <= col < self.col_count):
            raise ContractViolationError(f"column {col} outside [0, {self.col_count})")
        update = sketcher.psg1(v) if self.kind == "psg1" else sketcher.psg2(v)
        self.data[:, col] += update


def merge(a: Sketch, b: Sketch) -> Sketch:
    """Entrywise sum of two sketches of the same kind and fingerprint.

    Correct only for lift-free sketches. A sketch that carries a
    deterministic lift (``RegressState.ya`` holds s * omega[:, :d] from
    construction, for instance) carries it once per shard, so the sum
    counts the lift twice; ``MatProdState.merge`` removes the extra copy.
    """
    if a.kind != b.kind:
        raise ContractViolationError(f"cannot merge kinds {a.kind!r} and {b.kind!r}")
    if a.fingerprint != b.fingerprint:
        raise ContractViolationError("cannot merge sketches with different fingerprints")
    if a.data.shape != b.data.shape:
        raise ContractViolationError("cannot merge sketches with different shapes")
    return Sketch(
        kind=a.kind,
        data=a.data + b.data,
        col_count=a.col_count,
        fingerprint=a.fingerprint,
        seed=a.seed,
        r=a.r,
        m=a.m,
    )


def serialize(sketch: Sketch) -> bytes:
    header = _HEADER.pack(
        MAGIC,
        FORMAT_VERSION,
        _KIND_CODES[sketch.kind],
        sketch.r,
        sketch.m,
        sketch.col_count,
        sketch.seed,
        sketch.fingerprint,
    )
    payload = np.ascontiguousarray(sketch.data, dtype="<f8").tobytes()
    return header + payload


def deserialize(buf: bytes) -> Sketch:
    if len(buf) < _HEADER.size:
        raise FormatError(f"sketch blob truncated at offset {len(buf)} (header incomplete)")
    magic, version, kind_code, r, m, c, seed, fp = _HEADER.unpack_from(buf)
    if magic != MAGIC:
        raise FormatError(f"bad magic bytes {magic!r}")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported sketch format version {version}")
    if kind_code not in _KIND_NAMES:
        raise FormatError(f"unknown sketch kind code {kind_code}")
    kind = _KIND_NAMES[kind_code]
    rows = r if kind == "psg1" else m
    expected = _HEADER.size + rows * c * 8
    if len(buf) != expected:
        raise FormatError(
            f"sketch payload truncated at offset {len(buf)}, expected {expected} bytes"
        )
    if fp != fingerprint_of(seed, r, m):
        raise FormatError("fingerprint does not match header identity")
    data = np.frombuffer(buf, dtype="<f8", offset=_HEADER.size).reshape(rows, c).copy()
    if data.size and not np.isfinite(data).all():
        raise FormatError("sketch payload contains non-finite entries")
    return Sketch(
        kind=kind, data=data, col_count=c, fingerprint=fp, seed=seed, r=r, m=m
    )
