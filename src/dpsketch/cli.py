"""Command-line entry point: matrix ingestion, mechanisms, verification.

Commands
--------
lra       single-pass private low-rank approximation of a CSV/binary matrix
multiply  private transposed product A.T @ B of two column streams
regress   private least squares against a sketched design matrix
verify    run the harness verification suite

Matrix files are either headerless CSV (one row per line) or the "DPMT"
binary format (magic, version u16, rows u32, cols u32, little-endian
float64 row-major). Streaming commands consume the input through a
one-pass iterator of row chunks, feed them to the mechanism, and never
materialize the private matrix unless --oracle is given. The shape probe
reads a CSV file once, as text, and marks where each tile of rows starts,
so that a process reads a chunk from its mark. A forked reader parses the
chunks on two processes, by ``sketch._in_order`` on ``_ForkShare``: a
``lockf`` count in a memfd, and block slots named by pipe tokens. A CSV
chunk is parsed in
one call to numpy's C reader; a chunk with a fault is parsed again line
by line, so the error names its line. One release skeleton,
``_run_release``, probes and reads every input, runs the release as its
plan says (``sketch.plan_release``) and writes every output. ``multiply``
and ``regress`` take a second input (B; the queries) with as many rows
as the first, read in chunks of the same rows, and sketch all n rows of
both in one walk over the projection tiles: their bits do not depend on
the chunk size.
The outputs are ``lra``'s factor ``uhat`` and 1 x k ``lam``, ``multiply``'s
``estimate`` of A.T @ B and ``regress``'s d x q ``solutions``; with
--report each is written beside it as ``<report less extension>.<name>.dpmt``,
listed in ``factor_files``. Without --report a command prints its report
and writes no file.

A release's seed is its secret: with no --seed, a release command draws
128 bits from ``secrets``, and no report carries the seed. ``verify``
keeps its public default seed of 0.

Exit codes: 0 success, 1 mechanism error, 2 usage error, 3 verification
failure.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import secrets
import select
import signal
import struct
import sys
import time
from typing import Callable, Iterator, NamedTuple, Optional, Tuple

import numpy as np

from . import guard, harness, numerics, sketch
from .errors import DPSketchError, FormatError, ParameterDomainError
from .lra import LraConfig, new_lra
from .matprod import new_matprod
from .regress import new_regress

MATRIX_MAGIC = b"DPMT"
MATRIX_VERSION = 1
_MATRIX_HEADER = struct.Struct("<4sHII")


def save_matrix(path: str, m: np.ndarray) -> None:
    a = numerics.as_matrix(m)
    with open(path, "wb") as fh:
        fh.write(_MATRIX_HEADER.pack(MATRIX_MAGIC, MATRIX_VERSION, a.shape[0], a.shape[1]))
        fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def _parse_csv_line(line: str, lineno: int, expected: Optional[int]) -> np.ndarray:
    parts = line.rstrip("\n").rstrip("\r").split(",")
    try:
        row = np.array([float(p) for p in parts])
    except ValueError as exc:
        raise FormatError(f"unparseable entry at line {lineno}: {exc}") from exc
    if expected is not None and row.size != expected:
        raise FormatError(
            f"ragged row at line {lineno}: {row.size} entries, expected {expected}"
        )
    if not np.isfinite(row).all():
        raise FormatError(f"non-finite entry at line {lineno}")
    return row


def _bulk_csv_chunk(lines: list[str], expected: int) -> Optional[np.ndarray]:
    """The (len(lines), expected) block of non-blank CSV lines, parsed in
    one call to numpy's C reader, which rounds decimals as ``float()``
    does; None where the reader refuses the chunk, reads it to another
    shape or reads a non-finite entry."""
    # loadtxt strips the ASCII separators \x1c-\x1f around an entry as
    # whitespace, where float() refuses them, so a chunk holding one is
    # left to the line-by-line parse.
    if any(c in x for x in lines for c in "\x1c\x1d\x1e\x1f"):
        return None
    try:
        block = np.loadtxt(lines, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
    except ValueError:
        return None
    if block.shape != (len(lines), expected) or not np.isfinite(block).all():
        return None
    return block


def _parse_csv_chunk(lines: list[str], linenos: list[int], expected: int) -> np.ndarray:
    """The (len(lines), expected) block of non-blank CSV lines.

    A chunk the bulk parse (``_bulk_csv_chunk``) does not take is parsed
    again line by line, which names the line at fault or keeps entries
    only ``float()`` reads, such as ``1_0``.
    """
    block = _bulk_csv_chunk(lines, expected)
    if block is None:
        block = np.vstack([_parse_csv_line(x, n, expected) for x, n in zip(lines, linenos)])
    return block


def _not_text(exc: UnicodeDecodeError) -> FormatError:
    return FormatError(f"CSV input is not text ({exc.reason}); DPMT files need --format dpbin")


def _csv_rows(fh, lineno: int, count: int, skip: int = 0) -> Tuple[list[str], list[int]]:
    """The next ``count`` non-blank lines read from the CSV text handle fh,
    past ``skip`` more, and their line numbers, where the line fh reads
    next is line ``lineno``; fewer at the end of the file. The one read of
    a CSV file's rows, for the serial reader and the forked one alike. A
    file that is not text is a FormatError."""
    lines, linenos = [], []
    try:
        for line in iter(fh.readline, ""):
            if line.strip():
                if skip:
                    skip -= 1
                else:
                    lines.append(line)
                    linenos.append(lineno)
                    if len(lines) == count:
                        break
            lineno += 1
    except UnicodeDecodeError as exc:
        raise _not_text(exc) from exc
    return lines, linenos


def matrix_shape(path: str, fmt: str, marks: Optional[list] = None) -> Tuple[int, int]:
    """Probe (rows, cols) without parsing entries (CSV) or payload (binary).

    A binary file whose size disagrees with its header is refused here,
    before any row is read, and so is a CSV file that is not text. Where a
    list ``marks`` is given, the CSV probe appends a mark for every
    ``sketch.per_tile(cols)`` non-blank rows, which ``_chunk_rows`` reads
    from: the text-mode ``tell()`` cookie where the first one's line
    starts, and that line's number.
    """
    if fmt == "dpbin":
        with open(path, "rb") as fh:
            header = fh.read(_MATRIX_HEADER.size)
            size = os.fstat(fh.fileno()).st_size
        if len(header) < _MATRIX_HEADER.size:
            raise FormatError(f"matrix header truncated at offset {len(header)}")
        magic, version, rows, cols = _MATRIX_HEADER.unpack(header)
        if magic != MATRIX_MAGIC:
            raise FormatError(f"bad matrix magic {magic!r}")
        if version != MATRIX_VERSION:
            raise FormatError(f"unsupported matrix format version {version}")
        end = _MATRIX_HEADER.size + 8 * rows * cols
        if size < end:
            raise FormatError(f"matrix payload truncated at offset {size}")
        if size > end:
            raise FormatError(f"matrix payload has extra bytes from offset {end}")
        return rows, cols
    # Blank lines are skipped, as _csv_rows skips them. The lines are read
    # with readline: tell() is refused while a file is iterated.
    rows, tile, lineno, at = 0, 1, 1, 0
    with open(path, "r") as fh:
        try:
            for line in iter(fh.readline, ""):
                if line.strip():
                    if not rows:
                        cols = line.count(",") + 1
                        tile = sketch.per_tile(cols)
                    if marks is not None and rows % tile == 0:
                        marks.append((at, lineno))
                    rows += 1
                lineno += 1
                if rows % tile == 0:  # the next row starts a tile
                    at = fh.tell()
        except UnicodeDecodeError as exc:
            raise _not_text(exc) from exc
    if not rows:
        raise FormatError("empty CSV matrix")
    return rows, cols


def iter_matrix_chunks(
    path: str, fmt: str, step: Optional[int] = None
) -> Iterator[Tuple[int, np.ndarray]]:
    """One-pass iterator of (i0, block): rows i0, i0+1, ... as a 2-D block.

    Blocks hold ``step`` rows (the last may hold fewer); by default about
    one projection tile of entries. Binary payloads are read with one
    ``read`` per chunk. CSV chunks are parsed in bulk; one that has a
    fault, or an entry only ``float()`` reads, is parsed again line by
    line. Errors name the global row (binary) or the line (CSV) at fault,
    whichever chunk it falls in.
    """
    if fmt == "dpbin":
        rows, cols = matrix_shape(path, fmt)
        step = step or sketch.per_tile(cols)
        with open(path, "rb") as fh:
            fh.seek(_MATRIX_HEADER.size)
            for i0 in range(0, rows, step):
                k = min(step, rows - i0)
                buf = fh.read(8 * cols * k)
                if len(buf) != 8 * cols * k:
                    raise FormatError(
                        f"matrix payload truncated at offset {_MATRIX_HEADER.size + 8 * cols * i0 + len(buf)}"
                    )
                block = np.frombuffer(buf, dtype="<f8").reshape(k, cols)
                if not np.isfinite(block).all():
                    # Only a faulty chunk is searched for its first bad row.
                    bad = ~np.isfinite(block).all(axis=1)
                    raise FormatError(f"non-finite entry in binary row {i0 + int(bad.argmax())}")
                yield i0, block
        return
    with open(path, "r") as fh:
        lines, linenos = _csv_rows(fh, 1, 1)
        if not lines:
            return
        # The first line sets the width and the chunk size.
        expected = _parse_csv_line(lines[0], linenos[0], None).size
        step = step or sketch.per_tile(expected)
        fh.seek(0)
        lineno = 1
        for i0 in itertools.count(0, step):
            lines, linenos = _csv_rows(fh, lineno, step)
            if not lines:
                return
            lineno = linenos[-1] + 1
            block = _parse_csv_chunk(lines, linenos, expected)
            del lines, linenos  # no chunk's lines are held while the next one's are read
            yield i0, block


def _chunk_rows(fh, k: int, step: int, cols: int, marks: list) -> Tuple[list[str], list[int]]:
    """Chunk k's non-blank lines and their line numbers (``_csv_rows``),
    read from the text handle fh of a file of ``cols`` columns: from the
    probe's mark at or before the chunk's first row (``matrix_shape``),
    past the rows between the two."""
    i0, tile = k * step, sketch.per_tile(cols)
    at, lineno = marks[i0 // tile]
    fh.seek(at)
    return _csv_rows(fh, lineno, step, i0 % tile)


# How many chunks the forked parser may hold claimed that the release has
# not yet taken: one being parsed, one waiting in its slot. Each has a block
# slot in the file the two share, named by a one-byte token.
_RUN_AHEAD = 2

# What the forked parser reports on each chunk it claimed: the chunk, its
# rows (-1 where the bulk parse refused it) and the slot its block is in.
_REPORT = struct.Struct("<qqq")


def _claim(fd: int) -> int:
    """Claim the first chunk no process has claimed; the chunk claimed. The
    count at offset 0 of the shared file fd (0 before anyone writes it) is
    moved under a record lock on fd, which the kernel drops if its holder
    dies or closes fd, so a parser that dies in a claim stalls no release."""
    os.lockf(fd, os.F_LOCK, 0)
    first = int.from_bytes(os.pread(fd, 8, 0), "little")
    os.pwrite(fd, (first + 1).to_bytes(8, "little"), 0)
    os.lockf(fd, os.F_ULOCK, 0)
    return first


class _ForkShare:
    """The process transport of the forked CSV reader: the count at offset 0
    of a memfd (``_claim``), then ``_RUN_AHEAD`` block slots, each named by
    a one-byte token on a pipe; the child reports each chunk on a second
    pipe. The release claims chunk 0 before the fork, holds at most one
    chunk it claimed ahead, and gives a slot back once it has read it."""

    def __init__(self, n: int, step: int, cols: int, execution: dict):
        self.n, self.step, self.cols, self.execution = n, step, cols, execution
        # fds to close, the child, whether it reports, the last chunk claimed here
        self.fds, self.pid, self.live, self.ahead = [], None, False, 0

    def start(self, work) -> None:
        try:
            self.fds.append(os.memfd_create("dpsketch-csv"))
            self.fds += os.pipe()
            self.fds += os.pipe()
            self.shared, self.slots, self.reports = self.fds[0], self.fds[1:3], self.fds[3:]
            os.write(self.slots[1], bytes(range(_RUN_AHEAD)))
            _claim(self.shared)  # chunk 0: the child starts on chunk 1
            self.pid = os.fork()
        except OSError:
            self.execution["csv_reader"] = "serial"
            return
        if self.pid == 0:
            try:
                os.close(self.slots[1])  # so that the release's end is the child's EOF
                work(self.claim())
            finally:
                os._exit(0)
        os.close(self.fds.pop())  # the child's; slots[0] stays, so giving a slot back never fails
        # Is a report ready? (poll: select refuses an fd of 1024 or more. A
        # poll object makes its fd array at its first call, here, before chunk 0.)
        self.ready = select.poll()
        self.ready.register(self.reports[0], select.POLLIN)
        self.ready.poll(0)
        self.live = True

    def _at(self, slot: int) -> int:
        return 8 * (1 + slot * self.step * self.cols)  # past the count, a block a slot

    def claim(self) -> Optional[int]:
        token = os.read(self.slots[0], 1)  # none once the release is gone
        if not token:
            return None
        self.slot, k = token[0], _claim(self.shared)
        return k if k < self.n else None

    def put(self, k: int, block) -> None:
        if isinstance(block, BaseException):
            return  # the child ends: the release parses chunk k and the rest
        if block is not None and os.pwrite(self.shared, block, self._at(self.slot)) != block.nbytes:
            raise OSError("short write to a block slot")
        os.write(self.reports[1], _REPORT.pack(k, -1 if block is None else len(block), self.slot))

    def next(self, k: int) -> Optional[int]:
        if not self.live:
            return k
        if self.ahead > k or self.ready.poll(0):
            return None
        self.ahead = _claim(self.shared)
        return self.ahead if self.ahead < self.n else None

    def take(self, k: int):
        # The child's report on chunk k, and the block it names read out of
        # its slot into a fresh array. None where the child refused the
        # chunk, or is gone: its reports end, or one is not for chunk k.
        report = os.read(self.reports[0], _REPORT.size)
        got, rows, slot = _REPORT.unpack(report) if len(report) == _REPORT.size else (-1, 0, 0)
        block = np.empty((max(rows, 0), self.cols)) if got == k and rows <= self.step else None
        if block is None or os.preadv(self.shared, [block], self._at(slot)) != block.nbytes:
            self.live = False  # this process parses the rest
            return None
        os.write(self.slots[1], bytes([slot]))
        self.execution["parser_chunks"] += rows >= 0
        return (k * self.step, block) if rows >= 0 else None

    def release(self, k: int) -> None:
        pass

    def stop(self) -> None:
        for fd in self.fds:
            os.close(fd)
        if self.pid:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)


def _forked_csv_chunks(
    path: str, step: int, shape: Tuple[int, int], marks: list, execution: dict
) -> Iterator[Tuple[int, np.ndarray]]:
    """``iter_matrix_chunks(path, "csv", step)``, each chunk parsed by this
    process or a forked child, whichever is free (``sketch._in_order`` on
    ``_ForkShare``), read from its mark in the probe (``_chunk_rows``). The
    child parses with the serial reader's call, ``_bulk_csv_chunk``, and
    never prints; this process with its parse, ``_parse_csv_chunk``. So a
    block holds the serial bits, and a chunk the child refuses, every chunk
    after it dies and every one where none is forked fails as the serial
    read, at its point of the stream. ``execution`` records a failed fork
    (``csv_reader``) and the blocks the child supplied (``parser_chunks``).
    """
    cols, n = shape[1], -(-shape[0] // step)

    def child() -> Callable[[int], Optional[np.ndarray]]:
        fh = open(path, "r")  # the child ends with os._exit, which closes it
        return lambda k: _bulk_csv_chunk(_chunk_rows(fh, k, step, cols, marks)[0], cols)

    with open(path, "r") as fh:
        yield from sketch._in_order(
            n, _ForkShare(n, step, cols, execution),
            lambda k: (k * step, _parse_csv_chunk(*_chunk_rows(fh, k, step, cols, marks), cols)),
            child)


def load_matrix(path: str, fmt: str) -> np.ndarray:
    blocks = [block for _, block in iter_matrix_chunks(path, fmt)]
    if not blocks:
        raise FormatError("empty matrix")
    return np.vstack(blocks)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser: each command's sub-parser takes only its own
    options. Built once per process; each parse makes a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="dpsketch", description="Differentially private streaming linear algebra."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Each command takes only the options it reads.
    p_lra, p_mul, p_reg, p_ver = (
        sub.add_parser(name) for name in ("lra", "multiply", "regress", "verify")
    )
    for p in (p_lra, p_mul, p_reg, p_ver):
        # A release's seed is its secret (see _run_release); verify's is public.
        p.add_argument("--seed", type=int, default=0 if p is p_ver else None)
        p.add_argument("--report", default=None)
    for p in (p_lra, p_mul, p_reg):
        p.add_argument("--input", required=True)
        p.add_argument("--format", dest="fmt", choices=("csv", "dpbin"), default="csv")
        p.add_argument("--oracle", action="store_true")
    for p in (p_mul, p_reg):
        p.add_argument("--input-b", dest="input_b", required=True)
    for p, required in ((p_lra, True), (p_mul, True), (p_reg, True), (p_ver, False)):
        p.add_argument("--eps", type=float, required=required)
        p.add_argument("--delta", type=float, required=required)
    for p, required in ((p_mul, True), (p_reg, True), (p_ver, False)):
        p.add_argument("--alpha", type=float, required=required)
        p.add_argument("--beta", type=float, required=required)
    p_lra.add_argument("--rank", type=int, required=True)
    p_lra.add_argument("--oversample", type=int, default=None)
    return parser


def parse_args(argv) -> argparse.Namespace:
    """The parsed options: each command's namespace holds only its own."""
    cfg = _build_parser().parse_args(argv)
    opts = vars(cfg)
    # Re-validate every parameter domain up front so bad values die with a
    # usage error instead of failing deep inside a mechanism.
    for a, b, spec in (("eps", "delta", guard.PrivacyBudget),
                       ("alpha", "beta", guard.AccuracySpec)):
        if (opts.get(a) is None) != (opts.get(b) is None):
            raise ParameterDomainError(f"--{a} and --{b} must be given together")
        if opts.get(a) is not None:
            spec(opts[a], opts[b])
    if cfg.seed is None:
        cfg.seed = secrets.randbits(sketch.SEED_BITS)
    if cfg.seed < 0:
        raise ParameterDomainError(f"seed must be >= 0, got {cfg.seed}")
    if cfg.seed >= 1 << sketch.SEED_BITS:
        raise ParameterDomainError(f"seed must be < 2**{sketch.SEED_BITS}, got {cfg.seed}")
    if opts.get("rank", 1) < 1:
        raise ParameterDomainError(f"rank must be >= 1, got {cfg.rank}")
    if opts.get("oversample") is not None and cfg.oversample < 2:
        raise ParameterDomainError(f"oversampling must be >= 2, got {cfg.oversample}")
    return cfg


def _emit(cfg: argparse.Namespace, report: dict) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if cfg.report:
        with open(cfg.report, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


class _Release(NamedTuple):
    """What one release command hands back to ``_run_release``."""

    state: object  # the mechanism state: space_entries(), guard_report, lifted(A)
    outputs: dict  # name -> 2-D array: what the release publishes, in order
    errors: Callable[..., dict]  # the loaded inputs (A, and B if any) -> errors


def _run_release(cfg: argparse.Namespace, command) -> dict:
    """Shared skeleton of the lra, multiply and regress commands.

    It probes --input (and --input-b, which must have as many rows),
    builds the state (``_state``), plans the release from the shapes, the
    state's r and this process's facts, and streams the chunks to
    ``command(state, chunks)`` inside the plan's one scope
    (``_release_chunks``). --oracle scores outside it. The skeleton
    alone publishes, and leaves the seed out of the report: whoever knows
    it can recompute the release from a candidate input.
    """
    paths = [cfg.input] + ([cfg.input_b] if "input_b" in cfg else [])
    marks = []  # where each tile of --input's CSV rows starts
    rows, cols = zip(*(matrix_shape(path, cfg.fmt, None if i else marks)
                       for i, path in enumerate(paths)))
    if len(set(rows)) > 1:
        raise DPSketchError(f"row counts differ: A has {rows[0]}, B has {rows[1]}")
    state = _state(cfg, rows[0], *cols)
    plan = sketch.plan_release(cfg.command, cfg.fmt, rows[0], cols, state.sketcher.r,
                               sketch._usable_cpus(), sketch._blas_thread_fns() is not None,
                               _can_fork())
    with _release_chunks(plan, paths, cfg.fmt, (rows[0], cols[0]), marks) as (chunks, execution):
        rel = command(state, chunks)
    report = {"params": {k: v for k, v in vars(cfg).items() if k != "seed"},
              "error_vs_oracle": None, "space_entries": rel.state.space_entries(),
              "execution": execution}
    greport = rel.state.guard_report
    if cfg.oracle:
        inputs = [load_matrix(path, cfg.fmt) for path in paths]
        report["error_vs_oracle"] = rel.errors(*inputs)
        greport = guard.verify_spectral_guard(rel.state.lifted(inputs[0]), greport.required_sigma_min)
    report["guard_report"] = dict(greport.to_json_dict(), mode="exact" if cfg.oracle else "structural")
    if cfg.report:
        stem = os.path.splitext(cfg.report)[0]
        report["factor_files"] = [f"{stem}.{name}.dpmt" for name in rel.outputs]
        for path, m in zip(report["factor_files"], rel.outputs.values()):
            save_matrix(path, m)
    return report


def _can_fork() -> bool:
    """Whether a release may fork a CSV parser: with ``os.fork`` and
    ``os.memfd_create`` (the parser's blocks come back through a memfd),
    below Python 3.12, which warns on a fork beside threads (OpenBLAS's
    pool)."""
    return hasattr(os, "fork") and hasattr(os, "memfd_create") and sys.version_info < (3, 12)


@contextlib.contextmanager
def _release_chunks(plan: sketch.ReleasePlan, paths: list[str], fmt: str,
                    shape: Tuple[int, int], marks: list):
    """The chunks (i0, rows[, rows_b]) of a release's inputs, read in
    lockstep, ``plan.chunk_rows`` rows each, and its ``execution`` record,
    with the plan applied (``sketch._plan_scope``) until the scope ends.
    ``shape`` and ``marks`` are the first input's probe (``matrix_shape``),
    by which a forked reader reads its chunks. A forked reader's child is
    reaped when the scope ends."""
    with sketch._plan_scope(plan) as execution, contextlib.ExitStack() as scope:
        if execution["csv_reader"] == "forked":
            streams = [scope.enter_context(contextlib.closing(
                _forked_csv_chunks(paths[0], plan.chunk_rows, shape, marks, execution)))]
        else:
            streams = [iter_matrix_chunks(path, fmt, plan.chunk_rows) for path in paths]
        yield _in_lockstep(streams), execution


def _in_lockstep(streams: list) -> Iterator[tuple]:
    """(i0, block[, block_b]) for each chunk of the streams of (i0, block),
    all at one i0. No tuple of the zip is held across a yield: zip reuses
    its tuple only where nothing else holds it, and keeps the last one it
    made, with the blocks in it, until it does."""
    for pieces in zip(*streams):
        chunk = (pieces[0][0], *(block for _, block in pieces))
        del pieces
        yield chunk


def _state(cfg: argparse.Namespace, n: int, *cols: int):
    """The mechanism state of a release of n rows of inputs ``cols`` wide."""
    budget = guard.PrivacyBudget(cfg.eps, cfg.delta)
    if cfg.command == "lra":
        return new_lra(LraConfig(n=n, d=cols[0], k=cfg.rank, p=cfg.oversample,
                                 budget=budget, seed=cfg.seed))
    acc = guard.AccuracySpec(cfg.alpha, cfg.beta)
    if cfg.command == "multiply":
        return new_matprod(n, *cols, budget, acc, cfg.seed)
    return new_regress(n, cols[0], budget, acc, cfg.seed)


def _lra(state, chunks) -> _Release:
    for i0, block in chunks:
        state.ingest_rows(i0, block)
    factor = state.finalize()
    return _Release(state, {"uhat": factor.u_hat, "lam": factor.lam.reshape(1, -1)},
                    lambda a: harness.lra_errors(a, factor, state.config))


def _multiply(state, chunks) -> _Release:
    # One walk over all n rows reads the chunks and regenerates each
    # projection tile once for both A and B.
    state.ingest_stream(chunks)
    estimate = state.product_query()
    return _Release(state, {"estimate": estimate},
                    lambda a, b: harness.matprod_errors(a, b, estimate, state))


def _regress(state, chunks) -> _Release:
    # One walk, as in _multiply, for the design and the queries.
    solutions = state.ingest_and_query(chunks)
    return _Release(state, {"solutions": solutions},
                    lambda a, queries: harness.regress_errors(a, queries, solutions, state))


_RELEASES = {"lra": _lra, "multiply": _multiply, "regress": _regress}


def _run_verify(cfg: argparse.Namespace) -> Tuple[dict, bool]:
    budget = guard.PrivacyBudget(cfg.eps, cfg.delta) if cfg.eps else guard.PrivacyBudget(1.0, 0.01)
    acc = guard.AccuracySpec(cfg.alpha, cfg.beta) if cfg.alpha else guard.AccuracySpec(0.5, 0.2)
    checks = [
        harness.mc_pseudoinverse_frobenius(10, 11, trials=2000, seed=cfg.seed),
        harness.mc_pseudoinverse_spectral(5, 6, trials=2000, seed=cfg.seed),
        harness.mc_jl(16, 800, 0.2, trials=200, seed=cfg.seed),
        harness.mc_column_independence(21, 4000, seed=cfg.seed),
        harness.dp_density_ratio_check(6, 4, budget, samples=20000, seed=cfg.seed),
        harness.bound_check_lra(
            LraConfig(n=60, d=60, k=3, budget=budget, seed=cfg.seed), trials=10
        ),
        harness.bound_check_matprod(60, 8, 8, budget, acc, trials=10),
        harness.bound_check_regress(60, 5, budget, acc, trials=10),
    ]
    report = {"params": vars(cfg), "checks": [c.to_json_dict() for c in checks]}
    return report, all(c.passed for c in checks)


def run(cfg: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    ok = True
    try:
        # The parser admits no other command.
        if cfg.command == "verify":
            report, ok = _run_verify(cfg)
        else:
            report = _run_release(cfg, _RELEASES[cfg.command])
        report["wall_time_ms"] = (time.perf_counter() - t0) * 1e3
        _emit(cfg, report)
    except (DPSketchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if ok else 3


def main(argv=None) -> int:
    try:
        cfg = parse_args(sys.argv[1:] if argv is None else argv)
    except ParameterDomainError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
