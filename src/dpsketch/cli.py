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
materialize the private matrix unless --oracle is given. A CSV chunk is
parsed in one call to numpy's C reader; a chunk with a fault is read
again line by line, so the error names its line. One release skeleton,
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


def _csv_lines(path: str) -> Iterator[str]:
    """The lines of a CSV file; a file that is not text is a FormatError."""
    with open(path, "r") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise FormatError(
                f"CSV input is not text ({exc.reason}); DPMT files need --format dpbin"
            ) from exc


def matrix_shape(path: str, fmt: str) -> Tuple[int, int]:
    """Probe (rows, cols) without parsing entries (CSV) or payload (binary).

    A binary file whose size disagrees with its header is refused here,
    before any row is read.
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
    # Blank lines are skipped, as iter_matrix_chunks skips them.
    lines = (line for line in _csv_lines(path) if line.strip())
    first = next(lines, None)
    if first is None:
        raise FormatError("empty CSV matrix")
    return 1 + sum(1 for _ in lines), first.count(",") + 1


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
    for i0, lines, linenos, expected in _csv_line_chunks(path, step):
        block = _parse_csv_chunk(lines, linenos, expected)
        del lines, linenos  # no chunk's lines are held while the next one's are read
        yield i0, block


def _csv_line_chunks(
    path: str, step: Optional[int]
) -> Iterator[Tuple[int, list[str], list[int], int]]:
    """(i0, lines, linenos, expected) for each chunk of a CSV file: the
    chunk's first row, its non-blank lines with their line numbers, and the
    width of the file's first line. Chunks hold ``step`` lines (the last may
    hold fewer), by default one tile of that width. The one walk of a CSV
    file's chunks, for the serial reader and the forked parser alike."""
    expected = None
    i0 = 0
    lines, linenos = [], []
    for lineno, line in enumerate(_csv_lines(path), start=1):
        if not line.strip():
            continue
        if expected is None:
            # The first line sets the width and the chunk size.
            expected = _parse_csv_line(line, lineno, None).size
            step = step or sketch.per_tile(expected)
        lines.append(line)
        linenos.append(lineno)
        if len(lines) == step:
            yield i0, lines, linenos, expected
            i0 += step
            lines, linenos = [], []
    if lines:
        yield i0, lines, linenos, expected


# How many chunks the forked parser may hold claimed that the release has
# not yet taken: one being parsed, one waiting in its slot. Each has a block
# slot in the file the two share, named by a one-byte token.
_RUN_AHEAD = 2

# What the forked parser reports on each chunk it claimed: the chunk, its
# rows (-1 where the bulk parse refused it) and the slot its block is in.
_REPORT = struct.Struct("<qqq")


def _slot_at(slot: int, step: int, cols: int) -> int:
    # Where a block slot starts in the shared file: past the count of
    # claimed chunks at offset 0, one block of ``step`` rows a slot.
    return 8 * (1 + slot * step * cols)


def _claim(fd: int, k: Optional[int] = None) -> Optional[int]:
    """Claim the first chunk no process has claimed, or chunk k only where
    it is that one; the chunk claimed, or None. The count of claimed chunks,
    at offset 0 of the shared file fd (it reads 0 before anyone writes it),
    is read and moved under a record lock on fd, which the kernel drops if
    its holder dies, so a parser that dies in a claim stalls no release."""
    os.lockf(fd, os.F_LOCK, 0)
    try:
        first = int.from_bytes(os.pread(fd, 8, 0), "little")
        if k is not None and k != first:
            return None
        os.pwrite(fd, (first + 1).to_bytes(8, "little"), 0)
        return first
    finally:
        os.lockf(fd, os.F_ULOCK, 0)


def _parse_claimed_chunks(path: str, step: int, fd: int, slots: int, reports: int) -> None:
    """The forked parser's work, on one thread: walk the chunks of ``path``
    and claim each one no process has claimed yet (``_claim``), taking a
    free block slot (a token read from ``slots``) before each claim, so
    that it holds at most ``_RUN_AHEAD`` chunks the release has not taken.
    Each claimed chunk is parsed in bulk and its block written to the
    slot's place in the shared file fd; then the chunk, its rows (-1 where
    the bulk parse refused it) and the slot are reported on ``reports``."""
    slot = b""
    for i0, lines, _linenos, expected in _csv_line_chunks(path, step):
        slot = slot or os.read(slots, 1)
        if not slot:
            return  # the release is gone
        if _claim(fd, i0 // step) is None:
            continue
        block = _bulk_csv_chunk(lines, expected)
        if block is not None and os.pwrite(fd, block, _slot_at(slot[0], step, expected)) != block.nbytes:
            raise OSError("short write to a block slot")
        os.write(reports, _REPORT.pack(i0 // step, -1 if block is None else len(lines), slot[0]))
        slot = b""


def _receive_block(fd: int, reports: int, k: int, cols: int, step: int):
    """(block, slot): the forked parser's next report, on chunk k, and the
    block it names, read from its slot in the shared file fd into a fresh
    array; the block is None where the parser refused the chunk. EOFError
    where the reports end (the parser died) or the report is not for this
    chunk."""
    report = os.read(reports, _REPORT.size)
    if len(report) < _REPORT.size:
        raise EOFError
    got_k, rows, slot = _REPORT.unpack(report)
    if got_k != k or rows > step:
        raise EOFError
    if rows < 0:
        return None, slot
    block = np.empty((rows, cols))
    if os.preadv(fd, [block], _slot_at(slot, step, cols)) != block.nbytes:
        raise EOFError
    return block, slot


def _forked_csv_chunks(
    path: str, step: int, execution: dict
) -> Iterator[Tuple[int, np.ndarray]]:
    """``iter_matrix_chunks(path, "csv", step)``, with the chunks parsed by
    this process and a forked child, each chunk by whichever is free to
    claim it.

    Both walk the same chunks (``_csv_line_chunks``) and claim them in row
    order from one count in a memfd they share (``_claim``); this process
    claims chunk 0 before it forks. The child, on one thread, takes a free
    block slot before each claim, claims each chunk it walks to that is
    still unclaimed, and parses it with ``_bulk_csv_chunk``, the call the
    serial reader makes, so every block is the serial one, bit for bit. It
    writes the block into its slot in the memfd and reports the chunk on a
    pipe. This process yields the chunks in row order: its next one from the
    child where a report is ready to read (``_receive_block`` copies the
    block out of its slot and the slot goes back to the child); else it
    claims the first unclaimed chunk. That is its next chunk, or a later
    one, which it parses in bulk while the child finishes the next: it
    then drops the next chunk's lines, and holds at most that one block
    ahead, so it holds no more than the serial reader, one chunk's lines
    and one block. A chunk the child refuses is parsed here by
    ``_parse_csv_chunk`` (from a fresh walk of the lines where they were
    dropped), so a fault is found at the same point of the stream and named
    as the serial reader names it. Where the child's reports end (it died)
    or one is not for the chunk, this chunk and every later one are parsed
    here; where no child can be forked, every chunk is, and the release's
    ``execution`` record says its ``csv_reader`` was serial. Its
    ``parser_chunks`` counts the blocks the child supplied. The child never
    prints; it is killed, if still running, and reaped when the walk ends,
    however it ends, and the memfd and pipes are closed. Close the walk to
    end it early. A fork took 1.5 ms on a 2-core Xeon, where a spawned
    interpreter that imports numpy takes about 67 ms.
    """
    fds, pid = [], None  # what this process closes, and the child
    # This process's walk of the lines and the chunks it gave.
    walk, at = None, 0
    try:
        try:
            shared = os.memfd_create("dpsketch-csv")
            fds.append(shared)
            slots = os.pipe()
            fds += slots
            reports = os.pipe()
            fds += reports
            os.write(slots[1], bytes(range(_RUN_AHEAD)))
            _claim(shared)  # chunk 0 is this process's: the child starts on chunk 1
            pid = os.fork()
        except OSError:
            execution["csv_reader"] = "serial"
        if pid is None:
            yield from iter_matrix_chunks(path, "csv", step)
            return
        if pid == 0:
            code = 1
            try:
                os.close(reports[0])
                os.close(slots[1])
                _parse_claimed_chunks(path, step, shared, slots[0], reports[1])
                code = 0
            finally:
                os._exit(code)
        # This process keeps the slots' read end, so that giving a slot back
        # never fails; the child sees their end once this one is gone.
        fds.remove(reports[1])
        os.close(reports[1])
        reports = reports[0]

        def lines_of(k: int):
            # Chunk k's (i0, lines, linenos, expected), None past the last;
            # a walk that has passed chunk k starts again.
            nonlocal walk, at
            if walk is None or at > k:
                if walk is not None:
                    walk.close()
                walk, at = _csv_line_chunks(path, step), 0
            for chunk in walk:
                at += 1
                if at > k:
                    return chunk
                del chunk  # a chunk passed over is not held while the next is read
            return None

        def parse_ahead(m: int) -> Optional[np.ndarray]:
            nonlocal walk, at
            try:
                chunk = lines_of(m)
            except FormatError:
                # A fault in the lines before chunk m: raised again at its
                # own chunk, from a fresh walk.
                walk, at = None, 0
                return None
            if chunk is None:
                return None
            block = _bulk_csv_chunk(chunk[1], chunk[3])
            chunk[1].clear()  # its lines go, before the next chunk's block comes
            return block

        ahead = None  # (m, block): the chunk claimed past the next one; block None if not parsed
        for k in itertools.count():
            chunk = block = None
            mine = reports is None or k == 0
            if ahead is not None and ahead[0] == k:
                block, ahead, mine = ahead[1], None, True
            else:
                if at <= k:  # else the walk passed chunk k in a claim ahead
                    chunk = lines_of(k)
                    if chunk is None:
                        return
                    expected = chunk[3]
                # Is a report ready? (select: a poll object would make its
                # fd array at its first call, and hold it past chunk 0.)
                if not mine and ahead is None and not select.select([reports], [], [], 0)[0]:
                    m = _claim(shared)
                    mine = m == k
                    if not mine:
                        chunk = None  # waiting on the child: these lines go
                        ahead = (m, parse_ahead(m))
                if not mine:
                    try:
                        block, slot = _receive_block(shared, reports, k, expected, step)
                    except EOFError:
                        fds.remove(reports)
                        os.close(reports)
                        reports = None
                    else:
                        os.write(slots[1], bytes([slot]))
                        execution["parser_chunks"] += block is not None
            if block is None:
                chunk = chunk or lines_of(k)
                if chunk is None:
                    return
                block = _parse_csv_chunk(*chunk[1:])
            del chunk  # as in iter_matrix_chunks
            yield k * step, block
    finally:
        if walk is not None:
            walk.close()
        for fd in fds:
            os.close(fd)
        if pid:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


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
    rows, cols = zip(*(matrix_shape(path, cfg.fmt) for path in paths))
    if len(set(rows)) > 1:
        raise DPSketchError(f"row counts differ: A has {rows[0]}, B has {rows[1]}")
    state = _state(cfg, rows[0], *cols)
    plan = sketch.plan_release(cfg.command, cfg.fmt, rows[0], cols, state.sketcher.r,
                               sketch._usable_cpus(), sketch._blas_thread_fns() is not None,
                               _can_fork())
    with _release_chunks(plan, paths, cfg.fmt) as (chunks, execution):
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
def _release_chunks(plan: sketch.ReleasePlan, paths: list[str], fmt: str):
    """The chunks (i0, rows[, rows_b]) of a release's inputs, read in
    lockstep, ``plan.chunk_rows`` rows each, and its ``execution`` record,
    with the plan applied (``sketch._plan_scope``) until the scope ends.
    A forked reader's child is reaped when the scope ends."""
    with sketch._plan_scope(plan) as execution, contextlib.ExitStack() as scope:
        if execution["csv_reader"] == "forked":
            streams = [scope.enter_context(contextlib.closing(
                _forked_csv_chunks(paths[0], plan.chunk_rows, execution)))]
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
