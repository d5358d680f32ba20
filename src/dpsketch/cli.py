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
import json
import os
import secrets
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


# What the forked parser sends ahead of each chunk it owns: the chunk's i0,
# rows and cols; rows is -1 where the bulk parse refused the chunk.
_CHUNK_HEADER = struct.Struct("<qqq")


def _write_all(fd: int, data) -> None:
    view = memoryview(data).cast("B")
    while view.nbytes:
        view = view[os.write(fd, view):]


def _read_exact(fd: int, view: memoryview) -> None:
    # Fills view from fd; EOFError where the data ends first.
    while view.nbytes:
        got = os.readv(fd, [view])
        if not got:
            raise EOFError
        view = view[got:]


def _parse_odd_chunks(path: str, step: int, fd: int) -> None:
    """The forked parser's work: walk the chunks of ``path`` and send each
    odd one over fd, parsed in bulk, or refused."""
    for i0, lines, _linenos, expected in _csv_line_chunks(path, step):
        if i0 // step % 2:
            block = _bulk_csv_chunk(lines, expected)
            _write_all(fd, _CHUNK_HEADER.pack(i0, -1 if block is None else len(lines), expected))
            if block is not None:
                _write_all(fd, block)


def _receive_chunk(fd: int, i0: int, rows: int, cols: int) -> Optional[np.ndarray]:
    """The forked parser's block of rows [i0, i0 + rows), None where it
    refused the chunk. EOFError where its data ends short, or is not for
    this chunk."""
    header = bytearray(_CHUNK_HEADER.size)
    _read_exact(fd, memoryview(header))
    got_i0, got_rows, got_cols = _CHUNK_HEADER.unpack(header)
    if (got_i0, got_cols) != (i0, cols) or got_rows not in (rows, -1):
        raise EOFError
    if got_rows < 0:
        return None
    block = np.empty((rows, cols))
    _read_exact(fd, memoryview(block).cast("B"))
    return block


def _forked_csv_chunks(
    path: str, step: int, execution: dict
) -> Iterator[Tuple[int, np.ndarray]]:
    """``iter_matrix_chunks(path, "csv", step)``, with every odd chunk
    parsed by a forked child while this process parses the even ones.

    The child walks the same chunks (``_csv_line_chunks``) and parses its
    own with ``_bulk_csv_chunk``, the call the serial reader makes, so
    every block is the serial one, bit for bit. A chunk it refuses is
    parsed here by ``_parse_csv_chunk``, so a fault is found at the same
    point of the stream and named as the serial reader names it. Where the
    child's data ends short (it died) or is not for the chunk, this chunk
    and every later one are parsed here; where no child can be forked,
    every chunk is, and the release's ``execution`` record says its
    ``csv_reader`` was serial. The child never prints; it is killed, if still
    running, and reaped when the walk ends, however it ends. Close the walk
    to end it early. A fork took 1.5 ms on a 2-core Xeon, where a spawned
    interpreter that imports numpy takes about 67 ms.
    """
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        execution["csv_reader"] = "serial"
        yield from iter_matrix_chunks(path, "csv", step)
        return
    if pid == 0:
        code = 1
        try:
            os.close(rfd)
            _parse_odd_chunks(path, step, wfd)
            code = 0
        finally:
            os._exit(code)
    os.close(wfd)
    try:
        for i0, lines, linenos, expected in _csv_line_chunks(path, step):
            block = None
            if i0 // step % 2 and rfd is not None:
                try:
                    block = _receive_chunk(rfd, i0, len(lines), expected)
                except EOFError:
                    os.close(rfd)
                    rfd = None
            if block is None:
                block = _parse_csv_chunk(lines, linenos, expected)
            del lines, linenos  # as in iter_matrix_chunks
            yield i0, block
    finally:
        if rfd is not None:
            os.close(rfd)
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
    """Whether a release may fork a CSV parser: with ``os.fork``, below
    Python 3.12, which warns on a fork beside threads (OpenBLAS's pool)."""
    return hasattr(os, "fork") and sys.version_info < (3, 12)


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
        # Each item of the zip holds one (i0, block) per input, all at one i0.
        yield ((pieces[0][0], *(block for _, block in pieces)) for pieces in zip(*streams)), execution


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
