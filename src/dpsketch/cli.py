"""Command-line entry point: matrix ingestion, mechanisms, verification.

Commands
--------
lra       single-pass private low-rank approximation of a CSV/binary matrix
multiply  private transposed product A.T @ B of two column streams
regress   private least squares against a sketched design matrix
verify    run the harness verification suite

Matrix files are either headerless CSV (one row per line) or the "DPMT"
binary format (magic, version u16, rows u32, cols u32, little-endian
float64 row-major). Streaming commands consume the input through a one-pass
iterator of row chunks, each about one projection tile in size (four for
``lra``, which regenerates its data block once per chunk), feed each
chunk to the mechanism's block ingest, and never materialize the private
matrix unless --oracle is given. A CSV chunk is parsed in one call to
numpy's C reader; a chunk with a fault is read again line by line, so the
error names its line. One release skeleton, ``_run_release``, probes and
reads every input and writes every output. ``multiply`` and ``regress``
take a second input (B; the queries) with as many rows as the first; the
skeleton reads the two together, in chunks of the same rows, and each
command sketches a pair of chunks in one pass over the projection tiles.
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
import functools
import json
import os
import secrets
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


def _parse_csv_chunk(lines: list[str], linenos: list[int], expected: int) -> np.ndarray:
    """The (len(lines), expected) block of non-blank CSV lines.

    numpy's C reader parses the chunk in one call; it rounds decimals as
    ``float()`` does. A chunk it refuses, reads to another shape or reads
    with a non-finite entry is parsed again line by line, which names the
    line at fault or keeps entries only ``float()`` reads, such as ``1_0``.
    """
    block = None
    # loadtxt strips the ASCII separators \x1c-\x1f around an entry as
    # whitespace, where float() refuses them, so a chunk holding one is
    # left to the line-by-line parse.
    if not any(c in x for x in lines for c in "\x1c\x1d\x1e\x1f"):
        try:
            block = np.loadtxt(lines, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
        except ValueError:
            pass
    if block is None or block.shape != (len(lines), expected) or not np.isfinite(block).all():
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
            yield i0, _parse_csv_chunk(lines, linenos, expected)
            i0 += step
            lines, linenos = [], []
    if lines:
        yield i0, _parse_csv_chunk(lines, linenos, expected)


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

    The skeleton owns the inputs: it probes --input (and --input-b, which
    must have as many rows) and reads them in chunks (i0, rows[, rows_b])
    of one tile of the widest input, four for ``lra``.
    ``command(cfg, chunks, n, *cols)`` builds its mechanism, streams the
    chunks, answers and returns a ``_Release``; --oracle loads every input
    whole to score it. The skeleton alone publishes: it writes every output
    of the release, as the module docstring says. The seed fixes the
    projection, and whoever knows it can recompute the release from a
    candidate input, so the report leaves it out.
    """
    paths = [cfg.input] + ([cfg.input_b] if "input_b" in cfg else [])
    rows, cols = zip(*(matrix_shape(path, cfg.fmt) for path in paths))
    if len(set(rows)) > 1:
        raise DPSketchError(f"row counts differ: A has {rows[0]}, B has {rows[1]}")
    # One tile of the widest input per chunk. lra regenerates its whole
    # d x (k+p) data block once per chunk, so its chunks span four tiles:
    # on a 2,000 x 1,000 CSV at k = 50 (2-core Xeon), 1-tile chunks made a
    # release ~12% slower and 4-tile ones were within noise, for ~10 MiB
    # more peak memory, most of it the CSV reader's lines.
    step = sketch.per_tile(max(cols)) * (4 if cfg.command == "lra" else 1)
    # Each item of the zip holds one (i0, block) per input, all at one i0.
    streams = zip(*(iter_matrix_chunks(path, cfg.fmt, step) for path in paths))
    chunks = ((pieces[0][0], *(block for _, block in pieces)) for pieces in streams)
    rel = command(cfg, chunks, rows[0], *cols)
    report = {"params": {k: v for k, v in vars(cfg).items() if k != "seed"},
              "error_vs_oracle": None, "space_entries": rel.state.space_entries()}
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


def _lra(cfg: argparse.Namespace, chunks, n: int, d: int) -> _Release:
    lcfg = LraConfig(
        n=n, d=d, k=cfg.rank, p=cfg.oversample,
        budget=guard.PrivacyBudget(cfg.eps, cfg.delta), seed=cfg.seed,
    )
    # LRA releases run outside sketch._release_threads: generation is little
    # of them (lra-csv: 20 of 410 ms), next to parsing and BLAS.
    state = new_lra(lcfg)
    for i0, block in chunks:
        state.ingest_rows(i0, block)
    factor = state.finalize()
    return _Release(state, {"uhat": factor.u_hat, "lam": factor.lam.reshape(1, -1)},
                    lambda a: harness.lra_errors(a, factor, lcfg))


def _multiply(cfg: argparse.Namespace, chunks, n: int, d1: int, d2: int) -> _Release:
    budget, acc = guard.PrivacyBudget(cfg.eps, cfg.delta), guard.AccuracySpec(cfg.alpha, cfg.beta)
    state = new_matprod(n, d1, d2, budget, acc, cfg.seed)
    # Each projection tile is regenerated once for both A and B. Each chunk
    # is one walk, so the release may walk on two threads (sketch module).
    with sketch._release_threads(state.sketcher.r, min(n, sketch.per_tile(max(d1, d2)))):
        for i0, block_a, block_b in chunks:
            state.ingest_rows(i0, block_a, block_b)
        estimate = state.product_query()
    return _Release(state, {"estimate": estimate},
                    lambda a, b: harness.matprod_errors(a, b, estimate, state))


def _regress(cfg: argparse.Namespace, chunks, n: int, d: int, q: int) -> _Release:
    budget, acc = guard.PrivacyBudget(cfg.eps, cfg.delta), guard.AccuracySpec(cfg.alpha, cfg.beta)
    state = new_regress(n, d, budget, acc, cfg.seed)
    # Each projection tile is regenerated once for both the design and the
    # queries, and each chunk is one walk, as in _multiply.
    with sketch._release_threads(state.sketcher.r, min(n, sketch.per_tile(max(d, q)))):
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
