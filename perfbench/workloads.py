"""The three release workloads: seeded inputs, CLI arguments, constructors.

Every input is a pure function of the workload seed, written to files
before any timing starts; the program under test only ever sees the files.
The same seed is passed to the CLI as its sketch seed.
"""
from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

EPS, DELTA = "1", "0.01"
ALPHA, BETA = "0.5", "0.2"

# DPMT: magic, version u16, rows u32, cols u32, then little-endian float64
# row-major; the layout documented in the CLI module.
_DPMT_HEADER = struct.Struct("<4sHII")


def write_dpmt(path: str, a: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(_DPMT_HEADER.pack(b"DPMT", 1, a.shape[0], a.shape[1]))
        fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def read_dpmt(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < _DPMT_HEADER.size:
        raise ValueError(f"{path}: truncated header")
    magic, version, rows, cols = _DPMT_HEADER.unpack_from(buf)
    if magic != b"DPMT" or version != 1:
        raise ValueError(f"{path}: bad header {magic!r} v{version}")
    if len(buf) != _DPMT_HEADER.size + 8 * rows * cols:
        raise ValueError(f"{path}: payload is {len(buf)} bytes for {rows}x{cols}")
    return np.frombuffer(buf, dtype="<f8", offset=_DPMT_HEADER.size).reshape(rows, cols)


def write_csv(path: str, a: np.ndarray) -> None:
    # repr round-trips float64 exactly, so the CLI parses the very matrix
    # the checks hold in memory.
    with open(path, "w") as fh:
        fh.write("\n".join(",".join(map(repr, row)) for row in a.tolist()))
        fh.write("\n")


@dataclass
class Inputs:
    """Generated matrices (kept for the checks) and the files the CLI reads."""

    a: np.ndarray
    b: np.ndarray | None
    path_a: str
    path_b: str | None


@dataclass(frozen=True)
class Workload:
    """One release command; ``d2`` is the column count of the second file
    (B for multiply, the query vectors for regress)."""

    name: str
    command: str
    fmt: str
    n: int
    d: int
    d2: int = 0
    rank: int = 0

    def generate(self, seed: int, workdir: str) -> Inputs:
        if self.command == "lra":
            # A rank-30 signal plus 0.1 Gaussian noise: the input low-rank
            # approximation exists for. The draw order is fixed so the
            # numbers recorded in NOTES.md reproduce.
            rng = np.random.default_rng(seed)
            signal = rng.standard_normal((self.n, 30)) @ rng.standard_normal((30, self.d))
            a = signal + 0.1 * rng.standard_normal((self.n, self.d))
            path = os.path.join(workdir, "a.csv")
            write_csv(path, a)
            return Inputs(a=a, b=None, path_a=path, path_b=None)
        rng = np.random.default_rng([seed, 1 if self.command == "multiply" else 2])
        a = rng.standard_normal((self.n, self.d))
        if self.command == "multiply":
            b = rng.standard_normal((self.n, self.d2))
        else:
            # Each query column is A @ x_j plus unit noise, so every
            # least-squares optimum is well away from zero.
            x = rng.standard_normal((self.d, self.d2))
            b = a @ x + rng.standard_normal((self.n, self.d2))
        path_a = os.path.join(workdir, "a.dpmt")
        path_b = os.path.join(workdir, "b.dpmt")
        write_dpmt(path_a, a)
        write_dpmt(path_b, b)
        return Inputs(a=a, b=b, path_a=path_a, path_b=path_b)

    def cli_args(self, inputs: Inputs, seed: int, report: str, oracle: bool) -> list[str]:
        args = [self.command, "--input", inputs.path_a]
        if self.command == "lra":
            args += ["--rank", str(self.rank)]
        else:
            args += ["--input-b", inputs.path_b, "--alpha", ALPHA, "--beta", BETA]
        args += ["--eps", EPS, "--delta", DELTA, "--seed", str(seed),
                 "--format", self.fmt, "--report", report]
        if oracle:
            args.append("--oracle")
        return args

    def construct(self, seed: int):
        """Call the mechanism's public constructor as the CLI would."""
        import dpsketch

        budget = dpsketch.PrivacyBudget(float(EPS), float(DELTA))
        acc = dpsketch.AccuracySpec(float(ALPHA), float(BETA))
        if self.command == "lra":
            cfg = dpsketch.LraConfig(n=self.n, d=self.d, k=self.rank, budget=budget, seed=seed)
            return dpsketch.new_lra(cfg)
        if self.command == "multiply":
            return dpsketch.new_matprod(self.n, self.d, self.d2, budget, acc, seed)
        return dpsketch.new_regress(self.n, self.d, budget, acc, seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lra-csv", "lra", "csv", n=2000, d=1000, rank=50),
        Workload("multiply-dpmt", "multiply", "dpbin", n=20000, d=50, d2=50),
        Workload("regress-dpmt", "regress", "dpbin", n=2000, d=20, d2=20),
    )
}
