"""Output checks for every release, the oracle metrics, and a negative control.

A release fails when it exits nonzero or raises, when its report does not
parse or says the spectral guard did not pass, or when an output it
published is missing, misshaped, non-finite or disagrees with what the
benchmark computes on its own from the same inputs:

- ``lra``: the factor files are read back. u_hat must have orthonormal
  columns, and ||A - approx||_F computed from the files must equal the
  oracle report's ``frobenius_error`` (relative ``REL_TOL``).
- ``multiply`` and ``regress`` publish numbers only in the oracle report.
  Those must match an estimate the benchmark rebuilds from the documented
  projection (Philox words mapped through Box-Muller, column by column)
  and the documented lift layout.

A report whose own ``error_bound`` is exceeded (``bound_ratio > 1``) is a
finding about the program, printed as FOUND; it is not a failed release.
"""
from __future__ import annotations

import json
import math
import os

import numpy as np

from workloads import Inputs, Workload, read_dpmt, write_dpmt

# Recomputed outputs agree with the program's to ~1e-13 (summation order
# and solver differences); a change of 0.1% in a regression solution moves
# its residual by 3e-7.
REL_TOL = 1e-9
ORTHO_TOL = 1e-8


def close_enough(x: float, ref: float) -> bool:
    return math.isfinite(x) and abs(x - ref) <= REL_TOL * max(abs(ref), 1e-300)


def read_report(rec: dict, oracle: bool) -> tuple[dict | None, list[str]]:
    """Parse one release's report and apply the checks every workload shares."""
    if rec.get("error"):
        return None, [f"raised: {rec['error'].strip().splitlines()[-1]}"]
    if rec.get("exit") != 0:
        return None, [f"exit code {rec.get('exit')}"]
    try:
        with open(rec["report"]) as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return None, [f"report unreadable: {exc}"]
    problems = []
    guard = report.get("guard_report") or {}
    if guard.get("passed") is not True:
        problems.append(f"guard_report.passed is {guard.get('passed')!r}")
    if guard.get("mode") != ("exact" if oracle else "structural"):
        problems.append(f"guard_report.mode is {guard.get('mode')!r}")
    entries = report.get("space_entries")
    if not isinstance(entries, int) or entries < 1:
        problems.append(f"space_entries is {entries!r}")
    if oracle and not report.get("error_vs_oracle"):
        problems.append("oracle report has no error_vs_oracle")
    return report, problems


def lra_factor_error(wl: Workload, inputs: Inputs, report: dict) -> tuple[float, list[str]]:
    """||A - approx||_F from the published factor files, plus their problems."""
    files = report.get("factor_files") or []
    if len(files) != 2:
        return math.nan, [f"factor_files is {files!r}"]
    try:
        u_hat, lam = read_dpmt(files[0]), read_dpmt(files[1])
    except (OSError, ValueError) as exc:
        return math.nan, [f"factor file unreadable: {exc}"]
    if u_hat.shape != (wl.n + wl.d, wl.rank) or lam.shape != (1, wl.rank):
        return math.nan, [f"factor shapes {u_hat.shape} and {lam.shape}"]
    if not (np.isfinite(u_hat).all() and np.isfinite(lam).all()):
        return math.nan, ["non-finite factor entries"]
    problems = []
    ortho = float(np.abs(u_hat.T @ u_hat - np.eye(wl.rank)).max())
    if ortho > ORTHO_TOL:
        problems.append(f"u_hat columns are not orthonormal (max |U'U - I| = {ortho:.3g})")
    approx = (u_hat[: wl.n] * lam[0]) @ u_hat[wl.n :].T
    return float(np.linalg.norm(inputs.a - approx)), problems


def projection_columns(seed: int, r: int, j0: int, j1: int) -> np.ndarray:
    """Columns [j0, j1) of the r x m projection, rebuilt from its specification."""
    words_per_col = 4 * ((r + 3) // 4)
    gen = np.random.Philox(key=seed)
    gen.advance(j0 * words_per_col // 4)
    words = gen.random_raw((j1 - j0) * words_per_col)
    u1 = ((words[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
    u2 = (words[1::2] >> np.uint64(11)).astype(np.float64) * 2.0**-53
    radius, angle = np.sqrt(-2.0 * np.log(u1)), 2.0 * np.pi * u2
    normals = np.empty(words.size)
    normals[0::2] = radius * np.cos(angle)
    normals[1::2] = radius * np.sin(angle)
    return normals.reshape(j1 - j0, words_per_col)[:, :r].T


def _lifted_sketch(seed: int, r: int, s: float, a: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(sketch of the lifted ``a``, data block of the projection).

    Lift layout of length 2(n + d): s * identity rows [0, d), zeros, then
    the data rows [2d + n, 2d + 2n).
    """
    n, cols = a.shape
    data_block = projection_columns(seed, r, 2 * d + n, 2 * d + 2 * n)
    return s * projection_columns(seed, r, 0, cols) + data_block @ a, data_block


class OracleCheck:
    """Checks the oracle release and derives ``rel_error`` and ``bound_ratio``."""

    def __init__(self, wl: Workload, inputs: Inputs, seed: int):
        self.wl, self.inputs, self.seed = wl, inputs, seed

    def __call__(self, report: dict, structural: dict) -> tuple[dict, list[str]]:
        """``structural``: a non-oracle report of the same run, which carries the lift."""
        err = report["error_vs_oracle"]
        if self.wl.command == "lra":
            return self._lra(report, err)
        s = float(structural["guard_report"]["observed_sigma_min"])
        if self.wl.command == "multiply":
            return self._multiply(report, err, s)
        return self._regress(report, err, s)

    def _lra(self, report, err):
        a, k = self.inputs.a, self.wl.rank
        from_files, problems = lra_factor_error(self.wl, self.inputs, report)
        frob = float(err["frobenius_error"])
        if not close_enough(frob, from_files):
            problems.append(f"frobenius_error {frob!r} but the factor files give {from_files!r}")
        sigma = np.linalg.svd(a, compute_uv=False)
        optimum = math.sqrt(float(np.sum(sigma[k:] ** 2)))
        if not close_enough(float(err["eckart_young_optimum"]), optimum):
            problems.append(f"eckart_young_optimum {err['eckart_young_optimum']!r}, expected {optimum!r}")
        return {"rel_error": frob / optimum, "bound_ratio": frob / float(err["error_bound"]),
                "frobenius_error": frob}, problems

    def _multiply(self, report, err, s):
        a, b = self.inputs.a, self.inputs.b
        d1, d2 = a.shape[1], b.shape[1]
        r = report["space_entries"] // (d1 + d2)
        ya, _ = _lifted_sketch(self.seed, r, s, a, max(d1, d2))
        yb, _ = _lifted_sketch(self.seed, r, s, b, max(d1, d2))
        est = ya.T @ yb / r
        est[np.diag_indices(min(d1, d2))] -= s * s
        expected = float(np.linalg.norm(a.T @ b - est))
        frob = float(err["frobenius_error"])
        problems = []
        if not close_enough(frob, expected):
            problems.append(f"frobenius_error {frob!r}, expected {expected!r}")
        scale = float(np.linalg.norm(a)) * float(np.linalg.norm(b))
        return {"rel_error": frob / scale, "bound_ratio": frob / float(err["error_bound"])}, problems

    def _regress(self, report, err, s):
        a, q = self.inputs.a, self.inputs.b
        r = report["space_entries"] // a.shape[1]
        ya, data_block = _lifted_sketch(self.seed, r, s, a, a.shape[1])
        x = np.linalg.lstsq(ya, data_block @ q, rcond=None)[0]
        x_opt = np.linalg.lstsq(a, q, rcond=None)[0]
        expected_res = np.linalg.norm(a @ x - q, axis=0)
        expected_opt = np.linalg.norm(a @ x_opt - q, axis=0)
        res = np.asarray(err["residuals"], dtype=float)
        opt = np.asarray(err["optima"], dtype=float)
        bound = np.asarray(err["error_bound"], dtype=float)
        problems = []
        if res.shape != (q.shape[1],) or opt.shape != res.shape or bound.shape != res.shape:
            return {}, [f"oracle arrays have shapes {res.shape}, {opt.shape}, {bound.shape}"]
        for name, got, want in (("residuals", res, expected_res), ("optima", opt, expected_opt)):
            bad = [j for j in range(len(got)) if not close_enough(float(got[j]), float(want[j]))]
            if bad:
                j = bad[0]
                problems.append(f"{name}[{j}] is {float(got[j])!r}, expected {float(want[j])!r} "
                                f"({len(bad)} differ)")
        return {"rel_error": float(np.max(res / opt)),
                "bound_ratio": float(np.max(res / bound))}, problems


def negative_control(wl: Workload, inputs: Inputs, oracle: OracleCheck, report: dict,
                     structural: dict, workdir: str) -> list[str]:
    """Corrupt one published output and return the problems the checks find.

    ``lra``: one entry of a copied u_hat file is scaled by 1.5. The others
    have no output file, so one number of a copied oracle report is.
    An empty list means the checks missed the corruption.
    """
    bad = json.loads(json.dumps(report))
    if wl.command == "lra":
        dst = os.path.join(workdir, "corrupt.uhat.dpmt")
        u_hat = read_dpmt(report["factor_files"][0]).copy()
        i, j = np.unravel_index(np.argmax(np.abs(u_hat)), u_hat.shape)
        u_hat[i, j] *= 1.5
        write_dpmt(dst, u_hat)
        bad["factor_files"] = [dst, report["factor_files"][1]]
    elif wl.command == "multiply":
        bad["error_vs_oracle"]["frobenius_error"] *= 1.5
    else:
        bad["error_vs_oracle"]["residuals"][0] *= 1.5
    return oracle(bad, structural)[1]


def check_run(wl: Workload, inputs: Inputs, seed: int, releases: list[dict], oracle_rec: dict,
              workdir: str) -> tuple[dict[str, list[str]], dict, list[str]]:
    """Check every release of a run and the oracle release against them.

    Returns the problems of each failed op, the oracle metrics (with the
    retained entries), and what the negative control found (empty if it
    was not caught).
    """
    failures: dict[str, list[str]] = {}
    reports = []
    for i, rec in enumerate(releases):
        report, problems = read_report(rec, oracle=False)
        if report is not None and wl.command == "lra":
            rec["factor_error"], more = lra_factor_error(wl, inputs, report)
            problems += more
        reports.append(report)
        if problems:
            failures[f"release {i}"] = problems
    oracle_report, problems = read_report(oracle_rec, oracle=True)
    structural = next((r for r in reports if r is not None), None)
    quality, caught = {}, []
    if oracle_report is None or structural is None or problems:
        problems.append("no oracle check possible")
    else:
        oracle = OracleCheck(wl, inputs, seed)
        try:
            quality, more = oracle(oracle_report, structural)
            caught = negative_control(wl, inputs, oracle, oracle_report, structural, workdir)
        except (KeyError, IndexError, TypeError, ValueError, OSError) as exc:
            more = [f"oracle report malformed: {exc!r}"]
        problems += more
    if problems:
        failures["oracle release"] = problems
    if oracle_report is None:
        return failures, quality, caught
    if isinstance(oracle_report.get("space_entries"), int):
        quality["retained_entries"] = oracle_report["space_entries"]
    for i, (rec, report) in enumerate(zip(releases, reports)):
        if report is None:
            continue
        bad = []
        if report["space_entries"] != oracle_report["space_entries"]:
            bad.append(f"space_entries {report['space_entries']} differs from the oracle release")
        if "frobenius_error" in quality and not close_enough(
                rec.get("factor_error", math.nan), quality["frobenius_error"]):
            bad.append(f"factor files give error {rec.get('factor_error')!r}, "
                       f"oracle release {quality['frobenius_error']!r}")
        if bad:
            failures.setdefault(f"release {i}", []).extend(bad)
    return failures, quality, caught
