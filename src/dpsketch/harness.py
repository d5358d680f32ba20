"""Exact oracles, Monte-Carlo lemma verifiers, and mechanism bound checks.

Each mechanism's errors against the exact answer are computed once, by
``lra_errors``, ``matprod_errors`` and ``regress_errors``, which the
bound checks and the CLI's ``--oracle`` reports share. Monte-Carlo
operations are driven by explicit seeds and are exactly reproducible;
reports carry the seeds used. Trials run one after another in seed order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import guard, numerics
from .errors import ContractViolationError, ParameterDomainError
from .lra import LowRankFactor, LraConfig, new_lra, reconstruct
from .matprod import MatProdState, new_matprod
from .regress import RegressState, new_regress
from .sketch import GaussianSketcher, per_tile


@dataclass
class BoundReport:
    """Outcome of one verifier: per-trial observations against a bound.

    ``allowed`` is the final failure-rate threshold including any
    Monte-Carlo slack the check defines; pass means
    violations/trials <= allowed.
    """

    check: str
    trials: int
    violations: int
    allowed: float
    seeds: list = field(default_factory=list)
    observed_lhs: np.ndarray = field(default_factory=lambda: np.empty(0))
    bound_rhs: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def passed(self) -> bool:
        return self.violations / self.trials <= self.allowed

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "trials": self.trials,
            "violations": self.violations,
            "allowed": self.allowed,
            "pass": self.passed,
            "seeds": [int(s) for s in self.seeds],
        }


def _trials(count: int, name: str = "trials") -> int:
    """``count``, refused below 1: a check of no trials has no failure rate."""
    if count < 1:
        raise ParameterDomainError(f"{name} must be >= 1, got {count}")
    return count


def binomial_allowed(rate: float, trials: int) -> float:
    """Failure-rate allowance: nominal rate plus a 3-sigma binomial band."""
    return rate + 3.0 * math.sqrt(max(rate * (1.0 - rate), 0.0) / trials)


# ---------------------------------------------------------------------------
# Exact oracles


def exact_lsq(a, b) -> np.ndarray:
    """Minimum-norm least-squares solution via the pseudo-inverse."""
    m = numerics.as_matrix(a)
    rhs = np.asarray(b, dtype=np.float64)
    if rhs.shape[0] != m.shape[0]:
        raise ContractViolationError(
            f"rhs has {rhs.shape[0]} rows, expected {m.shape[0]}"
        )
    x, *_ = np.linalg.lstsq(m, rhs, rcond=None)
    return x


def exact_product(a, b) -> np.ndarray:
    """Exact A.T @ B, the transposed-product convention of the multiply query."""
    ma = numerics.as_matrix(a, "a")
    mb = numerics.as_matrix(b, "b")
    if ma.shape[0] != mb.shape[0]:
        raise ContractViolationError(
            f"row counts differ: {ma.shape[0]} vs {mb.shape[0]}"
        )
    return ma.T @ mb


# ---------------------------------------------------------------------------
# Random-matrix lemma verifiers


def _mc_pseudoinverse(check: str, k: int, p: int, trials: int, seed: int,
                      per_trial, rhs: float, holds) -> BoundReport:
    """``per_trial`` of the singular values of ``trials`` standard Gaussian
    (k+p) x k matrices (those of the lemma's k x (k+p) transposes) against
    ``rhs``. All or nothing: every trial counts as a violation unless
    ``holds`` accepts the mean over trials.

    Each trial's matrix is k consecutive columns of one shipped projection
    with r = k + p rows (``GaussianSketcher.column_block``), as the
    low-rank mechanism draws its Omega, so the check sees the generator
    the proofs apply the lemma to. The trials are drawn a tile of entries
    at a time.
    """
    sketcher = GaussianSketcher(seed, k + p, _trials(trials) * k)
    step = per_tile((k + p) * k)
    lhs = []
    for t0 in range(0, trials, step):
        t1 = min(t0 + step, trials)
        block = sketcher.column_block(t0 * k, t1 * k)
        omegas = block.reshape(k + p, t1 - t0, k).transpose(1, 0, 2)
        lhs.append(per_trial(np.linalg.svd(omegas, compute_uv=False)))
    lhs = np.concatenate(lhs)
    violations = 0 if holds(float(lhs.mean())) else trials
    return BoundReport(check=check, trials=trials, violations=violations, allowed=0.0,
                       seeds=[seed], observed_lhs=lhs, bound_rhs=np.full(trials, rhs))


def mc_pseudoinverse_frobenius(
    k: int, p: int, trials: int, seed: int = 0, rel_tol: float = 0.05
) -> BoundReport:
    """Mean squared Frobenius norm of Gaussian pseudo-inverses vs k/(p-1).

    Samples k x (k+p) standard Gaussians; the trace identity gives
    E||pinv||_F^2 = k/(p-1) for that shape. Fails when the mean misses by
    more than ``rel_tol``.
    """
    if p < 2:
        raise ParameterDomainError(f"oversampling must be >= 2, got {p}")
    expected = k / (p - 1.0)
    return _mc_pseudoinverse(
        "pseudoinverse_frobenius", k, p, trials, seed,
        lambda sv: np.sum(1.0 / sv**2, axis=1), expected,
        lambda mean: abs(mean - expected) <= rel_tol * expected,
    )


def mc_pseudoinverse_spectral(
    k: int, p: int, trials: int, seed: int = 0, bound_scale: float = 1.0
) -> BoundReport:
    """One-sided check: mean spectral norm of pseudo-inverses <= e sqrt(k+p)/p."""
    if p < 1:
        raise ParameterDomainError(f"oversampling must be >= 1, got {p}")
    bound = bound_scale * math.e * math.sqrt(k + p) / p
    return _mc_pseudoinverse(
        "pseudoinverse_spectral", k, p, trials, seed,
        lambda sv: 1.0 / sv[:, -1], bound, lambda mean: mean <= bound,
    )


def mc_jl(
    m_vectors: int,
    r: int,
    alpha: float,
    trials: int,
    seed: int = 0,
    bound_scale: float = 1.0,
) -> BoundReport:
    """Norm-preservation failure rate of fresh Gaussian projections.

    Counts how often ||omega x||^2 / r leaves (1 +- alpha) ||x||^2 over
    fresh draws of 32-dimensional unit vectors, against the tail bound
    2 exp(-alpha^2 r / 8). Each trial's omega is the next 32 columns of
    one shipped r-row projection (``GaussianSketcher.column_block``), the
    generator whose JL property the multiply and regression proofs use.
    """
    if not 0.0 < alpha < 1.0:
        raise ParameterDomainError(f"alpha must lie in (0, 1), got {alpha}")
    _trials(m_vectors, "m_vectors")
    need = 4.0 / (alpha**2 / 2.0 - alpha**3 / 3.0) * math.log(max(m_vectors, 2))
    if r < need:
        raise ParameterDomainError(
            f"r={r} below the dimension requirement {need:.1f} for {m_vectors} vectors"
        )
    vecs = np.random.default_rng(seed).standard_normal((32, m_vectors))
    vecs /= np.linalg.norm(vecs, axis=0)
    violations = 0
    sketcher = GaussianSketcher(seed, r, 32 * _trials(trials))
    rates = np.empty(trials)
    for t in range(trials):
        omega = sketcher.column_block(32 * t, 32 * (t + 1))
        ratios = np.sum((omega @ vecs) ** 2, axis=0) / r
        bad = int(np.count_nonzero(np.abs(ratios - 1.0) > alpha))
        violations += bad
        rates[t] = bad / m_vectors
    total = trials * m_vectors
    nominal = bound_scale * 2.0 * math.exp(-(alpha**2) * r / 8.0)
    allowed = binomial_allowed(nominal, total)
    return BoundReport(
        check="jl_concentration",
        trials=total,
        violations=violations,
        allowed=allowed,
        seeds=[seed],
        observed_lhs=rates,
        bound_rhs=np.full(trials, nominal),
    )


def mc_column_independence(r: int, m: int, seed: int = 0, z: float = 5.0) -> BoundReport:
    """Cross-correlation of neighbouring columns of one shipped projection.

    Over the first m columns of an r-row projection
    (``GaussianSketcher.column_block``), each of the r^2 scores
    |sum_j omega[a, j] omega[b, j + 1]| / sqrt(m - 1) is about |N(0, 1)|
    when columns are independent: each is a trial, and one above ``z`` a
    violation. Columns whose words overlap share normals, whose scores
    grow as sqrt(m); the lemma checks pass such a generator.
    """
    if m < 2:
        raise ParameterDomainError(f"need two columns or more, got m={m}")
    omega = GaussianSketcher(seed, r, m).column_block(0, m)
    scores = np.abs(omega[:, :-1] @ omega[:, 1:].T).ravel() / math.sqrt(m - 1)
    return BoundReport(check="column_independence", trials=r * r,
                       violations=int(np.count_nonzero(scores > z)),
                       allowed=binomial_allowed(math.erfc(z / math.sqrt(2.0)), r * r),
                       seeds=[seed], observed_lhs=scores, bound_rhs=np.full(r * r, z))


# ---------------------------------------------------------------------------
# Desk-scale differential-privacy check for the direct sketch generator


def dp_density_ratio_check(
    n: int,
    r: int,
    budget: guard.PrivacyBudget,
    samples: int,
    seed: int = 0,
    sigma_scale: float = 1.1,
    perturbation_scale: float = 1.0,
    enforce_guard: bool = True,
) -> BoundReport:
    """Per-row density-ratio test for the direct projection generator.

    Builds a neighboring pair (A, A - u e_i.T) with spectra at
    ``sigma_scale`` times the guard threshold, samples rows of the
    published sketch from N(0, A.T A), and counts how often the analytic
    log-density ratio against the neighbor exceeds the per-row loss
    eps0 = eps / sqrt(4 r ln(2/delta)). The tolerated frequency is
    delta0 = delta / (2r) plus Monte-Carlo slack. Dropping sigma_scale
    well below 1 must make this check fail (the guard is necessary);
    ``enforce_guard=False`` permits building such negative controls.
    """
    if n < 1:
        raise ParameterDomainError(f"density-ratio check needs n >= 1, got {n}")
    if n > 8:
        raise ParameterDomainError(f"density-ratio check is desk-scale only, n={n} > 8")
    threshold = guard.sigma_min_psg1(budget, r)
    rng = np.random.default_rng(seed)
    u_basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v_basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sigmas = sigma_scale * threshold * rng.uniform(1.0, 1.5, size=n)
    a = (u_basis * sigmas) @ v_basis.T
    direction = rng.standard_normal(n)
    direction /= np.linalg.norm(direction)
    col = int(rng.integers(0, n))
    perturb = np.zeros((n, n))
    perturb[:, col] = perturbation_scale * direction
    a_tilde = a - perturb
    if enforce_guard:
        for name, mat in (("A", a), ("A~", a_tilde)):
            observed = float(np.linalg.svd(mat, compute_uv=False)[-1])
            if observed < threshold:
                raise ParameterDomainError(
                    f"{name} spectrum {observed:.4g} below guard threshold {threshold:.4g}"
                )
    eps0 = budget.eps / math.sqrt(4.0 * r * math.log(2.0 / budget.delta))
    delta0 = budget.delta / (2.0 * r)

    gram_a = a.T @ a
    gram_t = a_tilde.T @ a_tilde
    inv_a = np.linalg.inv(gram_a)
    inv_t = np.linalg.inv(gram_t)
    _, logdet_a = np.linalg.slogdet(gram_a)
    _, logdet_t = np.linalg.slogdet(gram_t)

    g = rng.standard_normal((_trials(samples, "samples"), n))
    x = g @ a
    quad_a = np.einsum("ij,jk,ik->i", x, inv_a, x)
    quad_t = np.einsum("ij,jk,ik->i", x, inv_t, x)
    log_ratio = 0.5 * (logdet_t - logdet_a) + 0.5 * (quad_t - quad_a)
    violations = int(np.count_nonzero(np.abs(log_ratio) > eps0))
    allowed = binomial_allowed(delta0, samples)
    return BoundReport(
        check="dp_density_ratio_psg1",
        trials=samples,
        violations=violations,
        allowed=allowed,
        seeds=[seed],
        observed_lhs=np.abs(log_ratio),
        bound_rhs=np.full(samples, eps0),
    )


# ---------------------------------------------------------------------------
# Mechanism error-bound checks


def lra_spectral_rhs(config: LraConfig, sigma: np.ndarray) -> float:
    k, p, b = config.k, config.oversample, config.budget
    sigma_k1 = float(sigma[k]) if k < sigma.size else 0.0
    tail_sq = float(np.sum(sigma[k:] ** 2))
    return (
        math.sqrt(1.0 + k / (p - 1.0)) * sigma_k1
        + math.e * math.sqrt((k + p) * tail_sq) / p
        + 2.0 * math.sqrt(k * (config.n + config.d) * math.log(k / b.delta)) / b.eps
    )


def lra_errors(a, factor: LowRankFactor, config: LraConfig) -> dict:
    """Error of the release ``factor`` of ``a``, the Eckart-Young optimum, the
    bound, and ``trivial_error`` ||A||_F, the zero matrix's error."""
    k, p, b = config.k, config.oversample, config.budget
    optimum = math.sqrt(float(np.sum(np.linalg.svd(a, compute_uv=False)[k:] ** 2)))
    additive = (2.0 * k / b.eps) * math.sqrt((config.n + config.d) * math.log(k / b.delta) / p)
    return {
        "frobenius_error": float(np.linalg.norm(a - reconstruct(factor, config))),
        "eckart_young_optimum": optimum,
        "error_bound": math.sqrt(1.0 + k / (p - 1.0)) * optimum + additive,
        "trivial_error": float(np.linalg.norm(a)),
    }


def matprod_errors(a, b, estimate: np.ndarray, state: MatProdState) -> dict:
    """Error of the release ``estimate`` of A.T @ B, the bound, and
    ``trivial_error`` ||A.T B||_F, the zero estimate's error."""
    product, alpha = exact_product(a, b), state.acc.alpha
    norm_a, norm_b = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    return {
        "frobenius_error": float(np.linalg.norm(product - estimate)),
        "error_bound": alpha * norm_a * norm_b + state.s**2 * math.sqrt(a.shape[0]) * alpha,
        "trivial_error": float(np.linalg.norm(product)),
    }


def regress_errors(a, queries: np.ndarray, solutions: np.ndarray, state: RegressState) -> dict:
    """Per query column b_j: the residual of solution column x_j, the least-squares
    optimum, the bound, and ``trivial_error`` ||b_j||, the residual of x = 0."""
    additive = state.s**2 * math.sqrt(state.n) * state.acc.alpha
    optima = [float(np.linalg.norm(a @ exact_lsq(a, y) - y)) for y in queries.T]
    return {
        "residuals": [float(np.linalg.norm(a @ x - y)) for x, y in zip(solutions.T, queries.T)],
        "optima": optima,
        "error_bound": [(1.0 + state.acc.alpha) * opt + additive for opt in optima],
        "trivial_error": [float(np.linalg.norm(y)) for y in queries.T],
    }


def _bound_check(check: str, trial, trials: int, base_seed: int, rhs_scale: float,
                 allowed) -> BoundReport:
    """Run ``trial(seed) -> (lhs, rhs)`` on ``trials`` seeds from ``base_seed``
    and count lhs > rhs_scale * rhs; passes when the violation rate is at
    most ``allowed(trials)``. ``trials`` is refused below 1 before any run.
    """
    seeds = [base_seed + t for t in range(_trials(trials))]
    results = [trial(s) for s in seeds]
    lhs = np.array([x[0] for x in results])
    rhs = np.array([x[1] for x in results]) * rhs_scale
    violations = int(np.count_nonzero(lhs > rhs))
    return BoundReport(
        check=check,
        trials=len(seeds),
        violations=violations,
        allowed=allowed(trials),
        seeds=seeds,
        observed_lhs=lhs,
        bound_rhs=rhs,
    )


def _lra_trial(config: LraConfig, trial_seed: int, norm: str):
    rng = np.random.default_rng(trial_seed)
    if config.symmetric:
        g = rng.standard_normal((config.n, config.n))
        a = (g + g.T) / math.sqrt(2.0)
    else:
        a = rng.standard_normal((config.n, config.d))
    state = new_lra(replace(config, seed=trial_seed))
    state.ingest_rows(0, a)
    factor = state.finalize()
    if norm == "fro":
        errors = lra_errors(a, factor, config)
        return errors["frobenius_error"], errors["error_bound"]
    lhs = float(np.linalg.norm(a - reconstruct(factor, config), 2))
    return lhs, lra_spectral_rhs(config, np.linalg.svd(a, compute_uv=False))


def bound_check_lra(
    config: LraConfig,
    trials: int,
    norm: str = "fro",
    base_seed: int = 0,
    rhs_scale: float = 1.0,
) -> BoundReport:
    """Run the low-rank mechanism against the error-bound right-hand side.

    Passes when at most 10% of the trials exceed it. ``rhs_scale`` exists
    for negative controls: shrinking the bound must make the check fail.
    """
    if norm not in ("fro", "spectral"):
        raise ParameterDomainError(f"norm must be 'fro' or 'spectral', got {norm!r}")
    return _bound_check(
        f"lra_bound_{norm}", lambda s: _lra_trial(config, s, norm),
        trials, base_seed, rhs_scale, lambda _trials: 0.10,
    )


def nonprivate_sanity_check(
    n: int,
    k: int,
    trials: int,
    budget: guard.PrivacyBudget,
    base_seed: int = 0,
    ratio_bound: float = 1.5,
) -> BoundReport:
    """Range quality of the mechanism with the lift disabled (w = 0).

    With privacy off the streamed sketch is exactly the classical
    randomized range finder, so the residual ||A - Psi Psi^T A||_F must
    stay within ``ratio_bound`` of an independent two-pass prototype draw
    on every seed.
    """

    def trial(s):
        cfg = LraConfig(
            n=n, d=n, k=k, budget=budget, seed=s, symmetric=True,
            w_override=0.0, enforce_guard=False,
        )
        q, _ = np.linalg.qr(np.random.default_rng(7_000 + s).standard_normal((n, n)))
        decay = np.array([10.0 / (j + 1.0) ** 2 for j in range(n)])
        a = (q * decay) @ q.T
        state = new_lra(cfg)
        state.ingest_rows(0, a)
        psi = numerics.orthonormal_range(state.y)
        omega = np.random.default_rng(9_000 + s).standard_normal((n, k + cfg.oversample))
        psi_ref = numerics.orthonormal_range(a @ omega)
        return (
            float(np.linalg.norm(a - psi @ (psi.T @ a))),
            float(np.linalg.norm(a - psi_ref @ (psi_ref.T @ a))),
        )

    return _bound_check("nonprivate_range_sanity", trial, trials, base_seed, ratio_bound,
                        lambda _trials: 0.0)


def mc_unbiased_product(
    n: int,
    d1: int,
    d2: int,
    budget: guard.PrivacyBudget,
    acc: guard.AccuracySpec,
    trials: int,
    seed: int = 0,
) -> BoundReport:
    """Monte-Carlo unbiasedness of the product query over fresh sketchers.

    The entrywise mean of the estimate over independent projections must
    land within 3 standard errors of the exact product in every entry.
    """
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, d1))
    b = rng.standard_normal((n, d2))
    truth = exact_product(a, b)
    total = np.zeros((d1, d2))
    total_sq = np.zeros((d1, d2))
    for t in range(_trials(trials)):
        state = new_matprod(n, d1, d2, budget, acc, seed=seed + 1 + t)
        state.ingest_rows(0, a, b)
        estimate = state.product_query()
        total += estimate
        total_sq += estimate * estimate
    mean = total / trials
    stderr = np.sqrt(np.maximum(total_sq / trials - mean**2, 0.0) / trials)
    deviation = np.abs(mean - truth)
    band = 3.0 * stderr
    violations = int(np.count_nonzero(deviation > band))
    return BoundReport(
        check="matprod_unbiasedness",
        trials=trials,
        violations=violations,
        allowed=0.0,
        seeds=[seed],
        observed_lhs=deviation.ravel(),
        bound_rhs=band.ravel(),
    )


def _matprod_trial(n, d1, d2, budget, acc, trial_seed):
    rng = np.random.default_rng(trial_seed)
    a = rng.standard_normal((n, d1))
    b = rng.standard_normal((n, d2))
    state = new_matprod(n, d1, d2, budget, acc, trial_seed)
    state.ingest_rows(0, a, b)
    errors = matprod_errors(a, b, state.product_query(), state)
    return errors["frobenius_error"], errors["error_bound"]


def bound_check_matprod(
    n: int,
    d1: int,
    d2: int,
    budget: guard.PrivacyBudget,
    acc: guard.AccuracySpec,
    trials: int,
    base_seed: int = 0,
    rhs_scale: float = 1.0,
) -> BoundReport:
    """Multiply mechanism vs its multiplicative-plus-additive bound."""
    return _bound_check(
        "matprod_bound", lambda s: _matprod_trial(n, d1, d2, budget, acc, s),
        trials, base_seed, rhs_scale, partial(binomial_allowed, acc.beta),
    )


def _regress_trial(n, d, budget, acc, trial_seed):
    rng = np.random.default_rng(trial_seed)
    a = rng.standard_normal((n, d))
    x0 = rng.standard_normal(d)
    b = (a @ x0 + rng.standard_normal(n))[:, None]
    state = new_regress(n, d, budget, acc, trial_seed)
    state.ingest_columns(0, a)
    errors = regress_errors(a, b, state.query_many(b), state)
    return errors["residuals"][0], errors["error_bound"][0]


def bound_check_regress(
    n: int,
    d: int,
    budget: guard.PrivacyBudget,
    acc: guard.AccuracySpec,
    trials: int,
    base_seed: int = 0,
    rhs_scale: float = 1.0,
) -> BoundReport:
    """Regression mechanism vs its relative-plus-additive residual bound."""
    return _bound_check(
        "regress_bound", lambda s: _regress_trial(n, d, budget, acc, s),
        trials, base_seed, rhs_scale, partial(binomial_allowed, acc.beta),
    )
