import numpy as np
import pytest

from dpsketch import numerics
from dpsketch.errors import ContractViolationError, IllPosedSystemError

from _oracles import jacobi_singular_values


class TestSvd:
    def test_identity(self):
        res = numerics.svd(np.eye(3))
        np.testing.assert_allclose(res.sigma, [1.0, 1.0, 1.0], atol=1e-14)

    def test_diagonal(self):
        res = numerics.svd(np.diag([3.0, 2.0, 1.0]))
        np.testing.assert_allclose(res.sigma, [3.0, 2.0, 1.0], atol=1e-14)

    def test_matches_jacobi_oracle(self):
        a = np.random.default_rng(123).standard_normal((5, 3))
        res = numerics.svd(a)
        oracle = jacobi_singular_values(a)
        np.testing.assert_allclose(res.sigma, oracle, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("seed", range(8))
    def test_factor_invariants(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((6, 4)) * 10.0 ** rng.integers(-2, 3)
        res = numerics.svd(a)
        k = res.sigma.size
        assert np.linalg.norm(res.u.T @ res.u - np.eye(k)) <= 1e-10
        assert np.linalg.norm(res.vt @ res.vt.T - np.eye(k)) <= 1e-10
        assert np.all(np.diff(res.sigma) <= 0) and np.all(res.sigma >= 0)
        recon = (res.u * res.sigma) @ res.vt
        assert np.linalg.norm(recon - a) <= 1e-8 * max(np.linalg.norm(a), 1e-300)

    def test_deterministic_and_sign_convention(self):
        a = np.random.default_rng(7).standard_normal((5, 5))
        r1, r2 = numerics.svd(a), numerics.svd(a)
        assert np.array_equal(r1.u, r2.u) and np.array_equal(r1.vt, r2.vt)
        for j in range(r1.u.shape[1]):
            col = r1.u[:, j]
            assert col[np.flatnonzero(col)[0]] > 0

    def test_rejects_nonfinite(self):
        with pytest.raises(ContractViolationError):
            numerics.svd([[1.0, np.nan], [0.0, 1.0]])


class TestOrthonormalRange:
    def test_basis_vector(self):
        y = np.zeros((4, 1))
        y[0, 0] = 1.0
        basis = numerics.orthonormal_range(y)
        assert basis.shape == (4, 1)
        np.testing.assert_allclose(basis[:, 0], [1, 0, 0, 0], atol=1e-14)

    def test_scaled_identity(self):
        basis = numerics.orthonormal_range(2.0 * np.eye(3))
        assert basis.shape[1] == 3
        np.testing.assert_allclose(np.abs(basis) @ np.abs(basis.T), np.eye(3), atol=1e-12)

    def test_projection_residual(self):
        y = np.random.default_rng(5).standard_normal((6, 2))
        psi = numerics.orthonormal_range(y)
        assert np.linalg.norm(psi.T @ psi - np.eye(2)) <= 1e-10
        assert np.linalg.norm(psi @ (psi.T @ y) - y) <= 1e-9 * np.linalg.norm(y)

    def test_rank_deficient_flagged(self):
        col = np.arange(1.0, 6.0).reshape(-1, 1)
        y = np.hstack([col, 2 * col, 3 * col])
        assert numerics.orthonormal_range(y).shape == (5, 1)

    def test_zero_matrix(self):
        assert numerics.orthonormal_range(np.zeros((4, 2))).shape == (4, 0)


class TestLstsq:
    def test_identity_coeff(self):
        rhs = np.random.default_rng(0).standard_normal((4, 3))
        x = numerics.lstsq(np.eye(4), rhs)
        np.testing.assert_allclose(x, rhs, atol=1e-12)

    def test_forward_construct(self):
        rng = np.random.default_rng(1)
        x0 = rng.standard_normal((4, 4))
        a = rng.standard_normal((9, 4))
        x = numerics.lstsq(a, a @ x0)
        assert np.linalg.norm(x - x0) <= 1e-9

    def test_inconsistent_matches_qr_solve(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((8, 3))
        b = rng.standard_normal((8, 5))
        x = numerics.lstsq(a, b)
        q, r = np.linalg.qr(a)
        ref = np.linalg.solve(r, q.T @ b)
        got = np.linalg.norm(a @ x - b)
        want = np.linalg.norm(a @ ref - b)
        assert abs(got - want) <= 1e-8 * max(want, 1.0)

    def test_rank_deficient_raises_with_residual(self):
        col = np.arange(1.0, 7.0)
        a = np.column_stack([col, 2 * col])
        b = np.random.default_rng(3).standard_normal((6, 2))
        with pytest.raises(IllPosedSystemError) as err:
            numerics.lstsq(a, b)
        assert np.isfinite(err.value.residual)

    def test_row_mismatch(self):
        with pytest.raises(ContractViolationError):
            numerics.lstsq(np.eye(3), np.ones((4, 2)))


# rho / RANK_RTOL just below, at and just above the cutoff: a singular value
# at or below RANK_RTOL times the largest counts as zero in both kernels.
@pytest.mark.parametrize("ratio, rank", [(1 - 1e-6, 1), (1.0, 1), (1 + 1e-6, 2)])
def test_one_rank_rule_at_the_cutoff(ratio, rank):
    a = np.zeros((5, 2))
    a[:2, :2] = np.diag([1.0, ratio * numerics.RANK_RTOL])
    b = np.ones((5, 1))
    assert numerics.orthonormal_range(a).shape == (5, rank)
    if rank < 2:
        with pytest.raises(IllPosedSystemError):
            numerics.lstsq(a, b)
    else:
        np.testing.assert_allclose(numerics.lstsq(a, b)[:, 0], [1.0, 1.0 / a[1, 1]])
