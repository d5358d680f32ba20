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
        res = numerics.orthonormal_range(y)
        np.testing.assert_allclose(res.basis[:, 0], [1, 0, 0, 0], atol=1e-14)
        assert not res.deficient

    def test_scaled_identity(self):
        res = numerics.orthonormal_range(2.0 * np.eye(3))
        assert res.rank == 3
        np.testing.assert_allclose(np.abs(res.basis) @ np.abs(res.basis.T), np.eye(3), atol=1e-12)

    def test_projection_residual(self):
        y = np.random.default_rng(5).standard_normal((6, 2))
        res = numerics.orthonormal_range(y)
        psi = res.basis
        assert np.linalg.norm(psi.T @ psi - np.eye(2)) <= 1e-10
        assert np.linalg.norm(psi @ (psi.T @ y) - y) <= 1e-9 * np.linalg.norm(y)

    def test_rank_deficient_flagged(self):
        col = np.arange(1.0, 6.0).reshape(-1, 1)
        y = np.hstack([col, 2 * col, 3 * col])
        res = numerics.orthonormal_range(y)
        assert res.deficient and res.rank == 1
        assert res.basis.shape == (5, 1)

    def test_zero_matrix(self):
        res = numerics.orthonormal_range(np.zeros((4, 2)))
        assert res.rank == 0 and res.deficient


class TestMinres:
    def test_identity_coeff(self):
        rhs = np.random.default_rng(0).standard_normal((3, 4))
        b = numerics.minres_solve(np.eye(4), rhs)
        np.testing.assert_allclose(b, rhs, atol=1e-12)

    def test_forward_construct(self):
        rng = np.random.default_rng(1)
        b0 = rng.standard_normal((4, 4))
        coeff = rng.standard_normal((4, 9))
        b = numerics.minres_solve(coeff, b0 @ coeff)
        assert np.linalg.norm(b - b0) <= 1e-9

    def test_inconsistent_matches_pseudoinverse(self):
        rng = np.random.default_rng(2)
        coeff = rng.standard_normal((3, 8))
        rhs = rng.standard_normal((5, 8))
        b = numerics.minres_solve(coeff, rhs)
        ref = np.linalg.lstsq(coeff.T, rhs.T, rcond=None)[0].T
        got = np.linalg.norm(b @ coeff - rhs)
        want = np.linalg.norm(ref @ coeff - rhs)
        assert abs(got - want) <= 1e-8 * max(want, 1.0)

    def test_rank_deficient_raises_with_residual(self):
        row = np.arange(1.0, 7.0)
        coeff = np.vstack([row, 2 * row])
        rhs = np.random.default_rng(3).standard_normal((2, 6))
        with pytest.raises(IllPosedSystemError) as err:
            numerics.minres_solve(coeff, rhs)
        assert np.isfinite(err.value.residual)

    def test_column_mismatch(self):
        with pytest.raises(ContractViolationError):
            numerics.minres_solve(np.eye(3), np.ones((2, 4)))

