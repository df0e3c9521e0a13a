"""Eigensolver contracts, Einstein spectra, norms, and Z-eigenvalues."""

import math
from functools import partial
from itertools import combinations_with_replacement, permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from einbern import (
    ConvergenceError,
    EinbernError,
    EinsteinEVD,
    NumericalError,
    ShapeError,
    SymmetryError,
    Tensor,
    e_eigenvalues,
    e_evd,
    e_spectral_norm,
    e_trace,
    einstein_product,
    gen_product_inner,
    gen_product_outer,
    gen_spectral_norm,
    hadamard,
    hermitian_dilation,
    identity_tensor,
    is_e_pd,
    is_e_psd,
    is_e_symmetric,
    matricize,
    matricize_general,
    outer_power,
    psd_counterexample_tensor,
    random_e_symmetric,
    random_fully_symmetric,
    random_tensor,
    sym_eig,
    sym_eigvals,
    top_singular_values,
    transpose_even,
    unmatricize,
    z_eigen_max,
    ZEigenEstimate,
    apply_power,
)


@pytest.mark.parametrize("fn", [e_eigenvalues, e_evd, e_spectral_norm, is_e_psd, is_e_pd,
                                e_trace], ids=lambda fn: fn.__name__)
def test_e_spectral_functions_judge_symmetry_once(fn):
    # sym_eig judges the input of every function that solves, so they
    # share its verdicts and messages; e_trace solves nothing and keeps
    # its own judgement
    not_e_symmetric = "^tensor is not Einstein-symmetric within tolerance$"
    with pytest.raises(SymmetryError, match=not_e_symmetric if fn is e_trace else
                       "^matrix is not symmetric within tolerance$"):
        fn(Tensor((2, 2), [1, 2, 0, 1]))
    for bad in (math.nan, math.inf, -math.inf):
        error, message = ((SymmetryError, not_e_symmetric) if fn is e_trace else
                          (NumericalError, "^matrix has non-finite entries$"))
        with pytest.raises(error, match=message):
            fn(Tensor((2, 2), [1.0, 0.0, 0.0, bad]))
    for shape in ((2, 2, 2), (2, 3, 2)):
        with pytest.raises(ShapeError, match="^order 3 is odd; an even order is required$"):
            fn(Tensor(shape, np.zeros(math.prod(shape))))
    with pytest.raises(ShapeError, match=r"^shape \(2, 3\) is not cubic$"):
        fn(Tensor((2, 3), np.zeros(6)))


class TestSymEig:
    def test_identity(self):
        dec = sym_eig(np.eye(4))
        assert np.allclose(dec.values, np.ones(4))

    def test_two_by_two_swap(self):
        dec = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(dec.values, [1.0, -1.0])

    def test_counterexample_spectrum(self):
        f = matricize(psd_counterexample_tensor())
        # derived by hand: the {1,5} block [[0,1],[1,0]] contributes +-1,
        # the {2,4} block [[1,1],[1,1]] contributes {2, 0}, rest zeros
        expected = np.array([2.0, 1.0, 0, 0, 0, 0, 0, 0, -1.0])
        dec = sym_eig(f)
        assert np.abs(dec.values - expected).max() <= 1e-10
        # independent oracle
        assert np.abs(
            np.sort(np.linalg.eigvalsh(f))[::-1] - expected
        ).max() <= 1e-12

    def test_against_lapack_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 13))
            m = rng.standard_normal((n, n))
            m = (m + m.T) / 2
            dec = sym_eig(m)
            oracle = np.sort(np.linalg.eigvalsh(m))[::-1]
            scale = max(1.0, float(np.abs(oracle).max()))
            assert np.abs(dec.values - oracle).max() <= 1e-12 * scale * n
            recon = dec.vectors @ np.diag(dec.values) @ dec.vectors.T
            assert np.abs(recon - m).max() <= 1e-12 * scale * n
            assert np.abs(dec.vectors.T @ dec.vectors - np.eye(n)).max() <= 1e-12

    def test_rejects_asymmetric(self):
        with pytest.raises(SymmetryError):
            sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
        # a defect that overflows is refused, not warned about
        with pytest.raises(SymmetryError):
            sym_eig(np.array([[0.0, 1e308], [-1e308, 0.0]]))

    def test_symmetry_is_judged_by_the_closeness_rule(self):
        # a defect of 1e-13 at entries of 1e-3 is 1e-10 of the largest
        # entry: refused, as is_e_symmetric refuses it
        m = np.array([[1e-3, 1e-13], [0.0, 1e-3]])
        assert not is_e_symmetric(Tensor((2, 2), m.reshape(-1, order="F")))
        with pytest.raises(SymmetryError):
            sym_eig(m)

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            sym_eig(np.zeros((2, 3)))

    def test_zero_matrix(self):
        dec = sym_eig(np.zeros((3, 3)))
        assert np.array_equal(dec.values, np.zeros(3))
        assert sym_eig(np.zeros((0, 0))).values.shape == (0,)

    def test_rejects_nan(self):
        # NaN compares False against the symmetry tolerance, so it must be
        # caught before that check
        with pytest.raises(NumericalError):
            sym_eig(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_rejects_inf(self, value):
        with pytest.raises(NumericalError):
            sym_eig(np.array([[value, 0.0], [0.0, 1.0]]))

    def test_overflowing_symmetric_part_is_numerical_error(self):
        # symmetric and finite, but M + M^T overflows: refused, not warned
        with pytest.raises(NumericalError, match="symmetric part .* overflowed"):
            sym_eig(np.array([[0.0, 1e308], [1e308, 0.0]]))

    def test_lapack_failure_is_convergence_error(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(ConvergenceError) as info:
            sym_eig(np.eye(3))
        assert isinstance(info.value, NumericalError)


class TestEinsteinSpectrum:
    def test_identity_tensor_spectrum(self):
        values = e_eigenvalues(identity_tensor(2, 2))
        assert np.allclose(values, np.ones(4))

    def test_counterexample_extremes(self):
        values = e_eigenvalues(psd_counterexample_tensor())
        assert values[0] == pytest.approx(2.0, abs=1e-10)
        assert values[-1] == pytest.approx(-1.0, abs=1e-10)

    def test_rank_one_projector(self):
        x = np.array([3.0, 4.0]) / 5.0
        p = gen_product_outer(outer_power(x, 2), outer_power(x, 2))
        values = e_eigenvalues(p)
        assert values[0] == pytest.approx(1.0, abs=1e-12)
        assert np.abs(values[1:]).max() <= 1e-12

    def test_rejects_asymmetric_tensor(self):
        rng = np.random.default_rng(1)
        with pytest.raises(SymmetryError):
            e_eigenvalues(random_tensor(rng, (2, 2, 2, 2)))

    def test_evd_reconstruction(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            m = int(rng.integers(1, 3))
            d = int(rng.integers(2, 4))
            a = random_e_symmetric(rng, m, d)
            dec = e_evd(a)
            recon = einstein_product(
                einstein_product(dec.u, dec.diag), transpose_even(dec.u)
            )
            assert np.abs(recon.data - a.data).max() <= 1e-10 * a.max_abs() * d**m

    def test_evd_factors_contract(self):
        rng = np.random.default_rng(3)
        a = random_e_symmetric(rng, 2, 2)
        dec = e_evd(a)
        iden = identity_tensor(2, 2)
        utu = einstein_product(transpose_even(dec.u), dec.u)
        assert utu.allclose(iden, 1e-12)
        from einbern import is_diagonal

        assert is_diagonal(dec.diag, 1e-14) and is_e_symmetric(dec.diag, 1e-14)

    def test_square_via_hadamard_of_values(self):
        rng = np.random.default_rng(4)
        a = random_e_symmetric(rng, 2, 3)
        dec = e_evd(a)
        square = einstein_product(a, a)
        recon = einstein_product(
            einstein_product(dec.u, hadamard(dec.diag, dec.diag)),
            transpose_even(dec.u),
        )
        assert square.allclose(recon, 1e-10)


class TestNormsAndTrace:
    def test_identity_values(self):
        i = identity_tensor(2, 3)
        assert e_spectral_norm(i) == pytest.approx(1.0)
        assert e_trace(i) == pytest.approx(9.0)

    def test_counterexample_values(self):
        t = psd_counterexample_tensor()
        assert e_spectral_norm(t) == pytest.approx(2.0, abs=1e-10)
        assert e_trace(t) == pytest.approx(2.0, abs=1e-12)

    def test_homogeneity(self):
        rng = np.random.default_rng(5)
        a = random_e_symmetric(rng, 1, 4)
        c = -2.5
        assert e_spectral_norm(c * a) == pytest.approx(
            abs(c) * e_spectral_norm(a), rel=1e-12
        )
        assert e_trace(c * a) == pytest.approx(c * e_trace(a), rel=1e-12)

    def test_trace_equals_spectrum_sum(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = random_e_symmetric(rng, 2, 2)
            assert e_trace(a) == pytest.approx(
                float(e_eigenvalues(a).sum()), abs=1e-10
            )


class TestGenSpectralNorm:
    def test_vector_norm(self):
        x = Tensor((3,), [3.0, 0.0, 4.0])
        assert gen_spectral_norm(x) == pytest.approx(5.0, rel=1e-12)

    def test_even_symmetric_matches_e_norm(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = random_e_symmetric(rng, 2, 2)
            assert gen_spectral_norm(a) == pytest.approx(
                e_spectral_norm(a), rel=1e-10
            )

    def test_chain_of_four_expressions(self):
        rng = np.random.default_rng(8)
        for n in (1, 3, 4):
            for d in (2, 3):
                a = random_tensor(rng, (d,) * n)
                e1 = math.sqrt(e_spectral_norm(gen_product_outer(a, a)))
                e2 = math.sqrt(e_spectral_norm(gen_product_inner(a, a)))
                e3 = float(
                    np.linalg.svd(matricize_general(a), compute_uv=False)[0]
                )
                e4 = gen_spectral_norm(a)
                scale = max(1.0, e3)
                assert abs(e1 - e3) <= 1e-10 * scale
                assert abs(e2 - e3) <= 1e-10 * scale
                assert abs(e4 - e3) <= 1e-10 * scale

    def test_dilation_identity_on_random_rectangular(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            r = int(rng.integers(1, 6))
            c = int(rng.integers(1, 6))
            b = rng.standard_normal((r, c))
            top = sym_eig(hermitian_dilation(b)).values[0]
            assert top == pytest.approx(
                float(np.linalg.svd(b, compute_uv=False)[0]), abs=1e-10
            )


class TestPsdPredicates:
    def test_self_product_is_epsd(self):
        rng = np.random.default_rng(10)
        for n in (2, 3, 4):
            a = random_tensor(rng, (2,) * n)
            assert is_e_psd(gen_product_outer(a, a))

    def test_counterexample_not_epsd(self):
        assert not is_e_psd(psd_counterexample_tensor())

    def test_identity_is_epd(self):
        assert is_e_pd(identity_tensor(2, 2))

    def test_psd_tolerance_scales_with_the_spectrum_norm(self):
        # PSD_TOL (1e-10) times max(1, norm of the spectrum): 1e-7 at norm
        # 1e3, 1e-10 at norm 0.5
        for top, tol in ((1e3, 1e-7), (0.5, 1e-10)):
            psd, not_psd, pd, not_pd = (
                Tensor((2, 2), [top, 0.0, 0.0, low])
                for low in (-0.99 * tol, -1.01 * tol, 1.01 * tol, 0.99 * tol))
            assert is_e_psd(psd) and not is_e_psd(not_psd)
            assert is_e_pd(pd) and not is_e_pd(not_pd)

    def test_epsd_implies_sampled_psd(self):
        rng = np.random.default_rng(11)
        a = random_tensor(rng, (3, 3, 3))
        gram = gen_product_outer(a, a)
        assert is_e_psd(gram)
        for _ in range(1000):
            x = rng.standard_normal(3)
            x /= np.linalg.norm(x)
            assert apply_power(gram, x) >= -1e-10


class TestZEigenMax:
    def test_matrix_case_is_lambda_max(self):
        rng = np.random.default_rng(12)
        m = rng.standard_normal((4, 4))
        m = (m + m.T) / 2
        a = Tensor.from_array(m)
        est = z_eigen_max(a, restarts=10, iters=500, seed=0)
        assert est.value == pytest.approx(
            float(np.linalg.eigvalsh(m)[-1]), abs=1e-8
        )
        # the value settles quadratically, the iterate only linearly
        assert est.residual <= 1e-3

    def test_counterexample_maximum(self):
        # the form is 6 x1^2 x2^2; on the unit sphere write s = x1^2,
        # u = x2^2 with s + u <= 1, so the max of 6 s u is 3/2 at
        # s = u = 1/2; a dense sphere grid confirms below
        t = psd_counterexample_tensor()
        est = z_eigen_max(t, restarts=20, iters=500, seed=0)
        assert est.value == pytest.approx(1.5, abs=1e-6)
        grid = np.linspace(0, 2 * np.pi, 400)
        best = 0.0
        for theta in grid:
            x = np.array([np.cos(theta), np.sin(theta), 0.0])
            best = max(best, apply_power(t, x))
        assert best <= est.value + 1e-6

    def test_lower_bounds_e_max(self):
        rng = np.random.default_rng(13)
        for k in range(10):
            s = random_fully_symmetric(rng, 4, 3)
            est = z_eigen_max(s, restarts=6, iters=1000, seed=k)
            assert float(e_eigenvalues(s)[0]) >= est.value - 1e-8

    def test_accepts_a_generated_order_10_tensor(self):
        # every entry of an orbit holds the same mean, so the default
        # tolerance admits it at any order
        s = random_fully_symmetric(np.random.default_rng(0), 10, 2)
        est = z_eigen_max(s, restarts=6, iters=1000, seed=0)
        assert float(e_eigenvalues(s)[0]) >= est.value - 1e-8

    def test_rejects_partial_symmetry(self):
        rng = np.random.default_rng(14)
        a = random_e_symmetric(rng, 2, 2)  # pairwise but not fully symmetric
        with pytest.raises(SymmetryError):
            z_eigen_max(a)

    def test_zero_tensor(self):
        est = z_eigen_max(Tensor((2, 2), np.zeros(4)), restarts=3, iters=50)
        assert est.value == 0.0 and est.residual == 0.0

    def test_block_agrees_with_per_restart_oracle(self):
        # 3 iterations leave most random starts unconverged, 500 settle
        # them: the ConvergenceError cases must match as well as the values
        rng = np.random.default_rng(15)
        tensors = [random_fully_symmetric(rng, order, d)
                   for order in (2, 4) for d in (2, 3) for _ in range(3)]
        tensors += [psd_counterexample_tensor(), Tensor((3, 3), np.zeros(9))]
        outcomes = set()
        for k, t in enumerate(tensors):
            for iters in (3, 500):
                try:
                    want = oracles.z_eigen_max(t, restarts=8, iters=iters, seed=k)
                except ConvergenceError:
                    with pytest.raises(ConvergenceError):
                        z_eigen_max(t, restarts=8, iters=iters, seed=k)
                    outcomes.add("error")
                    continue
                got = z_eigen_max(t, restarts=8, iters=iters, seed=k)
                assert got.value == pytest.approx(want.value, rel=1e-12)
                outcomes.add("value")
        assert outcomes == {"error", "value"}

    def test_block_starts_are_successive_draws(self):
        # the seeded starts of the per-restart loop, unchanged
        for seed, restarts, d in [(0, 100, 3), (7, 5, 2), (2019, 20, 4)]:
            block = np.random.default_rng(seed).standard_normal((restarts, d))
            rng = np.random.default_rng(seed)
            rows = np.stack([rng.standard_normal(d) for _ in range(restarts)])
            assert np.array_equal(block, rows)

    @pytest.mark.parametrize("entries", [[0.0, 1e154, 1e154, 0.0], [1.7e308] * 4])
    def test_overflow_is_numerical_error(self, entries):
        # a step norm (1e154) or the shift (1.7e308) overflows: refused,
        # not warned about
        with pytest.raises(NumericalError, match="power iteration"):
            z_eigen_max(Tensor((2, 2), entries), restarts=2, iters=50)


class TestBatchedSpectra:
    def test_sym_eigvals_matches_sym_eig(self):
        rng = np.random.default_rng(60)
        mats = np.stack([matricize(random_e_symmetric(rng, 2, 2)) for _ in range(5)])
        values = sym_eigvals(mats)
        for mat, got in zip(mats, values):
            want = sym_eig(mat).values[::-1]
            assert np.allclose(got, want, rtol=0.0, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_top_singular_values_match_gen_spectral_norm(self, order):
        rng = np.random.default_rng(61 + order)
        tensors = [random_tensor(rng, (2,) * order) for _ in range(5)]
        got = top_singular_values(np.stack([matricize_general(t) for t in tensors]))
        for t, value in zip(tensors, got):
            assert value == pytest.approx(gen_spectral_norm(t), rel=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_stack_is_numerical_error(self, bad):
        # every solver refuses it with the one message of _matrix_stack
        mats = np.zeros((3, 2, 2))
        mats[1, 0, 0] = bad
        for solve, arg in ((sym_eig, mats[1]), (sym_eigvals, mats),
                           (top_singular_values, mats)):
            with pytest.raises(NumericalError, match="^matrix has non-finite entries$"):
                solve(arg)

    def test_shape_errors(self):
        # non-square stacks reach no LAPACK call, whose ValueError would leak
        with pytest.raises(ShapeError):
            sym_eigvals(np.zeros((2, 2, 3)))
        with pytest.raises(ShapeError):
            sym_eigvals(np.zeros((2, 2)))
        with pytest.raises(ShapeError):
            top_singular_values(np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            sym_eig(np.zeros((1, 2, 2)))
        # a stack of matrices with no rows or no columns has no top value
        for mats in (np.zeros((2, 0, 3)), np.zeros((2, 3, 0))):
            with pytest.raises(ShapeError, match=r"r, c >= 1, got \(2, "):
                top_singular_values(mats)
        with pytest.raises(ShapeError, match=r"r, c >= 1, got \(2, 0, 0\)"):
            sym_eigvals(np.zeros((2, 0, 0)))
        # an empty matrix, and a stack of no matrices, give empty results
        assert sym_eig(np.zeros((0, 0))).values.shape == (0,)
        assert sym_eigvals(np.zeros((0, 3, 3))).shape == (0, 3)

    def test_overflowing_results_are_numerical_errors(self):
        # finite and symmetric, with a top eigenvalue and singular value
        # of 2.4e308
        mat = np.full((3, 3), 8e307)
        with pytest.raises(NumericalError, match="eigenvalues overflowed"):
            sym_eig(mat)
        with pytest.raises(NumericalError, match="eigenvalues overflowed"):
            sym_eigvals(mat[None])
        with pytest.raises(NumericalError, match="singular values overflowed"):
            top_singular_values(mat[None])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    log_scale=st.floats(-6.0, 6.0),
    log_noise=st.floats(-13.0, -11.0),
)
def test_sym_eig_refuses_exactly_what_is_e_symmetric_refuses(seed, n, log_scale, log_noise):
    # a symmetric matrix at scale 1e-6 to 1e6 plus antisymmetric noise of
    # relative size around DEFAULT_TOL, so both sides of the rule occur
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    k = rng.standard_normal((n, n))
    m = 10.0**log_scale * ((a + a.T) / 2 + 10.0**log_noise * (k - k.T) / 2)
    symmetric = is_e_symmetric(Tensor((n, n), m.reshape(-1, order="F")))
    try:
        sym_eig(m)
    except SymmetryError:
        assert not symmetric
    else:
        assert symmetric


# ordinary entries, and entries at the float limits: 1e154 squares to
# 1e308; 8.9e307 doubles to a finite value, but three of them overflow;
# 1.7e308 nearly is the largest float; and 1e-310 is subnormal
ENTRIES = st.sampled_from(
    [0.0, 1.0, -2.5, 1e154, -1e154, 8.9e307, -8.9e307, 1.7e308, -1.7e308,
     1e-310, -1e-310]
)


@st.composite
def square_matrices(draw, n):
    """An n by n matrix, half the time symmetric (its upper triangle
    mirrored, so building it adds nothing)."""
    a = np.array(draw(st.lists(ENTRIES, min_size=n * n, max_size=n * n)))
    a = a.reshape(n, n)
    if draw(st.booleans()):
        a = np.triu(a) + np.triu(a, 1).T
    return a


short_z_eigen_max = partial(z_eigen_max, restarts=3, iters=30)


@st.composite
def spectral_calls(draw):
    """(function, argument) of one call to a spectral function on a small
    input built from ENTRIES: a matrix or stack with n <= 4, or a cubic
    tensor of order <= 4, E-symmetric (from a symmetric unfolding) or
    not, or fully symmetric for a short ``z_eigen_max``."""
    fn = draw(st.sampled_from(
        [sym_eig, sym_eigvals, top_singular_values, e_eigenvalues, e_evd,
         e_spectral_norm, e_trace, is_e_psd, is_e_pd, gen_spectral_norm,
         short_z_eigen_max]
    ))
    if fn is short_z_eigen_max:
        return fn, draw(fully_symmetric_tensors())
    if fn is sym_eig:
        return fn, draw(square_matrices(draw(st.integers(1, 4))))
    if fn is sym_eigvals:
        n = draw(st.integers(1, 4))
        return fn, np.stack([draw(square_matrices(n))
                             for _ in range(draw(st.integers(1, 3)))])
    if fn is top_singular_values:
        shape = tuple(draw(st.integers(1, 4)) for _ in range(3))
        size = math.prod(shape)
        entries = draw(st.lists(ENTRIES, min_size=size, max_size=size))
        return fn, np.array(entries).reshape(shape)
    order = draw(st.integers(1, 4)) if fn is gen_spectral_norm else 2 * draw(
        st.integers(1, 2))
    d = draw(st.integers(1, 4 if order <= 2 else 2))
    if order % 2 == 0 and draw(st.booleans()):
        return fn, unmatricize(draw(square_matrices(d ** (order // 2))), order, d)
    size = d**order
    return fn, Tensor((d,) * order,
                      draw(st.lists(ENTRIES, min_size=size, max_size=size)))


@st.composite
def fully_symmetric_tensors(draw):
    """A cubic tensor of order 2 or 4 from ENTRIES: one entry for each
    multiset of indices, copied to each of its orderings."""
    order = 2 * draw(st.integers(1, 2))
    d = draw(st.integers(1, 4 if order == 2 else 3))
    arr = np.zeros((d,) * order)
    for idx in combinations_with_replacement(range(d), order):
        value = draw(ENTRIES)
        for perm in set(permutations(idx)):
            arr[perm] = value
    return Tensor.from_array(arr)


def result_arrays(result):
    """Every number a spectral function returned, as arrays."""
    if isinstance(result, (bool, float, np.ndarray)):
        return [np.asarray(result)]
    if isinstance(result, ZEigenEstimate):
        return [np.array([result.value, result.residual]), result.vector]
    if isinstance(result, EinsteinEVD):
        return [result.u.data, result.diag.data, result.values]
    return [result.values, result.vectors]


@given(call=spectral_calls())
@example(call=(sym_eig, np.array([[0.0, 1.7e308], [1.7e308, 0.0]])))
@example(call=(sym_eigvals, np.full((1, 3, 3), 8.9e307)))
@example(call=(top_singular_values, np.full((1, 3, 3), 8.9e307)))
@example(call=(e_spectral_norm, Tensor((3, 3), np.full(9, 8.9e307))))
@example(call=(short_z_eigen_max, Tensor((2, 2), [0.0, 1e154, 1e154, 0.0])))
@example(call=(short_z_eigen_max, Tensor((2, 2), [1.7e308] * 4)))
@example(call=(short_z_eigen_max, Tensor((2, 2), [math.inf, 0.0, 0.0, 1.0])))
@example(call=(short_z_eigen_max, Tensor((2, 2), [math.nan, 0.0, 0.0, 1.0])))
@example(call=(e_trace, Tensor((2, 2), [1.7e308, 0.0, 0.0, 1.7e308])))
@settings(derandomize=True, max_examples=300, deadline=None)
def test_spectral_functions_return_finite_values_or_raise(call):
    # warnings are errors here, so a numpy overflow warning fails too
    fn, arg = call
    try:
        result = fn(arg)
    except EinbernError:
        return
    for values in result_arrays(result):
        assert np.isfinite(values).all()


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_z_eigen_max_refuses_non_finite_entries_as_asymmetric(bad):
    with pytest.raises(SymmetryError, match="not fully symmetric"):
        z_eigen_max(Tensor((2, 2), [bad, 0.0, 0.0, 1.0]), restarts=3, iters=30)
