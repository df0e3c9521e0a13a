"""Einstein products, generalized products, unfoldings, dilation."""

import operator

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import einbern
from einbern import algebra, tensor
from einbern import (
    EinbernError,
    ShapeError,
    Tensor,
    einstein_product,
    einstein_product_reference,
    gen_product_inner,
    gen_product_inner_reference,
    gen_product_outer,
    gen_product_outer_reference,
    hadamard,
    hermitian_dilation,
    identity_tensor,
    is_e_symmetric,
    matricize,
    matricize_general,
    matricize_rows,
    psd_counterexample_tensor,
    random_tensor,
    transpose_even,
    unmatricize,
)
from test_spectral import ENTRIES


class TestEinsteinProduct:
    def test_matrix_multiplication_case(self):
        rng = np.random.default_rng(0)
        a = random_tensor(rng, (3, 3))
        b = random_tensor(rng, (3, 3))
        out = einstein_product(a, b)
        assert np.allclose(out.to_array(), a.to_array() @ b.to_array(), atol=1e-14)

    def test_identity_neutral(self):
        rng = np.random.default_rng(1)
        b = random_tensor(rng, (2, 2, 2, 2))
        assert einstein_product(identity_tensor(2, 2), b).allclose(b, 1e-15)

    def test_fast_path_matches_reference(self):
        rng = np.random.default_rng(2)
        for shape, k in [((2, 2), 1), ((2, 2, 2, 2), 2), ((3, 3, 3, 3), 2)]:
            a = random_tensor(rng, shape)
            b = random_tensor(rng, shape)
            fast = einstein_product(a, b, k)
            ref = einstein_product_reference(a, b, k)
            assert np.abs(fast.data - ref.data).max() <= 1e-13

    def test_rectangular_contraction(self):
        rng = np.random.default_rng(3)
        a = random_tensor(rng, (2, 3, 4))
        b = random_tensor(rng, (4, 5))
        out = einstein_product(a, b, 1)
        ref = einstein_product_reference(a, b, 1)
        assert out.shape == (2, 3, 5)
        assert np.abs(out.data - ref.data).max() <= 1e-13

    def test_homomorphism_against_reference(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for m, d in [(1, 2), (1, 3), (2, 2), (2, 3)]:
            for _ in range(25):
                a = random_tensor(rng, (d,) * (2 * m))
                b = random_tensor(rng, (d,) * (2 * m))
                lhs = matricize(einstein_product_reference(a, b))
                rhs = matricize(a) @ matricize(b)
                scale = max(1.0, a.max_abs() * b.max_abs() * d**m)
                worst = max(worst, float(np.abs(lhs - rhs).max()) / scale)
        assert worst <= 1e-12

    def test_transpose_reversal(self):
        rng = np.random.default_rng(5)
        a = random_tensor(rng, (3, 3, 3, 3))
        b = random_tensor(rng, (3, 3, 3, 3))
        lhs = transpose_even(einstein_product(a, b))
        rhs = einstein_product(transpose_even(b), transpose_even(a))
        assert lhs.allclose(rhs, 1e-13)

    def test_contracted_mode_mismatch(self):
        a = Tensor((2, 3), np.zeros(6))
        b = Tensor((2, 3), np.zeros(6))
        with pytest.raises(ShapeError):
            einstein_product(a, b, 1)

    def test_odd_order_needs_explicit_count(self):
        a = Tensor((2, 2, 2), np.zeros(8))
        with pytest.raises(ShapeError):
            einstein_product(a, a)


class TestGeneralizedProducts:
    def test_vectors_outer_and_inner(self):
        a = Tensor((3,), [1.0, 2.0, 3.0])
        b = Tensor((3,), [4.0, 5.0, 6.0])
        outer = gen_product_outer(a, b)
        assert outer.shape == (3, 3)
        assert np.allclose(outer.to_array(), np.outer(a.data, b.data))
        inner = gen_product_inner(a, b)
        assert inner.shape == ()
        assert inner.item() == pytest.approx(float(a.data @ b.data))

    def test_even_order_reduction(self):
        rng = np.random.default_rng(6)
        a = random_tensor(rng, (2, 2, 2, 2))
        b = random_tensor(rng, (2, 2, 2, 2))
        assert gen_product_outer(a, b).allclose(
            einstein_product(a, transpose_even(b)), 1e-13
        )
        assert gen_product_inner(a, b).allclose(
            einstein_product(transpose_even(a), b), 1e-13
        )

    def test_unfolding_identities_against_reference(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 4, 5):
            for d in (2, 3):
                a = random_tensor(rng, (d,) * n)
                fbar = matricize_general(a)
                outer = gen_product_outer_reference(a, a)
                inner = gen_product_inner_reference(a, a)
                assert np.abs(matricize(outer) - fbar @ fbar.T).max() <= 1e-12
                assert np.abs(matricize(inner) - fbar.T @ fbar).max() <= 1e-12

    def test_fast_matches_reference(self):
        rng = np.random.default_rng(8)
        a = random_tensor(rng, (2, 2, 2))
        b = random_tensor(rng, (2, 2, 2))
        assert gen_product_outer(a, b).allclose(
            gen_product_outer_reference(a, b), 1e-13
        )
        assert gen_product_inner(a, b).allclose(
            gen_product_inner_reference(a, b), 1e-13
        )

    def test_self_product_exactly_symmetric(self):
        rng = np.random.default_rng(9)
        for n in (1, 2, 3, 4, 5):
            a = random_tensor(rng, (2,) * n)
            assert is_e_symmetric(gen_product_outer(a, a), 0.0)
            if n > 1:
                assert is_e_symmetric(gen_product_inner(a, a), 0.0)

    def test_trace_identity(self):
        rng = np.random.default_rng(10)
        a = random_tensor(rng, (2, 2, 2))
        frob = float(a.data @ a.data)
        assert np.trace(matricize(gen_product_outer(a, a))) == pytest.approx(
            frob, rel=1e-12
        )
        assert np.trace(matricize(gen_product_inner(a, a))) == pytest.approx(
            frob, rel=1e-12
        )

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            gen_product_outer(Tensor((2,), [1, 2]), Tensor((3,), [1, 2, 3]))


class TestMatricize:
    def test_vector_is_identity_map(self):
        x = Tensor((4,), [1.0, 2.0, 3.0, 4.0])
        f = matricize_general(x)
        assert f.shape == (4, 1)
        assert np.array_equal(f[:, 0], x.data)

    def test_counterexample_units(self):
        # entries a[1122], a[1212], a[1221], a[2112], a[2121], a[2211]
        # land at 1-based positions derived from the index map:
        # row i1 + 3 (i2 - 1), column j1 + 3 (j2 - 1)
        f = matricize(psd_counterexample_tensor())
        expected = {(1, 5), (5, 1), (4, 4), (4, 2), (2, 4), (2, 2)}
        ones = {
            (i + 1, j + 1) for i, j in map(tuple, np.argwhere(f == 1.0))
        }
        assert ones == expected
        assert np.count_nonzero(f) == 6
        y = np.zeros(9)
        y[0], y[4] = 1.0, -1.0
        assert float(y @ f @ y) == -2.0

    def test_roundtrip_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            d = int(rng.integers(2, 4))
            a = random_tensor(rng, (d,) * n)
            assert unmatricize(matricize_general(a), n, d) == a

    def test_matricize_is_view(self):
        rng = np.random.default_rng(12)
        a = random_tensor(rng, (2, 2, 2, 2))
        assert matricize(a).base is a.data

    def test_unmatricize_shape_guard(self):
        with pytest.raises(ShapeError):
            unmatricize(np.zeros((4, 2)), 4, 2)

    def test_odd_order_rejected_for_square(self):
        with pytest.raises(ShapeError):
            matricize(Tensor((2, 2, 2), np.zeros(8)))


class TestHermitianDilation:
    def test_scalar(self):
        h = hermitian_dilation(np.array([[1.0]]))
        assert np.array_equal(h, np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.linalg.eigvalsh(h)[-1] == pytest.approx(1.0)

    def test_zero_rectangular(self):
        h = hermitian_dilation(np.zeros((3, 2)))
        assert h.shape == (5, 5)
        assert not h.any()

    def test_top_eigenvalue_is_largest_singular_value(self):
        rng = np.random.default_rng(13)
        b = rng.standard_normal((4, 2))
        sigma = np.linalg.svd(b, compute_uv=False)[0]
        top = np.linalg.eigvalsh(hermitian_dilation(b))[-1]
        assert top == pytest.approx(sigma, rel=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(14)
        b = rng.standard_normal((3, 5))
        h = hermitian_dilation(b)
        assert np.array_equal(h, h.T)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_matricize_rows_matches_matricize_general(order):
    rng = np.random.default_rng(50 + order)
    tensors = [random_tensor(rng, (3,) * order) for _ in range(4)]
    mats = matricize_rows(np.stack([t.data for t in tensors]), order, 3)
    for t, mat in zip(tensors, mats):
        assert np.array_equal(mat, matricize_general(t))


def test_every_unfolding_is_one_read_only_view():
    # tensor.matricize_rows is the one place a buffer is unfolded; each
    # unfolding keeps the layout of the buffer's F-order reshape
    for order in range(7):
        for d in (1, 2, 3):
            t = Tensor((d,) * order, np.arange(d**order, dtype=np.float64))
            m = (order + 1) // 2
            want = t.data.reshape((d**m, d ** (order - m)), order="F")
            views = [matricize_general(t), matricize_rows(t.data[None], order, d)[0]]
            if order % 2 == 0:
                views.append(matricize(t))
            for view in views:
                assert (view.shape, view.strides) == (want.shape, want.strides)
                assert np.shares_memory(view, t.data) and not view.flags.writeable
                assert np.array_equal(view, want)


def test_tensor_owns_the_unfoldings_and_the_cubic_rule():
    for name in ("matricize", "matricize_general", "matricize_rows", "unmatricize"):
        assert getattr(algebra, name) is getattr(tensor, name) is getattr(einbern, name)
    t = Tensor((2, 3), np.zeros(6))
    for judge in (lambda: t.cubic_dim, lambda: matricize_general(t),
                  lambda: matricize(t), lambda: gen_product_outer(t, t)):
        with pytest.raises(ShapeError, match=r"^shape \(2, 3\) is not cubic$"):
            judge()


@st.composite
def product_calls(draw):
    """(function, arguments) of one product or sum of two cubic tensors of
    order <= 4 from ENTRIES, or of a tensor and a scalar from ENTRIES (0.0
    among them, so division by zero is drawn)."""
    fn = draw(st.sampled_from(
        [einstein_product, gen_product_outer, gen_product_inner, hadamard,
         operator.add, operator.sub, operator.mul, operator.truediv]
    ))
    order = 2 * draw(st.integers(1, 2)) if fn is einstein_product else draw(
        st.integers(1, 4))
    d = draw(st.integers(1, 3 if order <= 2 else 2))
    size = d**order
    a = Tensor((d,) * order, draw(st.lists(ENTRIES, min_size=size, max_size=size)))
    if fn in (operator.mul, operator.truediv):
        return fn, (a, draw(ENTRIES))
    if fn in (gen_product_outer, gen_product_inner) and draw(st.booleans()):
        return fn, (a, a)
    return fn, (a, Tensor(a.shape, draw(st.lists(ENTRIES, min_size=size,
                                                 max_size=size))))


BIG = Tensor((2, 2), [1e200, -1e200, 1e200, 1e200])
MAX = Tensor((2,), [1e308, 1e308])


@given(call=product_calls())
@example(call=(einstein_product, (BIG, BIG)))
@example(call=(gen_product_outer, (BIG, BIG)))
@example(call=(gen_product_inner, (BIG, BIG)))
@example(call=(hadamard, (BIG, BIG)))
@example(call=(einstein_product_reference, (BIG, BIG)))
@example(call=(gen_product_outer_reference, (BIG, BIG)))
@example(call=(gen_product_inner_reference, (BIG, BIG)))
@example(call=(operator.mul, (BIG, 1e200)))
@example(call=(operator.add, (MAX, MAX)))
@example(call=(operator.truediv, (BIG, 0.0)))
@settings(derandomize=True, max_examples=300, deadline=None)
def test_products_return_finite_values_or_raise(call):
    # warnings are errors here, so a numpy overflow warning fails too
    fn, args = call
    try:
        result = fn(*args)
    except EinbernError:
        return
    assert isinstance(result, Tensor) and np.isfinite(result.data).all()
