"""Tensor storage, indexing, and elementary constructions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from einbern import (
    DEFAULT_TOL,
    DomainError,
    ShapeError,
    Tensor,
    apply_power,
    apply_power_map,
    delinearize,
    e_symmetric_rows,
    format_tensor_text,
    hadamard,
    identity_tensor,
    is_diagonal,
    is_e_symmetric,
    is_fully_symmetric,
    kron_power,
    linearize,
    matricize,
    outer_power,
    parse_tensor_text,
    psd_counterexample_tensor,
    random_e_symmetric,
    random_fully_symmetric,
    random_tensor,
    transpose_even,
)


class TestLinearize:
    def test_first_index(self):
        assert linearize((1, 1), (3, 3)) == 1

    def test_paper_formula_by_hand(self):
        # 2 + (2 - 1) * 3 = 5
        assert linearize((2, 2), (3, 3)) == 5

    def test_bijective_order3_dim2(self):
        flats = sorted(
            linearize(tuple(i + 1 for i in idx), (2, 2, 2))
            for idx in np.ndindex(2, 2, 2)
        )
        assert flats == list(range(1, 9))

    def test_rectangular_bijective(self):
        shape = (2, 3, 4)
        flats = sorted(
            linearize(tuple(i + 1 for i in idx), shape) for idx in np.ndindex(*shape)
        )
        assert flats == list(range(1, 25))

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            linearize((0, 1), (3, 3))
        with pytest.raises(IndexError):
            linearize((1, 4), (3, 3))

    def test_wrong_length(self):
        with pytest.raises(ShapeError):
            linearize((1, 1, 1), (3, 3))

    @given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_hypothesis(self, shape):
        shape = tuple(shape)
        size = math.prod(shape)
        rng = np.random.default_rng(sum(shape))
        for flat in rng.integers(1, size + 1, size=10):
            flat = int(flat)
            assert linearize(delinearize(flat, shape), shape) == flat

    def test_exhaustive_all_shapes_up_to_order_6(self):
        # every shape with order <= 6 and mode sizes <= 4, checked with a
        # vectorized stride evaluation plus scalar spot checks per shape
        from itertools import product as iproduct

        rng = np.random.default_rng(99)
        shapes = [
            shape
            for n in range(1, 7)
            for shape in iproduct(*([range(1, 5)] * n))
        ]
        assert len(shapes) == sum(4**n for n in range(1, 7))
        for shape in shapes:
            strides = np.cumprod((1,) + shape[:-1])
            grid = np.indices(shape).reshape(len(shape), -1)
            flats = grid.T @ strides + 1
            size = math.prod(shape)
            assert sorted(flats.tolist()) == list(range(1, size + 1))
            for k in (0, size // 2, size - 1):
                idx = tuple(int(i) + 1 for i in grid[:, k])
                assert linearize(idx, shape) == int(flats[k])
                assert delinearize(int(flats[k]), shape) == idx


class TestTensorType:
    def test_data_length_enforced(self):
        with pytest.raises(ShapeError):
            Tensor((2, 2), [1.0, 2.0, 3.0])

    def test_positive_modes(self):
        with pytest.raises(ShapeError):
            Tensor((2, 0), [])

    def test_immutable_buffer(self):
        t = Tensor((2,), [1.0, 2.0])
        with pytest.raises(ValueError):
            t.data[0] = 5.0

    def test_entry_is_one_based(self):
        t = Tensor((2, 3), np.arange(6, dtype=float))
        assert t.entry(1, 1) == 0.0
        assert t.entry(2, 3) == 5.0

    def test_from_array_roundtrip(self):
        arr = np.arange(24, dtype=float).reshape(2, 3, 4)
        t = Tensor.from_array(arr)
        assert np.array_equal(t.to_array(), arr)

    def test_arithmetic(self):
        a = Tensor((2,), [1.0, 2.0])
        b = Tensor((2,), [10.0, 20.0])
        assert (a + b) == Tensor((2,), [11.0, 22.0])
        assert (b - a) == Tensor((2,), [9.0, 18.0])
        assert (2.0 * a) == Tensor((2,), [2.0, 4.0])
        assert (-a) == Tensor((2,), [-1.0, -2.0])
        with pytest.raises(ShapeError):
            a + Tensor((3,), [0.0, 0.0, 0.0])


class TestTranspose:
    def test_identity_fixed(self):
        i = identity_tensor(2, 2)
        assert transpose_even(i) == i

    def test_counterexample_is_symmetric(self):
        t = psd_counterexample_tensor()
        assert transpose_even(t) == t

    def test_matches_unfolding_transpose(self):
        rng = np.random.default_rng(5)
        a = random_tensor(rng, (2, 2, 2, 2))
        assert np.array_equal(matricize(transpose_even(a)), matricize(a).T)

    def test_involution_bit_exact(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = random_tensor(rng, (3, 3, 3, 3))
            assert transpose_even(transpose_even(a)) == a

    def test_rejects_odd_order(self):
        with pytest.raises(ShapeError):
            transpose_even(Tensor((2, 2, 2), np.zeros(8)))

    def test_rejects_rectangular(self):
        with pytest.raises(ShapeError):
            transpose_even(Tensor((2, 3), np.zeros(6)))


class TestIdentityTensor:
    def test_m1_is_identity_matrix(self):
        assert np.array_equal(identity_tensor(1, 3).to_array(), np.eye(3))

    def test_unfolds_to_identity(self):
        assert np.array_equal(matricize(identity_tensor(2, 2)), np.eye(4))

    def test_entry_pattern(self):
        i = identity_tensor(2, 2)
        arr = i.to_array()
        for idx in np.ndindex(2, 2, 2, 2):
            expected = 1.0 if idx[:2] == idx[2:] else 0.0
            assert arr[idx] == expected

    def test_flags(self):
        i = identity_tensor(2, 3)
        assert is_e_symmetric(i) and is_diagonal(i)


class TestSymmetryPredicates:
    def test_counterexample_flags(self):
        t = psd_counterexample_tensor()
        assert is_e_symmetric(t)
        assert not is_diagonal(t)

    def test_symmetrization(self):
        rng = np.random.default_rng(7)
        a = random_tensor(rng, (3, 3, 3, 3))
        assert is_e_symmetric(a + transpose_even(a))

    def test_random_not_symmetric(self):
        rng = np.random.default_rng(8)
        a = random_tensor(rng, (3, 3, 3, 3))
        assert not is_e_symmetric(a)

    def test_fully_symmetric(self):
        rng = np.random.default_rng(9)
        s = random_fully_symmetric(rng, 4, 3)
        assert is_fully_symmetric(s)
        assert not is_fully_symmetric(random_tensor(rng, (3, 3, 3, 3)))

    def test_overflowing_full_symmetry_defect_is_refused(self):
        # 1.7e308 - (-1.7e308) overflows to inf: not symmetric, no warning
        assert not is_fully_symmetric(Tensor((2, 2), [0.0, 1.7e308, -1.7e308, 0.0]))

    def test_rows_match_scalar_check(self):
        rng = np.random.default_rng(40)
        tensors = [random_e_symmetric(rng, 2, 2) for _ in range(3)]
        tensors += [random_tensor(rng, (2, 2, 2, 2)) for _ in range(3)]
        tensors.append(Tensor((2, 2, 2, 2), np.zeros(16)))
        # antisymmetric +-1e308 entries: the defect overflows to inf
        huge = np.zeros(16)
        huge[4], huge[1] = 1e308, -1e308
        tensors.append(Tensor((2, 2, 2, 2), huge))
        rows = np.stack([t.data for t in tensors])
        want = [is_e_symmetric(t) for t in tensors]
        assert e_symmetric_rows(rows).tolist() == want
        assert want == [True] * 3 + [False] * 3 + [True, False]

    def test_rows_must_unfold_square(self):
        with pytest.raises(ShapeError):
            e_symmetric_rows(np.zeros((2, 8)))


class TestOuterPower:
    def test_unit_vector(self):
        t = outer_power(np.array([1.0, 0.0]), 2)
        expected = np.zeros((2, 2))
        expected[0, 0] = 1.0
        assert np.array_equal(t.to_array(), expected)

    def test_unit_norm_preserved(self):
        x = np.array([1.0, 1.0]) / math.sqrt(2.0)
        assert abs(np.linalg.norm(kron_power(x, 2)) - 1.0) < 1e-15

    def test_flat_matches_kron(self):
        rng = np.random.default_rng(10)
        worst = 0.0
        for _ in range(100):
            m = int(rng.integers(1, 4))
            d = int(rng.integers(2, 5))
            x = rng.uniform(-1, 1, size=d)
            worst = max(
                worst, float(np.abs(outer_power(x, m).data - kron_power(x, m)).max())
            )
        assert worst <= 1e-13

    def test_zero_power_rejected(self):
        with pytest.raises(DomainError):
            outer_power(np.ones(2), 0)
        with pytest.raises(DomainError):
            kron_power(np.ones(2), 0)


class TestApplyPower:
    def test_counterexample_form(self):
        t = psd_counterexample_tensor()
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.standard_normal(3)
            assert apply_power(t, x) == pytest.approx(
                6.0 * x[0] ** 2 * x[1] ** 2, abs=1e-12
            )

    def test_identity_is_squared_norm(self):
        i = identity_tensor(1, 4)
        x = np.array([1.0, -2.0, 3.0, 0.5])
        assert apply_power(i, x) == pytest.approx(float(x @ x), rel=1e-15)

    def test_matches_unfolded_quadratic_form(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            a = random_e_symmetric(rng, 2, 3)
            x = rng.uniform(-1, 1, size=3)
            vec = kron_power(x, 2)
            oracle = float(vec @ matricize(a) @ vec)
            assert apply_power(a, x) == pytest.approx(
                oracle, rel=1e-12, abs=1e-12
            )

    def test_map_consistency(self):
        rng = np.random.default_rng(13)
        s = random_fully_symmetric(rng, 4, 3)
        x = rng.standard_normal(3)
        assert float(x @ apply_power_map(s, x)) == pytest.approx(
            apply_power(s, x), rel=1e-12
        )

    @pytest.mark.parametrize("order", [2, 4, 6])
    def test_block_rows_match_per_vector_calls(self, order):
        rng = np.random.default_rng(17 + order)
        s = random_fully_symmetric(rng, order, 3)
        block = rng.standard_normal((5, 3))
        got = apply_power_map(s, block)
        assert got.shape == (5, 3)
        for x, row in zip(block, got):
            assert np.allclose(row, apply_power_map(s, x), rtol=1e-13, atol=0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            apply_power(identity_tensor(1, 3), np.ones(4))
        for bad in (np.ones((2, 4)), np.ones((2, 2, 3))):
            with pytest.raises(ShapeError):
                apply_power_map(identity_tensor(1, 3), bad)


class TestHadamard:
    def test_ones_neutral(self):
        rng = np.random.default_rng(14)
        a = random_tensor(rng, (2, 3))
        ones = Tensor((2, 3), np.ones(6))
        assert hadamard(a, ones) == a

    def test_diagonal_squares(self):
        rng = np.random.default_rng(15)
        vals = rng.uniform(-1, 1, size=4)
        from einbern import unmatricize

        d = unmatricize(np.diag(vals), 4, 2)
        dd = hadamard(d, d)
        assert np.allclose(matricize(dd), np.diag(vals**2), atol=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            hadamard(Tensor((2,), [1, 2]), Tensor((3,), [1, 2, 3]))


class TestTextFormat:
    def test_roundtrip(self):
        rng = np.random.default_rng(16)
        t = random_tensor(rng, (2, 3, 2))
        assert parse_tensor_text(format_tensor_text(t)) == t

    def test_sparse_zeros_dropped(self):
        t = Tensor((2, 2), [0.0, 1.5, 0.0, 0.0])
        text = format_tensor_text(t)
        assert text.splitlines() == ["2 2 2", "2 1 1.5"]
        assert parse_tensor_text(text) == t

    def test_file_roundtrip(self, tmp_path):
        from einbern import read_tensor_text, write_tensor_text

        rng = np.random.default_rng(17)
        t = random_tensor(rng, (3, 3, 3, 3))
        path = tmp_path / "fixture.txt"
        write_tensor_text(t, path)
        assert read_tensor_text(path) == t

    def test_malformed_header(self):
        with pytest.raises(ValueError):
            parse_tensor_text("2 3\n")

    def test_malformed_entry(self):
        with pytest.raises(ValueError):
            parse_tensor_text("2 2 2\n1 1\n")

    def test_out_of_range_entry(self):
        with pytest.raises(IndexError):
            parse_tensor_text("2 2 2\n3 1 1.0\n")

    @given(
        st.lists(
            st.tuples(
                st.integers(1, 2),
                st.integers(1, 3),
                st.floats(-10, 10, allow_nan=False),
            ),
            max_size=6,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_hypothesis(self, entries):
        data = np.zeros(6)
        for i, j, v in entries:
            data[linearize((i, j), (2, 3)) - 1] = v
        t = Tensor((2, 3), data)
        assert parse_tensor_text(format_tensor_text(t)) == t


def test_default_tolerance_is_scaled():
    base = np.zeros(16)
    t = Tensor((2, 2, 2, 2), base)
    assert is_e_symmetric(t)  # zero tensor is symmetric at any scale
    big = identity_tensor(2, 2) * 1e6
    perturbed = Tensor(
        big.shape, big.data + np.where(np.arange(16) == 1, 1e-8, 0.0)
    )
    # absolute asymmetry 1e-8 is still within 1e-12 of the 1e6 scale
    assert is_e_symmetric(perturbed, DEFAULT_TOL)
