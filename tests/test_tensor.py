"""Tensor storage, indexing, and elementary constructions."""

import math
from itertools import combinations_with_replacement, permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from einbern import (
    DEFAULT_TOL,
    DomainError,
    NumericalError,
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
    model_from_dict,
    outer_power,
    parse_tensor_text,
    psd_counterexample_tensor,
    random_e_symmetric,
    random_fully_symmetric,
    random_tensor,
    transpose_even,
)
import oracles
from test_spectral import ENTRIES


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

    @pytest.mark.parametrize("shape, data, error, message", [
        ((2.7,), [1.0, 2.0], ShapeError, r"^mode sizes must be integers, got \(2\.7,\)$"),
        ((True,), [1.0], ShapeError, r"^mode sizes must be integers, got \(True,\)$"),
        ("ab", [1.0], ShapeError, r"^mode sizes must be integers, got \('a', 'b'\)$"),
        (5, [1.0], ShapeError, r"^shape must be a sequence of mode sizes, got 5$"),
        ((2,), "ab", DomainError,
         r"^data are not float64 entries: could not convert string to float"),
        ((2,), [10**400, 1], DomainError,
         r"^data are not float64 entries: .*too large"),
    ], ids=["float-size", "bool-size", "str-shape", "int-shape", "str-data",
            "int-past-float"])
    def test_sizes_and_entries_are_judged(self, shape, data, error, message):
        # the float size was truncated to 2 and the bool read as 1; the
        # last four raised a bare TypeError, ValueError or OverflowError
        with pytest.raises(error, match=message):
            Tensor(shape, data)

    def test_numpy_integer_sizes_are_ints(self):
        t = Tensor((np.int64(2), np.int32(1)), [1.0, 2.0])
        assert t.shape == (2, 1) and {type(s) for s in t.shape} == {int}

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

    def test_random_fully_symmetric_is_exactly_symmetric(self):
        # every entry of an orbit holds the one orbit mean, so not even
        # rounding separates them
        rng = np.random.default_rng(41)
        for order in range(1, 9):
            for d in (1, 2, 3):
                s = random_fully_symmetric(rng, order, d)
                assert is_fully_symmetric(s, tol=0.0), (order, d)

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


# ENTRIES, which reach the float limits, and the non-finite values
CLOSENESS_ENTRIES = st.one_of(ENTRIES, st.sampled_from([math.inf, -math.inf, math.nan]))


@st.composite
def cubic_tensors(draw, order, d):
    """A tensor of the given order and dimension from CLOSENESS_ENTRIES:
    any, fully symmetric (one entry per multiset of indices), or, for an
    even order, one whose square unfolding is diagonal."""
    kind = draw(st.sampled_from(["any", "symmetric", "diagonal"]))
    arr = np.zeros((d,) * order)
    if kind == "any":
        arr[...] = np.reshape(
            draw(st.lists(CLOSENESS_ENTRIES, min_size=arr.size, max_size=arr.size)),
            arr.shape)
    elif kind == "diagonal" and order % 2 == 0:
        half = d ** (order // 2)
        mat = np.diag(draw(st.lists(CLOSENESS_ENTRIES, min_size=half, max_size=half)))
        return Tensor((d,) * order, mat.reshape(-1, order="F"))
    else:
        for idx in combinations_with_replacement(range(d), order):
            value = draw(CLOSENESS_ENTRIES)
            for perm in set(permutations(idx)):
                arr[perm] = value
    return Tensor.from_array(arr)


@st.composite
def closeness_cases(draw):
    """(a, b, tol): a small cubic tensor, a second one of its shape for
    ``allclose`` (a itself, a with one entry replaced, or a fresh one),
    and a tolerance."""
    order, d = draw(st.integers(0, 4)), draw(st.integers(1, 3))
    a = draw(cubic_tensors(order, d))
    how = draw(st.sampled_from(["same", "one entry", "fresh"]))
    if how == "fresh":
        b = draw(cubic_tensors(order, d))
    else:
        data = a.data.copy()
        if how == "one entry":
            data[draw(st.integers(0, a.size - 1))] = draw(CLOSENESS_ENTRIES)
        b = Tensor(a.shape, data)
    return a, b, draw(st.sampled_from([0.0, DEFAULT_TOL, 1e-3]))


def closeness_rule(pairs, entries, tol: float) -> bool:
    """max|x - y| over the pairs <= tol * max|v| over the entries, in
    Python floats (a difference that overflows is inf)."""
    diff = max((abs(float(x) - float(y)) for x, y in pairs), default=0.0)
    return diff <= tol * max(abs(float(v)) for v in entries)


def paired_square(t: Tensor) -> np.ndarray:
    half = t.cubic_dim ** (t.order // 2)
    return t.data.reshape((half, half), order="F")


@given(case=closeness_cases())
@example(case=(Tensor((2, 2), [math.nan, 0.0, 0.0, 1.0]),) * 2 + (DEFAULT_TOL,))
@example(case=(Tensor((2, 2), [1.0, math.inf, 0.0, 1.0]),) * 2 + (DEFAULT_TOL,))
@example(case=(Tensor((2, 2), [math.inf, 0.0, 0.0, 1.0]),) * 2 + (DEFAULT_TOL,))
@settings(derandomize=True, max_examples=300, deadline=None)
def test_closeness_predicates_follow_one_rule(case):
    # warnings are errors here, so a numpy warning fails too
    a, b, tol = case
    arr = a.to_array()
    checks = [
        ("allclose", a.allclose(b, tol), zip(a.data, b.data),
         np.concatenate([a.data, b.data])),
        ("is_fully_symmetric", is_fully_symmetric(a, tol),
         [(arr[idx], arr[tuple(idx[p] for p in perm)])
          for perm in permutations(range(a.order)) for idx in np.ndindex(arr.shape)],
         a.data),
    ]
    if a.order % 2 == 0:
        mat = paired_square(a)
        mirrored = list(zip(mat.ravel(), mat.T.ravel()))
        off_diagonal = [(mat[i, j], 0.0) for i, j in np.ndindex(mat.shape) if i != j]
        rows = e_symmetric_rows(a.data[None])
        assert rows.dtype == bool and rows.shape == (1,)
        checks += [
            ("is_e_symmetric", is_e_symmetric(a, tol), mirrored, a.data),
            ("e_symmetric_rows", bool(rows[0]), mirrored, a.data),
            ("is_diagonal", is_diagonal(a, tol), off_diagonal, a.data),
        ]
    for name, got, pairs, entries in checks:
        assert type(got) is bool, name
        if not np.isfinite(entries).all():
            assert got is False, name
        else:
            rule_tol = DEFAULT_TOL if name == "e_symmetric_rows" else tol
            assert got == closeness_rule(pairs, entries, rule_tol), name


@st.composite
def near_symmetric_cases(draw):
    """(t, tol): a cubic tensor of order <= 5 from ``cubic_tensors``, half
    the time with one entry scaled by 1 + eps for an eps near the
    tolerances, and a tolerance."""
    order = draw(st.integers(0, 5))
    t = draw(cubic_tensors(order, draw(st.integers(1, 3 if order <= 4 else 2))))
    if draw(st.booleans()):
        data = t.data.copy()
        pos = draw(st.integers(0, t.size - 1))
        eps = draw(st.sampled_from([1e-15, 1e-13, 1e-12, 1e-11, 1e-4]))
        data[pos] = float(data[pos]) * (1.0 + eps)
        t = Tensor(t.shape, data)
    return t, draw(st.sampled_from([0.0, DEFAULT_TOL, 1e-3]))


@given(case=near_symmetric_cases())
@settings(derandomize=True, max_examples=300, deadline=None)
def test_full_symmetry_matches_the_permutation_oracle(case):
    t, tol = case
    assert is_fully_symmetric(t, tol) is oracles.is_fully_symmetric(t, tol)


@given(order=st.integers(1, 7), d=st.integers(1, 3), count=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
@settings(derandomize=True, max_examples=40, deadline=None)
def test_fully_symmetric_generators_match_the_permutation_oracle(order, d, count, seed):
    draws = np.random.default_rng(seed).uniform(-1.0, 1.0, (count, d**order))
    model = model_from_dict({"law": "rademacher", "generate": {
        "count": count, "order": order, "dim": d, "seed": seed,
        "kind": "fully_symmetric"}})
    rng = np.random.default_rng(seed)
    for row, generated in zip(draws, model.stack):
        want = oracles.symmetrize(Tensor((d,) * order, row))
        assert want.allclose(random_fully_symmetric(rng, order, d))
        assert want.allclose(Tensor(want.shape, generated))


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

    @pytest.mark.parametrize("order", [2, 4, 6])
    @pytest.mark.parametrize("kind", ["any", "fully_symmetric"])
    def test_form_is_x_times_the_oracle_map(self, order, kind):
        rng = np.random.default_rng(40 + order)
        for _ in range(10):
            t = (random_tensor(rng, (3,) * order) if kind == "any"
                 else random_fully_symmetric(rng, order, 3))
            x = rng.standard_normal(3)
            want = float(x @ oracles.power_map(t, x))
            assert apply_power(t, x) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_order_zero_is_its_entry(self):
        assert apply_power(Tensor((), [2.5]), np.ones(0)) == 2.5

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            apply_power(identity_tensor(1, 3), np.ones(4))
        for bad in (np.ones((2, 4)), np.ones((2, 2, 3))):
            with pytest.raises(ShapeError):
                apply_power_map(identity_tensor(1, 3), bad)


@st.composite
def power_calls(draw):
    """(function, arguments) of the form of an order-2 or -4 tensor, or of
    an outer or Kronecker power, on a vector of length <= 3, all from
    ENTRIES."""
    fn = draw(st.sampled_from([apply_power, outer_power, kron_power]))
    d = draw(st.integers(1, 3))
    x = np.array(draw(st.lists(ENTRIES, min_size=d, max_size=d)))
    if fn is not apply_power:
        return fn, (x, draw(st.integers(1, 4)))
    order = 2 * draw(st.integers(1, 2))
    entries = draw(st.lists(ENTRIES, min_size=d**order, max_size=d**order))
    return fn, (Tensor((d,) * order, entries), x)


@given(call=power_calls())
@example(call=(apply_power, (Tensor((2,) * 4, np.ones(16)), np.array([1e100, 1e100]))))
@example(call=(outer_power, (np.array([1e200, 1.0]), 2)))
@example(call=(kron_power, (np.array([1e200, 1.0]), 2)))
@settings(derandomize=True, max_examples=300, deadline=None)
def test_powers_return_finite_values_or_raise(call):
    # warnings are errors here, so a numpy overflow warning fails too
    fn, args = call
    try:
        result = fn(*args)
    except NumericalError:
        return
    assert np.isfinite(result.data if isinstance(result, Tensor) else result).all()


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
