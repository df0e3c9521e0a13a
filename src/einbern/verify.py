"""Seeded property suites behind the `verify` command.

Each property draws its own generator from the suite seed, yields its
errors over the requested number of cases, and ``_property`` reports the
worst against the tolerance it must meet.  The contraction identities
always pit the fast reshape-multiply path against naive nested-loop
references so that the two routes stay independent witnesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iproduct

import numpy as np

from . import algebra, bounds, spectral, tensor

__all__ = ["PropertyResult", "SUITES", "run_suite", "suite_names", "worked_example"]


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    detail: str


class _Failed(Exception):
    """Raised by a property body to fail; the message is the detail."""


SUITES = {"algebra": [], "spectral": [], "bounds": []}


def _max_error(errors, tol: float) -> str:
    """The largest error the generator yields, against tol, and the note it
    returns.  A non-finite error fails, where max() would drop a NaN."""
    worst = 0.0
    while True:
        try:
            err = next(errors)
        except StopIteration as stop:
            note = stop.value
            break
        if not math.isfinite(err):
            raise _Failed(f"max err {err:.3e} (tol {tol:.1e})")
        worst = max(worst, err)
    detail = f"max err {worst:.3e} (tol {tol:.1e})"
    if note:
        detail += f", {note}"
    if worst > tol:
        raise _Failed(detail)
    return detail


def _property(suite: str, name: str, salt: int | None = None,
              tol: float | None = None):
    """Register ``body(rng, seed, cases)`` in ``SUITES[suite]`` as a
    ``(seed, cases) -> PropertyResult``; rng is ``default_rng([seed,
    salt])``, None without a salt.  With ``tol`` the body yields errors,
    else returns its detail; either fails by raising ``_Failed(detail)``."""
    def register(body):
        def run(seed, cases):
            rng = None if salt is None else np.random.default_rng([seed, salt])
            try:
                detail = body(rng, seed, cases)
                if tol is not None:
                    detail = _max_error(detail, tol)
            except _Failed as failed:
                return PropertyResult(name, False, str(failed))
            return PropertyResult(name, True, detail)

        SUITES[suite].append(run)
        return run

    return register


# ---------------------------------------------------------------------------
# algebra suite


@_property("algebra", "linearize-bijective", salt=1)
def _prop_linearize_bijective(rng, seed, cases):
    shapes = [(d,) * n for n in range(1, 7) for d in range(1, 5)]
    for _ in range(min(cases, 40)):
        n = int(rng.integers(1, 5))
        shapes.append(tuple(int(rng.integers(1, 5)) for _ in range(n)))
    for shape in shapes:
        size = math.prod(shape)
        seen = np.zeros(size, dtype=bool)
        for idx0 in np.ndindex(*shape):
            flat = tensor.linearize(tuple(i + 1 for i in idx0), shape)
            if seen[flat - 1] or tensor.delinearize(flat, shape) != tuple(
                i + 1 for i in idx0
            ):
                raise _Failed(f"collision in shape {shape}")
            seen[flat - 1] = True
        if not seen.all():
            raise _Failed(f"range gap in shape {shape}")
    return f"{len(shapes)} shapes fully enumerated"


@_property("algebra", "transpose-involution", salt=2)
def _prop_transpose_involution(rng, seed, cases):
    for _ in range(cases):
        m = int(rng.integers(1, 3))
        d = int(rng.integers(2, 4))
        a = tensor.random_tensor(rng, (d,) * (2 * m))
        if tensor.transpose_even(tensor.transpose_even(a)) != a:
            raise _Failed("double transpose changed bits")
        if not np.array_equal(
            algebra.matricize(tensor.transpose_even(a)), algebra.matricize(a).T
        ):
            raise _Failed("unfolding transpose mismatch")
    return f"{cases} cases, bit-exact"


@_property("algebra", "outer-vs-kron-power", salt=3, tol=1e-13)
def _prop_outer_kron(rng, seed, cases):
    for _ in range(cases):
        m = int(rng.integers(1, 4))
        d = int(rng.integers(2, 5))
        x = rng.uniform(-1, 1, size=d)
        diff = np.abs(
            tensor.outer_power(x, m).data - tensor.kron_power(x, m)
        ).max()
        yield float(diff)


@_property("algebra", "form-vs-unfolding-quadratic", salt=4, tol=1e-12)
def _prop_apply_power_quadratic(rng, seed, cases):
    for _ in range(cases):
        m = int(rng.integers(1, 3))
        d = int(rng.integers(2, 4))
        a = tensor.random_e_symmetric(rng, m, d)
        x = rng.uniform(-1, 1, size=d)
        direct = tensor.apply_power(a, x)
        vec = tensor.kron_power(x, m)
        oracle = float(vec @ algebra.matricize(a) @ vec)
        scale = max(1.0, abs(oracle))
        yield abs(direct - oracle) / scale


@_property("algebra", "unfolding-homomorphism", salt=5, tol=1e-12)
def _prop_homomorphism(rng, seed, cases):
    for m, d in iproduct((1, 2), (2, 3)):
        for _ in range(cases):
            a = tensor.random_tensor(rng, (d,) * (2 * m))
            b = tensor.random_tensor(rng, (d,) * (2 * m))
            prod = algebra.einstein_product_reference(a, b)
            lhs = algebra.matricize(prod)
            rhs = algebra.matricize(a) @ algebra.matricize(b)
            tol_scale = max(1.0, a.max_abs() * b.max_abs() * d**m)
            yield float(np.abs(lhs - rhs).max()) / tol_scale


@_property("algebra", "product-transpose-reversal", salt=6, tol=1e-12)
def _prop_product_transpose(rng, seed, cases):
    for _ in range(cases):
        m = int(rng.integers(1, 3))
        d = int(rng.integers(2, 4))
        a = tensor.random_tensor(rng, (d,) * (2 * m))
        b = tensor.random_tensor(rng, (d,) * (2 * m))
        lhs = tensor.transpose_even(algebra.einstein_product(a, b))
        rhs = algebra.einstein_product(
            tensor.transpose_even(b), tensor.transpose_even(a)
        )
        scale = max(1.0, lhs.max_abs())
        yield float(np.abs(lhs.data - rhs.data).max()) / scale


@_property("algebra", "identity-neutral", salt=7, tol=1e-14)
def _prop_identity_neutral(rng, seed, cases):
    for _ in range(cases):
        m = int(rng.integers(1, 3))
        d = int(rng.integers(2, 4))
        a = tensor.random_tensor(rng, (d,) * (2 * m))
        out = algebra.einstein_product(tensor.identity_tensor(m, d), a)
        yield float(np.abs(out.data - a.data).max())


@_property("algebra", "gen-product-unfolding-identities", salt=8, tol=1e-12)
def _prop_gen_product_identities(rng, seed, cases):
    per_combo = max(1, cases // 10)
    for n, d in iproduct((1, 2, 3, 4, 5), (2, 3)):
        for _ in range(per_combo):
            a = tensor.random_tensor(rng, (d,) * n)
            fbar = algebra.matricize_general(a)
            outer = algebra.gen_product_outer_reference(a, a)
            inner = algebra.gen_product_inner_reference(a, a)
            scale = max(1.0, a.max_abs() ** 2 * d**n)
            err_outer = np.abs(algebra.matricize(outer) - fbar @ fbar.T).max()
            err_inner = np.abs(algebra.matricize(inner) - fbar.T @ fbar).max()
            yield float(err_outer) / scale
            yield float(err_inner) / scale


@_property("algebra", "gen-product-even-reduction", salt=9, tol=1e-12)
def _prop_gen_product_even_reduction(rng, seed, cases):
    for _ in range(cases):
        m = int(rng.integers(1, 3))
        d = int(rng.integers(2, 4))
        a = tensor.random_tensor(rng, (d,) * (2 * m))
        b = tensor.random_tensor(rng, (d,) * (2 * m))
        lhs1 = algebra.gen_product_outer(a, b)
        rhs1 = algebra.einstein_product(a, tensor.transpose_even(b))
        lhs2 = algebra.gen_product_inner(a, b)
        rhs2 = algebra.einstein_product(tensor.transpose_even(a), b)
        scale = max(1.0, a.max_abs() * b.max_abs() * d**m)
        yield float(np.abs(lhs1.data - rhs1.data).max()) / scale
        yield float(np.abs(lhs2.data - rhs2.data).max()) / scale


@_property("algebra", "self-product-exactly-symmetric", salt=10)
def _prop_gram_symmetry(rng, seed, cases):
    for _ in range(cases):
        n = int(rng.integers(1, 6))
        d = int(rng.integers(2, 4))
        a = tensor.random_tensor(rng, (d,) * n)
        if not tensor.is_e_symmetric(algebra.gen_product_outer(a, a), 0.0):
            raise _Failed("asymmetric Gram tensor")
    return f"{cases} cases, tolerance zero"


@_property("algebra", "matricize-roundtrip", salt=11)
def _prop_matricize_roundtrip(rng, seed, cases):
    for _ in range(min(cases, 50)):
        n = int(rng.integers(1, 6))
        d = int(rng.integers(2, 4))
        a = tensor.random_tensor(rng, (d,) * n)
        back = algebra.unmatricize(algebra.matricize_general(a), n, d)
        if back != a:
            raise _Failed("bits changed")
    return "round-trips bit-exact"


@_property("algebra", "gram-trace-is-frobenius", salt=12, tol=1e-12)
def _prop_trace_frobenius(rng, seed, cases):
    for _ in range(cases):
        n = int(rng.integers(1, 5))
        d = int(rng.integers(2, 4))
        a = tensor.random_tensor(rng, (d,) * n)
        frob = float(a.data @ a.data)
        tr_outer = float(np.trace(algebra.matricize(algebra.gen_product_outer(a, a))))
        tr_inner = float(np.trace(algebra.matricize(algebra.gen_product_inner(a, a))))
        scale = max(1.0, frob)
        yield abs(tr_outer - frob) / scale
        yield abs(tr_inner - frob) / scale


# ---------------------------------------------------------------------------
# spectral suite


@_property("spectral", "eigensolver-contract", salt=20, tol=1e-12)
def _prop_sym_eig_contract(rng, seed, cases):
    for _ in range(cases):
        n = int(rng.integers(2, 13))
        m = rng.standard_normal((n, n))
        m = (m + m.T) / 2
        dec = spectral.sym_eig(m)
        scale = max(1.0, float(np.abs(m).max())) * n
        recon = np.abs(dec.vectors @ np.diag(dec.values) @ dec.vectors.T - m).max()
        ortho = np.abs(dec.vectors.T @ dec.vectors - np.eye(n)).max()
        yield float(recon) / scale
        yield float(ortho)


@_property("spectral", "evd-reconstruction", salt=21, tol=1e-10)
def _prop_evd_reconstruction(rng, seed, cases):
    for _ in range(cases):
        m = int(rng.integers(1, 3))
        d = int(rng.integers(2, 4))
        a = tensor.random_e_symmetric(rng, m, d)
        dec = spectral.e_evd(a)
        recon = algebra.einstein_product(
            algebra.einstein_product(dec.u, dec.diag), tensor.transpose_even(dec.u)
        )
        err = float(np.abs(recon.data - a.data).max())
        yield err / (a.max_abs() * d**m)


@_property("spectral", "trace-vs-spectrum-sum", salt=22, tol=1e-10)
def _prop_trace_spectrum(rng, seed, cases):
    for _ in range(cases):
        m = int(rng.integers(1, 3))
        d = int(rng.integers(2, 4))
        a = tensor.random_e_symmetric(rng, m, d)
        diff = abs(spectral.e_trace(a) - float(spectral.e_eigenvalues(a).sum()))
        yield diff / max(1.0, a.max_abs() * d**m)


@_property("spectral", "square-via-evd-hadamard", salt=23, tol=1e-10)
def _prop_evd_hadamard_square(rng, seed, cases):
    for _ in range(cases):
        m = int(rng.integers(1, 3))
        d = int(rng.integers(2, 4))
        a = tensor.random_e_symmetric(rng, m, d)
        dec = spectral.e_evd(a)
        square = algebra.einstein_product(a, a)
        recon = algebra.einstein_product(
            algebra.einstein_product(dec.u, tensor.hadamard(dec.diag, dec.diag)),
            tensor.transpose_even(dec.u),
        )
        err = float(np.abs(square.data - recon.data).max())
        yield err / max(1.0, square.max_abs() * d**m)


@_property("spectral", "dilation-top-eigenvalue-is-norm", salt=24, tol=1e-10)
def _prop_dilation_norm(rng, seed, cases):
    for _ in range(cases):
        r = int(rng.integers(1, 6))
        c = int(rng.integers(1, 6))
        b = rng.standard_normal((r, c))
        top = float(spectral.sym_eig(algebra.hermitian_dilation(b)).values[0])
        gram = float(spectral.sym_eig(b.T @ b).values[0])
        sigma = math.sqrt(max(gram, 0.0))
        yield abs(top - sigma) / max(1.0, sigma)


@_property("spectral", "spectral-norm-chain", salt=25, tol=1e-10)
def _prop_norm_chain(rng, seed, cases):
    per_combo = max(1, cases // 6)
    for n, d in iproduct((1, 3, 4), (2, 3)):
        for _ in range(per_combo):
            a = tensor.random_tensor(rng, (d,) * n)
            e1 = math.sqrt(
                spectral.e_spectral_norm(algebra.gen_product_outer(a, a))
            )
            e2 = math.sqrt(
                spectral.e_spectral_norm(algebra.gen_product_inner(a, a))
            )
            fbar = algebra.matricize_general(a)
            e3 = math.sqrt(float(spectral.sym_eig(fbar.T @ fbar).values[0]))
            e4 = spectral.gen_spectral_norm(a)
            scale = max(1.0, e4)
            for e in (e1, e2, e3):
                yield abs(e - e4) / scale


@_property("spectral", "gen-norm-matches-even-norm", salt=26, tol=1e-10)
def _prop_gen_norm_even_symmetric(rng, seed, cases):
    for _ in range(cases):
        m = int(rng.integers(1, 3))
        d = int(rng.integers(2, 4))
        a = tensor.random_e_symmetric(rng, m, d)
        diff = abs(spectral.gen_spectral_norm(a) - spectral.e_spectral_norm(a))
        yield diff / max(1.0, spectral.e_spectral_norm(a))


@_property("spectral", "z-estimate-below-e-max", salt=27, tol=1e-8)
def _prop_z_lower_bound(rng, seed, cases):
    # the error is how far the estimate rises above the E-maximum; an
    # estimate below it counts as zero error
    count = min(cases, 50)
    for k in range(count):
        a = tensor.random_fully_symmetric(rng, 4, 3)
        est = spectral.z_eigen_max(a, restarts=6, iters=1000, seed=seed + k)
        lam_e = float(spectral.e_eigenvalues(a)[0])
        yield est.value - lam_e
    return f"{count} tensors"


@_property("spectral", "epsd-implies-sampled-psd", salt=28, tol=1e-10)
def _prop_epsd_sampled_psd(rng, seed, cases):
    for _ in range(min(cases, 10)):
        n = int(rng.integers(2, 5))
        d = int(rng.integers(2, 4))
        a = tensor.random_tensor(rng, (d,) * n)
        gram = algebra.gen_product_outer(a, a)
        if not spectral.is_e_psd(gram):
            raise _Failed("self-product not E-PSD")
        xs = rng.standard_normal((1000, gram.cubic_dim))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        yield from -np.einsum("ij,ij->i", xs, tensor.apply_power_map(gram, xs))


def worked_example(seed: int = 0) -> list:
    """The facts of the paper's Example 4.5, one result per fact.

    The order-4, dimension-3 tensor has the quartic form 6 x1^2 x2^2 >= 0,
    so it is PSD, but its unfolding has the quadratic form -2 and the
    Einstein spectrum (2, 1, 0 x6, -1), so it is not E-PSD; its largest
    Z-eigenvalue is 1.5.  Form samples come from ``default_rng(seed)``.
    """
    a = tensor.psd_counterexample_tensor()
    xs = np.random.default_rng(seed).standard_normal((1000, 3))
    forms = np.einsum("ij,ij->i", xs, tensor.apply_power_map(a, xs))
    worst = float(np.abs(forms - 6.0 * xs[:, 0] ** 2 * xs[:, 1] ** 2).max())
    neg = min(float(forms.min()), 0.0)
    y = np.zeros(9)
    y[[0, 4]] = 1.0, -1.0
    quad = float(y @ algebra.matricize(a) @ y)
    values = spectral.e_eigenvalues(a)
    spec_err = float(np.abs(values - [2.0, 1.0, 0, 0, 0, 0, 0, 0, -1.0]).max())
    epsd = spectral.is_e_psd(a)
    est = spectral.z_eigen_max(a, restarts=20, iters=500, seed=seed)
    facts = [
        ("quartic-form", worst <= 1e-12 and neg >= -1e-12,
         f"quartic form equals 6*x1^2*x2^2 on 1000 samples: "
         f"max deviation {worst:.2e}, min value {neg:.2e}"),
        ("unfolding-quadratic-form", quad == -2.0,
         f"quadratic form of the unfolding at y=(1,0,0,0,-1,0,0,0,0): {quad:g}"),
        ("einstein-spectrum", spec_err <= 1e-10,
         f"Einstein spectrum (2, 1, 0 x6, -1): max {values[0]:g}, "
         f"min {values[-1]:g}, max err {spec_err:.1e}"),
        ("not-e-psd", not epsd, f"is_e_psd: {epsd}, expected False"),
        ("z-estimate", abs(est.value - 1.5) <= 1e-6,
         f"largest Z-eigenvalue estimate: {est.value:.9f}, "
         f"residual {est.residual:.2e}"),
    ]
    return [
        PropertyResult(name, ok, f"{text} ({'ok' if ok else 'MISMATCH'})")
        for name, ok, text in facts
    ]


@_property("spectral", "psd-counterexample")
def _prop_counterexample(rng, seed, cases):
    failed = [f.name for f in worked_example(seed) if not f.passed]
    if failed:
        raise _Failed(f"failed: {', '.join(failed)}")
    return "worked example reproduced"


# ---------------------------------------------------------------------------
# bounds suite


@_property("bounds", "closed-form-spot-values", tol=1e-15)
def _prop_formula_spot_values(rng, seed, cases):
    report = bounds.BernsteinReport

    def mean(*args):
        return report(*args).expectation_bound

    # general N=1, d=1 has D = 2; general N=2, d=2 has D = 4
    checks = [
        (mean("even", 2, 2, 0.0, 1.0), math.sqrt(2 * math.log(2))),
        (
            mean("even", 4, 2, 1.0, 1.0),
            math.sqrt(4 * math.log(2)) + 2 * math.log(2) / 3,
        ),
        (
            mean("general", 3, 2, 1.0, 1.0),
            math.sqrt(2 * math.log(6)) + math.log(6) / 3,
        ),
        (report("general", 1, 1, 0.0, 1.0).tail(2.0).raw, 2 * math.exp(-2)),
        (report("general", 2, 2, 1.0, 1.0).tail(0.0).raw, 4.0),
        (report("general", 2, 2, 0.0, 0.0).tail(1.0).raw, 0.0),
    ]
    for got, want in checks:
        yield abs(got - want)


@_property("bounds", "tail-monotonicity")
def _prop_tail_monotonicity(rng, seed, cases):
    # the comparisons are written so that a NaN bound fails them; each
    # report is general N=2, d=2, whose tail factor is 4
    def raw(t, nu, L):
        return bounds.BernsteinReport("general", 2, 2, L, nu).tail(t).raw

    ts = np.linspace(0.0, 5.0, 26)
    for nu, L in [(0.5, 0.0), (1.0, 1.0), (2.0, 0.3)]:
        raws = [raw(float(t), nu, L) for t in ts]
        if not all(b < a for a, b in zip(raws, raws[1:])):
            raise _Failed("not decreasing in t")
    for t in (0.5, 1.0, 2.0):
        by_nu = [raw(t, nu, 0.5) for nu in (0.1, 0.5, 1.0, 2.0)]
        by_l = [raw(t, 0.5, L) for L in (0.0, 0.5, 1.0, 2.0)]
        if not all(b > a for a, b in zip(by_nu, by_nu[1:])) or not all(
            b > a for a, b in zip(by_l, by_l[1:])
        ):
            raise _Failed("not increasing in nu or L")
    return "grids ordered as required"


@_property("bounds", "matrix-case-reduction", salt=40, tol=1e-12)
def _prop_matrix_reduction(rng, seed, cases):
    for _ in range(min(cases, 25)):
        d = int(rng.integers(2, 5))
        comps = [tensor.random_tensor(rng, (d, d)) for _ in range(5)]
        model = bounds.SumModel.rademacher(comps)
        report = bounds.build_report(model, "general")
        mats = [algebra.matricize_general(c) for c in comps]
        l_mat = max(np.linalg.svd(m, compute_uv=False)[0] for m in mats)
        m1 = sum(m @ m.T for m in mats)
        m2 = sum(m.T @ m for m in mats)
        nu_mat = max(
            float(np.linalg.eigvalsh(m1)[-1]), float(np.linalg.eigvalsh(m2)[-1])
        )
        yield abs(report.L - l_mat) / max(1.0, l_mat)
        yield abs(report.nu - nu_mat) / max(1.0, nu_mat)
        yield abs(report.dim_factor - 2 * d)
        sym_comps = [
            (c + tensor.transpose_even(c)) / 2.0 for c in comps
        ]
        sym_model = bounds.SumModel.rademacher(sym_comps)
        even = bounds.build_report(sym_model, "even")
        sym_mats = [algebra.matricize_general(c) for c in sym_comps]
        l_sym = max(float(np.abs(np.linalg.eigvalsh(m)).max()) for m in sym_mats)
        nu_sym = float(
            np.abs(np.linalg.eigvalsh(sum(m @ m for m in sym_mats))).max()
        )
        yield abs(even.L - l_sym) / max(1.0, l_sym)
        yield abs(even.nu - nu_sym) / max(1.0, nu_sym)
        yield abs(even.dim_factor - d)


@_property("bounds", "variance-vs-matricized", salt=41, tol=1e-12)
def _prop_variance_matricized(rng, seed, cases):
    for _ in range(min(cases, 25)):
        n = int(rng.integers(1, 5))
        d = int(rng.integers(2, 4))
        comps = [tensor.random_tensor(rng, (d,) * n) for _ in range(5)]
        model = bounds.SumModel.rademacher(comps)
        nu = bounds.build_report(model, "general").nu
        mats = [algebra.matricize_general(c) for c in comps]
        m1 = sum(m @ m.T for m in mats)
        m2 = sum(m.T @ m for m in mats)
        nu_mat = max(
            float(np.abs(np.linalg.eigvalsh(m1)).max()),
            float(np.abs(np.linalg.eigvalsh(m2)).max()),
        )
        yield abs(nu - nu_mat) / max(1.0, nu_mat)


@_property("bounds", "intrinsic-dimension-identity", salt=42, tol=1e-12)
def _prop_intrinsic_identity(rng, seed, cases):
    for _ in range(min(cases, 100)):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(2, 4))
        comps = [tensor.random_tensor(rng, (d,) * n) for _ in range(3)]
        model = bounds.SumModel.rademacher(comps)
        outer, inner = bounds.variance_general(model)
        report = bounds.intrinsic_report(outer, inner, 1.0)
        m = model.split
        fo = algebra.matricize(outer).T
        fi = algebra.matricize(inner)
        block = np.zeros((fo.shape[0] + fi.shape[0],) * 2)
        block[: fo.shape[0], : fo.shape[1]] = fo
        block[fo.shape[0] :, fo.shape[1] :] = fi
        dv_np = float(np.trace(block) / np.abs(np.linalg.eigvalsh(block)).max())
        ambient = d**m + d ** (n - m)
        if report.dv > ambient + 1e-9:
            raise _Failed("exceeds ambient factor")
        yield abs(report.dv - dv_np) / max(1.0, dv_np)


@_property("bounds", "intrinsic-vs-general-ratio", salt=43, tol=1e-12)
def _prop_intrinsic_vs_general(rng, seed, cases):
    comps = [tensor.random_tensor(rng, (2, 2, 2)) for _ in range(5)]
    model = bounds.SumModel.rademacher(comps)
    gen = bounds.build_report(model, "general")
    intr = bounds.build_report(model, "intrinsic")
    for t in np.linspace(intr.tail_domain_min, intr.tail_domain_min + 4.0, 9):
        raw_gen = gen.tail(float(t)).raw
        raw_intr = intr.tail(float(t)).raw
        lhs = raw_intr * gen.dim_factor
        rhs = raw_gen * intr.tail_factor
        yield abs(lhs - rhs) / max(1.0, abs(rhs))


@_property("bounds", "identical-population-centers-to-zero", salt=44, tol=1e-12)
def _prop_centering_annihilation(rng, seed, cases):
    base = tensor.random_e_symmetric(rng, 1, 3)
    model = bounds.SumModel.subsample([base, base, base], sample_size=4)
    yield abs(bounds.uniform_bound_L(model))
    yield abs(bounds.build_report(model, "even").nu)


@_property("bounds", "projector-variance-linearity", salt=45, tol=1e-10)
def _prop_projector_variance(rng, seed, cases):
    x = rng.standard_normal(3)
    x /= np.linalg.norm(x)
    proj = algebra.gen_product_outer(tensor.outer_power(x, 2), tensor.outer_power(x, 2))
    k = 7
    model = bounds.SumModel.rademacher([proj] * k)
    yield abs(bounds.build_report(model, "even").nu - k)


@_property("bounds", "subsample-exact-enumeration", salt=46, tol=1e-12)
def _prop_subsample_scaling(rng, seed, cases):
    pop = [tensor.random_e_symmetric(rng, 1, 3) for _ in range(4)]
    model = bounds.SumModel.subsample(pop, sample_size=2)
    n, s = 4, 2
    centered = model.components
    acc = sum(
        (algebra.matricize(c) @ algebra.matricize(c) for c in centered),
        np.zeros((3, 3)),
    )
    nu_direct = float(np.abs(np.linalg.eigvalsh(acc * (n / s))).max())
    l_direct = (n / s) * max(
        float(np.linalg.eigvalsh(algebra.matricize(c))[-1]) for c in centered
    )
    yield abs(bounds.build_report(model, "even").nu - nu_direct) / max(1.0, nu_direct)
    yield abs(bounds.uniform_bound_L(model, "even") - l_direct) / max(1.0, l_direct)


def suite_names() -> list:
    return sorted(SUITES)


def run_suite(name: str, seed: int = 0, cases: int = 100) -> list:
    """Run one named suite; 'all' concatenates every suite."""
    if name == "all":
        props = [p for key in sorted(SUITES) for p in SUITES[key]]
    elif name in SUITES:
        props = SUITES[name]
    else:
        raise ValueError(f"unknown suite {name!r}")
    return [prop(seed, cases) for prop in props]
