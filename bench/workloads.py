"""Seeded workload generator and the numpy oracle the output checks use.

A workload is a list of CLI invocations (``einbern bound`` or
``einbern simulate``) over config documents generated from the
benchmark seed.  The program only ever sees the generated documents.

The oracle recomputes every certified quantity (L, nu, intrinsic
dimension, tail curve) and every per-trial statistic with plain numpy
(``eigvalsh``/``svd``), sharing no code with ``einbern``.  It also sizes
the t-grids, which depend on nu and L.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

# Sizes per workload.  "full" is what the benchmark measures, scaled down
# from the roadmap shapes (K=200 for bound, 10^4 trials for simulate) so
# that many fresh-process samples fit into one run window; the subsample
# workload keeps only 200 trials because its two-thread trial loop is the
# noisiest part on a shared two-CPU host.  "tiny" is for self-tests only.
SIZES = {
    "full": {
        "bound-even-o6d3": {"count": 20, "grid": 50},
        "simulate-ac7": {"count": 50, "trials": 500, "grid": 20},
        "simulate-subsample-o3": {"count": 400, "sample_size": 400,
                                  "trials": 200, "grid": 20},
    },
    "tiny": {
        "bound-even-o6d3": {"count": 2, "grid": 5},
        "simulate-ac7": {"count": 6, "trials": 100, "grid": 6},
        "simulate-subsample-o3": {"count": 12, "sample_size": 12,
                                  "trials": 100, "grid": 6},
    },
}

WORKLOADS = tuple(SIZES["full"])

# simulate-ac7 runs its one experiment under each of the three theorems
AC7_THEOREMS = ("even", "general", "intrinsic")

CONFIDENCE_SLACK = 3.0


@dataclass
class Invocation:
    """One ``einbern`` CLI call of a workload.

    ``argv`` holds ``{config}`` and ``{out}`` placeholders that the runner
    fills with paths in its work directory.
    """

    label: str
    command: str
    doc: dict
    argv: list
    model: dict
    theorem: str
    grid: list
    trials: int = 0
    seed: int = 0


@dataclass
class Workload:
    name: str
    invocations: list
    # work completed per sample: components for bound, trials for simulate
    items: int
    sizes: dict


def _seeds(name: str, seed: int, count: int) -> list:
    rng = random.Random(f"{name}/{seed}")
    return [rng.randrange(1, 2**31) for _ in range(count)]


def build(name: str, seed: int, size: str = "full") -> Workload:
    """Generate the invocations of workload ``name`` from ``seed``."""
    sizes = SIZES[size][name]
    if name == "bound-even-o6d3":
        (gen_seed,) = _seeds(name, seed, 1)
        model = {
            "law": "rademacher",
            "generate": {"count": sizes["count"], "order": 6, "dim": 3,
                         "seed": gen_seed, "kind": "e_symmetric"},
        }
        q = bound_quantities(model, "even")
        stop = 3.0 * (math.sqrt(q["nu"]) + q["L"])
        num = sizes["grid"]
        grid = [float(t) for t in np.linspace(0.0, stop, num)]
        inv = Invocation(
            label="bound-even",
            command="bound",
            doc={"schema": 1, **model},
            argv=["bound", "--config", "{config}", "--theorem", "even",
                  "--t-grid", f"0:{stop!r}:{num}", "--out", "{out}"],
            model=model,
            theorem="even",
            grid=grid,
        )
        return Workload(name, [inv], items=sizes["count"], sizes=sizes)

    if name == "simulate-ac7":
        gen_seed, exp_seed = _seeds(name, seed, 2)
        model = {
            "law": "rademacher",
            "generate": {"count": sizes["count"], "order": 4, "dim": 2,
                         "seed": gen_seed, "kind": "e_symmetric"},
        }
        invs = []
        for theorem in AC7_THEOREMS:
            q = bound_quantities(model, theorem)
            stop = 3.0 * (math.sqrt(q["nu"]) + q["L"])
            grid = _grid_above(np.linspace(0.0, stop, sizes["grid"]),
                               q["tail_domain_min"])
            invs.append(_simulate(f"simulate-{theorem}", model, theorem, grid,
                                  sizes["trials"], exp_seed))
        return Workload(name, invs, items=sizes["trials"] * len(invs),
                        sizes=sizes)

    if name == "simulate-subsample-o3":
        gen_seed, exp_seed = _seeds(name, seed, 2)
        model = {
            "law": "subsample",
            "sample_size": sizes["sample_size"],
            "generate": {"count": sizes["count"], "order": 3, "dim": 2,
                         "seed": gen_seed, "kind": "general"},
        }
        q = bound_quantities(model, "intrinsic")
        start = q["tail_domain_min"] * (1.0 + 1e-9)
        stop = 3.0 * (math.sqrt(q["nu"]) + q["L"])
        grid = [float(t) for t in np.linspace(start, stop, sizes["grid"])]
        inv = _simulate("simulate-intrinsic", model, "intrinsic", grid,
                        sizes["trials"], exp_seed)
        return Workload(name, [inv], items=sizes["trials"], sizes=sizes)

    raise ValueError(f"unknown workload {name!r}")


def _grid_above(points, tail_domain_min: float) -> list:
    # keep a relative margin so ulp-level differences between the oracle
    # and the program never put a point below the validity threshold
    return [float(t) for t in points if t >= tail_domain_min * (1.0 + 1e-9)]


def _simulate(label, model, theorem, grid, trials, seed) -> Invocation:
    doc = {
        "schema": 1,
        "model": model,
        "trials": trials,
        "t_grid": grid,
        "seed": seed,
        "confidence_slack": CONFIDENCE_SLACK,
        "theorem": theorem,
    }
    return Invocation(
        label=label,
        command="simulate",
        doc=doc,
        argv=["simulate", "--config", "{config}", "--out", "{out}"],
        model=model,
        theorem=theorem,
        grid=grid,
        trials=trials,
        seed=seed,
    )


# ---------------------------------------------------------------- oracle


def components(model: dict) -> np.ndarray:
    """(K, d**N) stack of the model's flat component buffers, mode 1
    fastest, centered for the subsample law."""
    gen = model["generate"]
    order, dim = gen["order"], gen["dim"]
    size = dim**order
    rng = np.random.default_rng(gen["seed"])
    scale = float(gen.get("scale", 1.0))
    rows = []
    for _ in range(gen["count"]):
        flat = rng.uniform(-scale, scale, size=size)
        if gen["kind"] == "e_symmetric":
            half = dim ** (order // 2)
            mat = flat.reshape((half, half), order="F")
            flat = ((mat + mat.T) / 2.0).reshape(-1, order="F")
        elif gen["kind"] != "general":
            raise ValueError(f"oracle does not generate kind {gen['kind']!r}")
        rows.append(flat)
    stack = np.array(rows)
    if model["law"] == "subsample":
        stack = stack - stack.mean(axis=0)
    return stack


def _unfold(stack: np.ndarray, order: int, dim: int) -> np.ndarray:
    """Batched d**m by d**(N-m) unfoldings, m = ceil(N/2)."""
    m = (order + 1) // 2
    rows, cols = dim**m, dim ** (order - m)
    # mode-1-fastest (Fortran) reshape of each buffer
    return stack.reshape(-1, cols, rows).transpose(0, 2, 1)


def _even_symmetric(model: dict) -> bool:
    gen = model["generate"]
    return gen["order"] % 2 == 0 and gen["kind"] == "e_symmetric"


def bound_quantities(model: dict, theorem: str) -> dict:
    """L, nu, dim_factor, tail_factor, expectation bound, tail domain and
    intrinsic dimension of ``theorem`` for ``model``."""
    gen = model["generate"]
    order, d = gen["order"], gen["dim"]
    m = (order + 1) // 2
    stack = components(model)
    mats = _unfold(stack, order, d)
    if model["law"] == "subsample":
        factor = len(stack) / model["sample_size"]
    else:
        factor = 1.0
    out = {"dv": None, "expectation_bound": None, "tail_domain_min": 0.0}
    if theorem == "even":
        if model["law"] != "rademacher":
            raise ValueError("the oracle covers the even bound for Rademacher only")
        L = float(np.abs(np.linalg.eigvalsh(mats)).max())
        moment = (mats @ mats).sum(axis=0)
        nu = float(np.abs(np.linalg.eigvalsh(moment)).max())
        dim_factor = float(d**m)
        mlogd = m * math.log(d)
        out.update(L=L, nu=nu, dim_factor=dim_factor, tail_factor=dim_factor,
                   expectation_bound=math.sqrt(2.0 * nu * mlogd) + L * mlogd / 3.0)
        return out
    L = factor * float(np.linalg.svd(mats, compute_uv=False)[:, 0].max())
    outer = factor * (mats @ mats.transpose(0, 2, 1)).sum(axis=0)
    inner = factor * (mats.transpose(0, 2, 1) @ mats).sum(axis=0)
    vals_outer = np.linalg.eigvalsh(outer)
    vals_inner = np.linalg.eigvalsh(inner)
    dim_factor = float(d**m + d ** (order - m))
    if theorem == "general":
        nu = float(max(np.abs(vals_outer).max(), np.abs(vals_inner).max()))
        logdim = math.log(dim_factor)
        out.update(L=L, nu=nu, dim_factor=dim_factor, tail_factor=dim_factor,
                   expectation_bound=math.sqrt(2.0 * nu * logdim) + L * logdim / 3.0)
        return out
    if theorem != "intrinsic":
        raise ValueError(f"unknown theorem {theorem!r}")
    nu = float(max(vals_outer[-1], vals_inner[-1]))
    dv = (float(np.trace(outer)) + float(np.trace(inner))) / nu
    out.update(L=L, nu=nu, dim_factor=dim_factor, tail_factor=4.0 * dv, dv=dv,
               tail_domain_min=math.sqrt(nu) + L / 3.0)
    return out


def tail(q: dict, t: float) -> tuple:
    """Raw and clamped tail bound at t."""
    if t == 0.0:
        raw = q["tail_factor"]
    else:
        raw = q["tail_factor"] * math.exp(-(t * t) / 2.0 / (q["nu"] + q["L"] * t / 3.0))
    return raw, min(1.0, raw)


def statistics(model: dict, theorem: str, seed: int, trials: int) -> np.ndarray:
    """Per-trial statistic of a simulate run, from the per-trial streams
    default_rng([seed, trial])."""
    gen = model["generate"]
    order, d = gen["order"], gen["dim"]
    stack = components(model)
    n = len(stack)
    weights = np.empty((trials, n))
    for i in range(trials):
        rng = np.random.default_rng([int(seed), i])
        if model["law"] == "rademacher":
            weights[i] = rng.integers(0, 2, size=n) * 2 - 1
        else:
            s = model["sample_size"]
            weights[i] = (n / s) * np.bincount(rng.integers(0, n, size=s),
                                               minlength=n)
    mats = _unfold(weights @ stack, order, d)
    if theorem == "even":
        return np.linalg.eigvalsh(mats)[:, -1]
    if _even_symmetric(model):
        return np.abs(np.linalg.eigvalsh(mats)).max(axis=1)
    return np.linalg.svd(mats, compute_uv=False)[:, 0]
