"""JSON documents describing models and experiments.

Documents are versioned with a "schema" field and validated strictly:
unknown keys are rejected so archived configurations keep meaning
exactly what they meant.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .bounds import Subsample, SumModel, _stack_components
from .errors import MAX_MODEL_ENTRIES, ModelError, _float, _int
from .montecarlo import ExperimentConfig
from .streams import uniform
from .tensor import Tensor, _from_entries, _orbit_means, read_tensor_text

__all__ = [
    "SCHEMA_VERSION",
    "MAX_MODEL_ENTRIES",
    "grid_points",
    "model_from_dict",
    "experiment_from_dict",
    "load_model",
    "load_experiment",
]

SCHEMA_VERSION = 1

_MODEL_KEYS = {"law", "components", "generate", "sample_size", "with_replacement"}
_GENERATE_KEYS = {"count", "order", "dim", "seed", "kind", "scale"}
_COMPONENT_KEYS = {"shape", "entries"}
_EXPERIMENT_KEYS = {"model", "trials", "t_grid", "seed", "confidence_slack", "theorem"}
_GRID_KEYS = ("start", "stop", "num")


def _check_keys(doc: dict, allowed: set | tuple, where: str) -> None:
    if not isinstance(doc, dict):
        raise ModelError(f"{where} must be a JSON object")
    unknown = set(doc).difference(allowed)
    if unknown:
        raise ModelError(f"unknown keys in {where}: {sorted(unknown)}")


def _require(doc: dict, key: str, where: str, kind: type = object):
    if key not in doc:
        raise ModelError(f"missing key {key!r} in {where}")
    if not isinstance(doc[key], kind):
        raise ModelError(
            f"{key!r} in {where} must be a {kind.__name__}, got {doc[key]!r}"
        )
    return doc[key]


def _tensor_from_spec(spec, base_dir: str, budget: int = MAX_MODEL_ENTRIES) -> Tensor:
    """One component of at most ``budget`` entries, from a tensor file or inline."""
    if isinstance(spec, dict) and set(spec) == {"file"}:
        path = _require(spec, "file", "component", str)
        try:
            # an absolute path replaces base_dir in the join
            return read_tensor_text(os.path.join(base_dir, path), budget)
        except (OSError, ValueError, IndexError) as exc:
            raise ModelError(f"bad tensor file {spec['file']!r}: {exc}") from exc
    _check_keys(spec, _COMPONENT_KEYS, "component")
    shape = _require(spec, "shape", "component", list)
    try:
        return _from_entries(shape, _require(spec, "entries", "component", list), budget)
    except IndexError as exc:
        raise ModelError(str(exc)) from exc


def _generate_components(spec: dict) -> tuple:
    """(shape, stack) from one ``streams.uniform`` draw; row k equals the
    k-th of ``count`` successive draws of the per-tensor ``random_*``
    generators from ``default_rng(seed)``."""
    _check_keys(spec, _GENERATE_KEYS, "generate")
    count = _int(_require(spec, "count", "generate"), "count")
    order = _int(_require(spec, "order", "generate"), "order")
    dim = _int(_require(spec, "dim", "generate"), "dim")
    seed = _int(_require(spec, "seed", "generate"), "seed")
    kind = spec.get("kind", "general")
    scale = _float(spec.get("scale", 1.0), "scale")
    if count < 1 or order < 1 or dim < 1:
        raise ModelError("count, order and dim must be positive")
    if seed < 0:
        raise ModelError(f"seed must be nonnegative, got {seed}")
    if kind not in ("general", "e_symmetric", "fully_symmetric"):
        raise ModelError(f"unknown generate kind {kind!r}")
    if kind == "e_symmetric" and order % 2:
        raise ModelError("e_symmetric generation needs an even order")
    # past order 64 any dim > 1 is over budget; the cap keeps the power small
    if count * dim ** min(order, 64) > MAX_MODEL_ENTRIES:
        raise ModelError(f"generating {count} order-{order} dim-{dim} {kind} tensors takes "
                         f"the model over its budget of {MAX_MODEL_ENTRIES} tensor entries")
    # a draw spans 2*scale; a symmetric entry sums an orbit of up to N! draws
    terms = max(2, math.factorial(min(order, 64))) if kind == "fully_symmetric" else 2
    if not 0.0 <= terms * scale < math.inf:
        raise ModelError(f"scale must be >= 0 with {terms}*scale finite, got {scale}")
    shape = (dim,) * order
    stack = uniform(seed, -scale, scale, count * dim**order).reshape(count, -1)
    if kind == "e_symmetric":
        # (M + M^T) / 2 of each paired-mode unfolding M
        mats = stack.reshape(count, dim ** (order // 2), -1)
        stack = ((mats + mats.transpose(0, 2, 1)) / 2.0).reshape(count, -1)
    elif kind == "fully_symmetric":
        stack = _orbit_means(stack, order, dim)
    return shape, stack


def model_from_dict(doc: dict, base_dir: str = ".") -> SumModel:
    """Build a SumModel from the body of a model document."""
    _check_keys(doc, _MODEL_KEYS, "model")
    law = _require(doc, "law", "model")
    if law not in ("rademacher", "subsample"):
        raise ModelError(f"unknown law {law!r}")
    if ("components" in doc) == ("generate" in doc):
        raise ModelError("exactly one of 'components' or 'generate' is required")
    if "components" in doc:
        specs = doc["components"]
        if not isinstance(specs, list) or not specs:
            raise ModelError("'components' must be a non-empty list")
        components = []
        budget = MAX_MODEL_ENTRIES
        for s in specs:
            components.append(_tensor_from_spec(s, base_dir, budget))
            budget -= components[-1].size
        shape, stack = _stack_components(components)
    else:
        shape, stack = _generate_components(doc["generate"])

    if law == "rademacher":
        for key in ("sample_size", "with_replacement"):
            if key in doc:
                raise ModelError(f"{key!r} is only valid for the subsample law")
        return SumModel(shape, stack)
    law = Subsample(_require(doc, "sample_size", "model"))
    # an archived key: drawing with replacement is the only law
    if not isinstance(doc.get("with_replacement", True), bool):
        raise ModelError("with_replacement must be a boolean")
    if not doc.get("with_replacement", True):
        raise ModelError("subsampling without replacement breaks independence; refused")
    return SumModel(shape, stack, law)


def grid_points(start: float, stop: float, num: int) -> tuple:
    """``num`` evenly spaced points from ``start`` to ``stop``.

    Both ends and the span between them must be finite numbers, and
    ``num`` an integer of at most MAX_MODEL_ENTRIES; other grids are
    refused before numpy computes or allocates anything.
    """
    start, stop = _float(start, "t_grid start"), _float(stop, "t_grid stop")
    if _int(num, "num", MAX_MODEL_ENTRIES) < 1:
        raise ModelError("a grid needs at least one point")
    if not all(math.isfinite(x) for x in (start, stop, stop - start)):
        raise ModelError(
            f"grid ends and their difference must be finite, got {start} to {stop}"
        )
    return tuple(np.linspace(start, stop, num).tolist())


def experiment_from_dict(doc: dict, base_dir: str = ".") -> ExperimentConfig:
    """Build an ExperimentConfig, which judges its values, from a document body."""
    _check_keys(doc, _EXPERIMENT_KEYS, "experiment")
    model = model_from_dict(_require(doc, "model", "experiment"), base_dir)
    trials = _require(doc, "trials", "experiment")
    grid = _require(doc, "t_grid", "experiment")
    if isinstance(grid, dict):
        _check_keys(grid, _GRID_KEYS, "t_grid")
        grid = grid_points(*(_require(grid, k, "t_grid") for k in _GRID_KEYS))
    elif not isinstance(grid, list) or not grid:
        raise ModelError("t_grid must be a non-empty list or a start/stop/num object")
    return ExperimentConfig(
        model=model,
        trials=trials,
        t_grid=grid,
        seed=_require(doc, "seed", "experiment"),
        confidence_slack=doc.get("confidence_slack", 3.0),
        theorem=doc.get("theorem", "auto"),
    )


def _load_document(path) -> tuple:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ModelError(f"cannot read config {path}: {exc}") from exc
    # bad JSON or UTF-8, an integer past the conversion limit, or nesting
    # past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise ModelError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelError("config document must be a JSON object")
    if doc.get("schema") != SCHEMA_VERSION:
        raise ModelError(
            f"config must declare \"schema\": {SCHEMA_VERSION}, "
            f"got {doc.get('schema')!r}"
        )
    body = {k: v for k, v in doc.items() if k != "schema"}
    return body, os.path.dirname(os.path.abspath(path))


def load_model(path) -> SumModel:
    """Read a model document from disk."""
    body, base_dir = _load_document(path)
    return model_from_dict(body, base_dir)


def load_experiment(path) -> ExperimentConfig:
    """Read an experiment document from disk."""
    body, base_dir = _load_document(path)
    return experiment_from_dict(body, base_dir)
