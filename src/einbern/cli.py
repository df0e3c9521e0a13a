"""Command-line front end.

Exit codes are a stable contract: 0 success, 1 failed checks or
verdicts, 2 usage or configuration problems, 3 bound not applicable to
the model, 4 internal numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from .bounds import THEOREMS, build_report, format_report, format_tail_csv
from .config import grid_points, load_experiment, load_model
from .errors import ApplicabilityError, EinbernError, ModelError, NumericalError
from .montecarlo import format_results_csv, run_experiment

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INAPPLICABLE = 3
EXIT_NUMERICAL = 4

# ``verify.suite_names()``; ``verify`` loads only for the commands that use it
SUITE_NAMES = ("algebra", "bounds", "spectral")


def _grid_spec(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected a:b:n, got {text!r}")
    try:
        return grid_points(float(parts[0]), float(parts[1]), int(parts[2]))
    except (ValueError, ModelError) as exc:
        raise argparse.ArgumentTypeError(f"bad grid spec {text!r}: {exc}") from exc


def _int_at_least(low: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"need an integer >= {low}, got {value}")
        return value

    return integer


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="einbern",
        description=(
            "Einstein-product tensor algebra with Bernstein-type "
            "concentration bounds for random tensor sums"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify", help="run a seeded property suite and report pass/fail"
    )
    p_verify.add_argument(
        "--suite", required=True, choices=[*SUITE_NAMES, "all"]
    )
    p_verify.add_argument("--seed", type=_int_at_least(0), default=0)
    p_verify.add_argument("--cases", type=_int_at_least(1), default=100)

    p_bound = sub.add_parser(
        "bound", help="evaluate one bound for a model and write its tail curve"
    )
    p_bound.add_argument("--config", required=True, help="model JSON document")
    p_bound.add_argument("--theorem", required=True, choices=THEOREMS[1:])
    p_bound.add_argument(
        "--t-grid", required=True, type=_grid_spec, metavar="a:b:n",
        help="linspace of t values, e.g. 0:5:21; a negative start needs "
        "the --t-grid=a:b:n form",
    )
    p_bound.add_argument("--out", required=True, help="CSV output path")

    p_sim = sub.add_parser(
        "simulate", help="run a Monte Carlo experiment against its bound"
    )
    p_sim.add_argument("--config", required=True, help="experiment JSON document")
    p_sim.add_argument("--out", required=True, help="CSV output path")

    sub.add_parser(
        "example45",
        help="walk through the built-in PSD-but-not-E-PSD worked example",
    )
    return parser


def cmd_verify(args) -> int:
    from .verify import run_suite
    results = run_suite(args.suite, seed=args.seed, cases=args.cases)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name:<{width}}  {r.detail}")
    passed = sum(r.passed for r in results)
    print(f"suite {args.suite}: {passed}/{len(results)} properties passed")
    return EXIT_OK if passed == len(results) else EXIT_FAIL


def cmd_bound(args) -> int:
    model = load_model(args.config)
    report = build_report(model, args.theorem)
    grid = args.t_grid
    if report.tail_domain_min > 0:
        kept = tuple(t for t in grid if report.in_domain(t))
        if len(kept) < len(grid):
            print(
                f"warning: dropped {len(grid) - len(kept)} grid points below "
                f"the validity threshold t >= {report.tail_domain_min:.6g}",
                file=sys.stderr,
            )
        grid = kept
    # a failing tail point or file leaves no report and no CSV behind
    csv = format_tail_csv(report, grid)
    with open(args.out, "w", encoding="ascii", newline="\n") as fh:
        fh.write(csv)
    sys.stdout.write(format_report(report))
    return EXIT_OK


def cmd_simulate(args) -> int:
    result = run_experiment(load_experiment(args.config))
    with open(args.out, "w", encoding="ascii", newline="\n") as fh:
        fh.write(format_results_csv(result))
    print(f"statistic={result.statistic} trials={result.trials} seed={result.seed}")
    print(f"empirical_mean_max={result.empirical_mean_max:.17g}")
    check = result.expectation
    if check is not None:
        verdict = "pass" if check.passed else "fail"
        print(
            f"expectation_bound={check.bound:.17g} adjusted_mean="
            f"{check.adjusted_mean:.17g} expectation_verdict={verdict}"
        )
    tail_passed = sum(row.passed for row in result.rows)
    print(f"tail_verdicts={tail_passed}/{len(result.rows)} pass")
    return EXIT_OK if result.all_passed else EXIT_FAIL


def cmd_example45(args) -> int:
    from .verify import worked_example
    facts = worked_example()
    for fact in facts:
        print(fact.detail)
    ok = all(fact.passed for fact in facts)
    print("conclusion: PSD but not E-PSD" if ok else "conclusion: checks failed")
    return EXIT_OK if ok else EXIT_FAIL


_HANDLERS = {
    "verify": cmd_verify,
    "bound": cmd_bound,
    "simulate": cmd_simulate,
    "example45": cmd_example45,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return _HANDLERS[args.command](args)
    except ApplicabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INAPPLICABLE
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (EinbernError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
