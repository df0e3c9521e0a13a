"""Command-line front end.

Exit codes are a stable contract: 0 success, 1 failed checks or
verdicts, 2 usage or configuration problems, 3 bound not applicable to
the model, 4 internal numerical failure.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from .bounds import THEOREMS, build_report, format_report, format_tail_csv
from .config import grid_points, load_experiment, load_model
from .errors import ApplicabilityError, EinbernError, NumericalError
from .montecarlo import format_results_csv, run_experiment
from .tensor import _fmt

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INAPPLICABLE = 3
EXIT_NUMERICAL = 4

# ``verify.suite_names()``; ``verify`` loads only for the commands that use it
SUITE_NAMES = ("algebra", "bounds", "spectral")
# at about 4 ms a case, `verify --suite all` runs some 7 minutes at the most
MAX_CASES = 100_000


USAGE = """\
usage: einbern COMMAND [--option value | --option=value ...] | einbern -h
  verify --suite {algebra,bounds,spectral,all} [--seed 0] [--cases 100]
  bound --config MODEL --theorem {even,general,intrinsic} --t-grid a:b:n --out CSV
  simulate --config EXPERIMENT --out CSV
  example45
verify runs a seeded property suite of 1 to 100000 cases; bound writes a
model's tail bound at t in linspace(a, b, n); simulate checks a Monte Carlo
experiment against its bound; example45 shows a tensor PSD but not E-PSD.
Options may be cut to a unique prefix.
"""


class UsageError(Exception):
    """A command line the parser refuses; the message is "command: option: reason"."""


def _one_of(choices: tuple):
    def choice(text: str) -> str:
        if text not in choices:
            raise ValueError(f"invalid choice {text!r}, expected one of {choices}")
        return text

    return choice


def _int_at_least(low: int, most: float = float("inf")):
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"need an integer >= {low}, got {value}")
        if value > most:
            raise ValueError(f"need an integer <= {most}, got {value}")
        return value

    return integer


def _grid_spec(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected a:b:n, got {text!r}")
    return grid_points(float(parts[0]), float(parts[1]), int(parts[2]))


# command -> option -> (converter of its text, default, or None if required)
_OPTIONS = {
    "verify": {"--suite": (_one_of((*SUITE_NAMES, "all")), None),
               "--seed": (_int_at_least(0), 0), "--cases": (_int_at_least(1, MAX_CASES), 100)},
    "bound": {"--config": (str, None), "--theorem": (_one_of(THEOREMS[1:]), None),
              "--t-grid": (_grid_spec, None), "--out": (str, None)},
    "simulate": {"--config": (str, None), "--out": (str, None)},
    "example45": {},
}


def parse_args(argv) -> SimpleNamespace | None:
    """The command ``argv`` names with its options' values, or None if it asks
    for help.  An option is ``-h``, a name or a unique prefix of one; its value
    is the text after ``=`` or the next token, verbatim; the last repeat wins."""
    argv = list(argv)
    command = argv.pop(0) if argv and argv[0] in _OPTIONS else "einbern"
    table, tokens = _OPTIONS.get(command, {}), iter(argv)
    values = {name: default for name, (_, default) in table.items()}
    for token in tokens:
        name, eq, value = ("--help", "", "") if token == "-h" else token.partition("=")
        # "-", "--" and "-x" abbreviate nothing; no name is a prefix of another
        names = [n for n in (*table, "--help") if name[2:] and n.startswith(name)]
        if len(names) != 1:
            reason = (f"ambiguous, could be {', '.join(names)}" if names else
                      "unknown option" if token[:1] == "-" else "unexpected argument")
            raise UsageError(f"{command}: {token}: {reason}")
        name = names[0]
        if name == "--help" and not eq:
            return None
        value = value if eq else next(tokens, None)
        if value is None or name == "--help":
            wrong = "takes no value" if eq else "expected a value"
            raise UsageError(f"{command}: {name}: {wrong}")
        try:
            values[name] = table[name][0](value)
        except ValueError as exc:
            raise UsageError(f"{command}: {name}: {exc}") from None
    if command not in _OPTIONS:
        raise UsageError(f"{command}: command: required")
    for name, value in values.items():
        if value is None:  # no converter returns None
            raise UsageError(f"{command}: {name}: required")
    return SimpleNamespace(
        command=command, **{n[2:].replace("-", "_"): v for n, v in values.items()})


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
        grid = tuple(t for t in grid if report.in_domain(t))
    # a failing tail point or file leaves no report, warning or CSV behind
    csv = format_tail_csv(report, grid)
    with open(args.out, "wb") as fh:
        fh.write(csv.encode("ascii"))
    if len(grid) < len(args.t_grid):
        print(
            f"warning: dropped {len(args.t_grid) - len(grid)} grid points below "
            f"the validity threshold t >= {report.tail_domain_min:.6g}",
            file=sys.stderr,
        )
    sys.stdout.write(format_report(report))
    return EXIT_OK


def cmd_simulate(args) -> int:
    result = run_experiment(load_experiment(args.config))
    with open(args.out, "wb") as fh:
        fh.write(format_results_csv(result).encode("ascii"))
    print(f"statistic={result.statistic} trials={result.trials} seed={result.seed}")
    print(f"empirical_mean_max={_fmt(result.empirical_mean_max)}")
    check = result.expectation
    if check is not None:
        verdict = "pass" if check.passed else "fail"
        print(f"expectation_bound={_fmt(check.bound)} adjusted_mean="
              f"{_fmt(check.adjusted_mean)} expectation_verdict={verdict}")
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
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"{USAGE.splitlines()[0]}\nerror: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args is None:
        sys.stdout.write(USAGE)
        return EXIT_OK
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
