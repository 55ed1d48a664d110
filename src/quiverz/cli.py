"""Command-line surface: partition arithmetic, dimension-vector reports, and
the verification drivers.

Structured output is a single JSON document on stdout; human-readable notes
go to stderr (suppressed by --json).  Exit codes: 0 success, 1 a verification
found a counterexample, 2 usage or domain error (a part or dimvec answer
past verify.DEFAULT_BUDGET boxes and entries too, and a verdict whose
stable sample would take more than that many steps), 141 stdout closed by its
reader before the output was written (128 + SIGPIPE, as a shell reports a
process that SIGPIPE ends).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from quiverz import verify
from quiverz.exactmat import DEFAULT_PRIME, FieldSpec
from quiverz.partitions import (
    Partition,
    add,
    cartan_slack,
    classify,
    dominates,
    dual,
    mu_of,
    n_vector,
    parse_dim_vector,
    render_young,
    theta_image,
    zss_density_obstruction,
)
from quiverz.quiverrep import witness_reducible


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _note(args, message: str) -> None:
    if not args.json:
        print(message, file=sys.stderr)


def _within_budget(size: int, what: str = "an answer of {} boxes and entries") -> None:
    """Refuse (exit 2) a part or dimvec answer that would hold more than
    verify.DEFAULT_BUDGET boxes and matrix entries, or take more steps,
    before any is built, as the verify statements refuse their larger
    sweeps."""
    if size > verify.DEFAULT_BUDGET:
        raise ValueError(f"{what.format(size)} exceeds the budget of {verify.DEFAULT_BUDGET}")


def _cmd_part(args) -> int:
    eta = Partition.parse(args.partition)
    if args.op != "dom":  # the others answer with eta's boxes, or with its boxes added to
        _within_budget(eta.weight + (args.boxes if args.op == "add" else 0))
    if args.op == "dual":
        _emit(dual(eta).to_list())
    elif args.op == "add":
        _emit(add(eta, args.boxes).to_list())
    elif args.op == "dom":
        _emit(dominates(eta, Partition.parse(args.other)))
    elif args.op == "nvec":
        _emit(list(n_vector(eta)))
    elif args.op == "young":
        text = render_young(eta)
        if args.json:
            _emit(text)
        elif text:
            print(text)
    return 0


def _cmd_dimvec(args) -> int:
    d = parse_dim_vector(args.dims)
    if args.op != "slack":  # the others build partitions of n_t, a verdict four maps per edge
        _within_budget(d[-1] + (4 * sum(lo * hi for lo, hi in zip(d, d[1:])) if args.op == "verdict" else 0))
    if args.op == "classify":
        result = classify(d)
        payload = {"tag": result.tag}
        if result.eta is not None:
            payload["eta"] = result.eta.to_list()
        _emit(payload)
    elif args.op == "mu":
        _emit(mu_of(d).to_list())
    elif args.op == "lambda":
        _emit(theta_image(d).to_list())
    elif args.op == "slack":
        _emit(list(cartan_slack(d)))
    elif args.op == "obstruction":
        _emit(zss_density_obstruction(d))
    elif args.op == "verdict":
        if theta_image(d) != mu_of(d):  # a stable sample inverts an n_i x n_i matrix at each vertex
            _within_budget(sum(n**3 for n in d), "a stable sample of {} steps (the sum of n_i^3)")
        field = FieldSpec(args.p)
        rng = verify.derive_rng(args.seed, "verdict", d)
        report = witness_reducible(d, field, rng)
        _emit(report.to_json_dict())
        _note(args, f"verdict for {list(d)}: {report.verdict}")
    return 0


def _cmd_verify(args) -> int:
    driver = getattr(verify, args.driver)
    result = driver(**{flag: getattr(args, flag) for flag in args.flags})
    if isinstance(result, verify.VerifyReport):
        _emit(result.to_json_dict())
        _note(args, f"{result.statement}: {'PASS' if result.passed else 'FAIL'} (size {result.size})")
        return 0 if result.passed else 1
    _emit(result)  # the suite: one document over every report
    for rep in result["reports"]:
        _note(args, f"{rep['statement']}: {'PASS' if rep['pass'] else 'FAIL'}")
    return 0 if result["pass"] else 1


def _at_least(low: int):
    """argparse type: an integer no smaller than low."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "integer"  # named in argparse's "invalid integer value" message
    return parse


# The flags a verify statement may read: argparse type and help text.
_VERIFY_FLAGS = {
    "n": (int, "source dimension"),
    "a": (int, "dimension increase"),
    "p": (int, "field modulus"),
    "seed": (int, "master seed"),
    "trials": (_at_least(0), "randomized trials per instance"),
    "budget": (_at_least(0), "enumeration budget"),
    "jobs": (_at_least(1), "worker processes"),
    "max_last": (_at_least(2), "largest last dimension of the swept vectors"),
}

# Each verify statement: the name of its driver in quiverz.verify, looked up
# at each call, and the flags it takes with their defaults; every flag is
# passed to the driver as the keyword argument of its name.
_VERIFY_STATEMENTS = (
    ("ab-step", "ab_step_report", {"n": 2, "a": 1, "p": 2, "budget": verify.DEFAULT_BUDGET}),
    (
        "theta-image",
        "theta_image_report",
        {"max_last": 8, "trials": 3, "p": DEFAULT_PRIME, "seed": 0, "jobs": 1},
    ),
    ("stability", "stability_report", {"p": 2, "budget": verify.DEFAULT_BUDGET}),
    ("reducible", "reducible_report", {"p": DEFAULT_PRIME, "seed": 0}),
    (
        "all",
        "suite_report",
        {"max_last": 6, "trials": 2, "p": DEFAULT_PRIME, "seed": 0, "jobs": 1, "budget": verify.DEFAULT_BUDGET},
    ),
)


def _part_args(sp: argparse.ArgumentParser, name: str) -> None:
    sp.add_argument("partition", help='comma-separated parts, e.g. "5,3,3,1"')
    if name == "add":
        sp.add_argument("boxes", type=int, help="number of boxes to add")
    elif name == "dom":
        sp.add_argument("other", help="second partition")
    sp.set_defaults(func=_cmd_part)


def _dimvec_args(sp: argparse.ArgumentParser, name: str) -> None:
    sp.add_argument("dims", help='comma-separated dimensions, e.g. "1,4,5"')
    if name == "verdict":
        sp.add_argument("--p", type=int, default=DEFAULT_PRIME, help="field modulus")
        sp.add_argument("--seed", type=int, default=0, help="master seed")
    sp.set_defaults(func=_cmd_dimvec)


def _verify_args(sp: argparse.ArgumentParser, statement: str) -> None:
    _, driver, defaults = next(entry for entry in _VERIFY_STATEMENTS if entry[0] == statement)
    for name, default in defaults.items():
        kind, text = _VERIFY_FLAGS[name]
        sp.add_argument("--" + name.replace("_", "-"), type=kind, default=default, help=f"{text} (default {default})")
    sp.set_defaults(func=_cmd_verify, driver=driver, flags=tuple(defaults))


# Each command: its help text, the name its op is parsed into, its ops and
# the function that adds an op's arguments.
_COMMANDS = {
    "part": ("partition operations", "op", ("dual", "add", "dom", "nvec", "young"), _part_args),
    "dimvec": (
        "dimension-vector operations",
        "op",
        ("classify", "mu", "lambda", "slack", "obstruction", "verdict"),
        _dimvec_args,
    ),
    "verify": ("verification drivers", "statement", tuple(entry[0] for entry in _VERIFY_STATEMENTS), _verify_args),
}


def _named_branch(argv) -> Optional[tuple]:
    """(command, op) if the first two positional tokens of argv are a
    command and one of its ops or statements, with no token before them
    but --json; else None."""
    names = []
    for token in argv:
        if not token.startswith("-"):
            names.append(token)
            if len(names) == 2:
                command, op = names
                return (command, op) if command in _COMMANDS and op in _COMMANDS[command][2] else None
        elif token != "--json":
            return None
    return None


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser of every command; for an argv whose first two positional
    tokens name a command and its op (_named_branch), the parser of that
    branch alone, which parses that argv as the full one does.  The other
    commands are still registered, without their ops, so that the usage line
    and the errors of the top level keep their text."""
    branch = _named_branch(argv) if argv is not None else None
    parser = argparse.ArgumentParser(
        prog="quiverz",
        description="Exact partition and quiver-variety calculations with verification drivers.",
    )
    parser.add_argument("--json", action="store_true", help="machine output only")
    # Every subcommand accepts --json too; SUPPRESS keeps a flag given before
    # the subcommand from being reset by the subparser's default.
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true", default=argparse.SUPPRESS, help="machine output only")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, dest, ops, add_args) in _COMMANDS.items():
        cmd = sub.add_parser(command, parents=[json_flag], help=text)
        if branch is not None and command != branch[0]:
            continue
        ops_sub = cmd.add_subparsers(dest=dest, required=True)
        for name in ops if branch is None else branch[1:]:
            add_args(ops_sub.add_parser(name, parents=[json_flag]), name)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:
        # The reader is gone: the rest of stdout goes to devnull, so the
        # flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except ValueError as exc:  # includes verify.BudgetExceeded
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
