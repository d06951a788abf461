"""Command-line surface: model I/O, example generators, and orchestration.

Commands
--------
validate  Load a model file and report every format/stochasticity violation.
check     Run the full hypothesis report (orders, factorizations, shifts).
solve     Solve a model and emit the value function as JSON plus an optional
          policy CSV over the belief grid.
verify    Solve, then measure every structural prediction; exits 1 when a
          statement-applicable model shows policy-dominance violations.
compare   Two-model value comparison under the cross-model hypotheses;
          exits 1 when the hypotheses hold but the value gap dips below the
          slack budget.
gen       Emit a bundled example model (round-trips byte-identically).

Exit codes: 0 success, 1 violated expectations, 2 input or numerical errors
(malformed JSON, dimension mismatches, a transition or observation row that
is not a probability distribution, LP failures, solver non-convergence, an
exact cross-sum over its vector cap).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .examples import gen_example, list_examples
from .model import (ModelFormatError, _row_violations, belief_grid,
                    load_model, model_to_json, save_model, validate_model)
from .solver import (CapacityError, _lowest_argmax, _mode_or_error, _q_batch,
                     gamma_monotone_report, vf_to_dict)
from .structural import (_SOLVERS, DEFAULT_RESIDUAL, DEFAULT_RESOLUTION,
                         assumption_report, compare_models,
                         verification_report)


def _emit(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_stochastic(path: str):
    """Load a model to compute on: a transition or observation row that is
    not a probability distribution is an input error, with validate's
    messages."""
    m = load_model(path)
    violations = _row_violations(m)
    if violations:
        raise ModelFormatError("; ".join(violations))
    return m


def _write_policy_csv(path: str, m, vf, resolution: int) -> None:
    beliefs = belief_grid(m.num_states, resolution)
    q = _q_batch(m, vf.vectors, beliefs)
    values = q.max(axis=1)
    best = _lowest_argmax(q)
    myopic = _lowest_argmax(beliefs @ m.reward.T)
    header = ([f"belief_{i + 1}" for i in range(m.num_states)]
              + ["value", "optimal_action", "myopic_action"]
              + [f"q_{u + 1}" for u in range(m.num_actions)])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(beliefs.shape[0]):
            row = ([repr(float(x)) for x in beliefs[i]]
                   + [repr(float(values[i])), str(int(best[i]) + 1),
                      str(int(myopic[i]) + 1)]
                   + [repr(float(x)) for x in q[i]])
            writer.writerow(row)


def cmd_validate(args: argparse.Namespace) -> int:
    m = load_model(args.model)
    violations = validate_model(m)
    _emit({"model": m.name, "valid": not violations,
           "violations": violations}, args.out)
    if violations:
        print(f"validate: {len(violations)} violation(s)", file=sys.stderr)
        return 2
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    m = _load_stochastic(args.model)
    _emit({"model": m.name, **assumption_report(m)}, args.out)
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    m = _load_stochastic(args.model)
    method = args.method or "exact"
    vf = _SOLVERS[method](m, resolution=args.grid, horizon=args.horizon,
                          residual=args.residual)
    doc = vf_to_dict(vf)
    doc["model"] = m.name
    doc["method"] = method
    doc["gamma_monotone"] = gamma_monotone_report(vf)
    _emit(doc, args.out)
    if args.csv:
        _write_policy_csv(args.csv, m, vf, args.grid)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    m = _load_stochastic(args.model)
    report = verification_report(
        m, resolution=args.grid, residual=args.residual, horizon=args.horizon,
        method=args.method or "grid")
    _emit(report, args.out)
    theorem1 = report["theorem1"]
    if theorem1["applicable"] and theorem1["dominance"]["violations"]:
        n = len(theorem1["dominance"]["violations"])
        print(f"verify: {n} policy-dominance violation(s) on an applicable "
              f"model", file=sys.stderr)
        return 1
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    strong = _load_stochastic(args.strong)
    weak = _load_stochastic(args.weak)
    report = compare_models(strong, weak, resolution=args.grid,
                            residual=args.residual, horizon=args.horizon,
                            method=args.method or "grid")
    report["strong_model"] = strong.name
    report["weak_model"] = weak.name
    _emit(report, args.out)
    if report["hypotheses_hold"] and not report["gap_ok"]:
        print(f"compare: value gap {report['min_gap']:.3e} below "
              f"-{report['slack']:.3e} with hypotheses holding",
              file=sys.stderr)
        return 1
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    model = gen_example(args.name, **dict(_parse_param(t) for t in args.param))
    if args.out:
        save_model(model, args.out)
    else:
        sys.stdout.write(model_to_json(model))
    return 0


_COMMANDS = {
    "validate": cmd_validate,
    "check": cmd_check,
    "solve": cmd_solve,
    "verify": cmd_verify,
    "compare": cmd_compare,
    "gen": cmd_gen,
}


def _parse_param(token: str):
    if "=" not in token:
        raise ValueError(f"expected name=value, got {token!r}")
    name, raw = token.split("=", 1)
    low = raw.strip().lower()
    if low in ("true", "false"):
        return name.strip(), low == "true"
    for cast in (int, float):
        try:
            return name.strip(), cast(raw)
        except ValueError:
            continue
    return name.strip(), raw


def _check_solver_args(args: argparse.Namespace) -> None:
    """Apply the default stop rule and reject bad solver flags."""
    if args.grid < 1:
        raise ValueError("--grid must be at least 1")
    if args.horizon is None and args.residual is None:
        args.residual = DEFAULT_RESIDUAL
    _mode_or_error(args.horizon, args.residual)


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid", type=int, default=DEFAULT_RESOLUTION, metavar="D",
                   help="belief-grid resolution (default %(default)s)")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--horizon", type=int, metavar="K",
                      help="finite-horizon solve with K backups")
    mode.add_argument("--residual", type=float, metavar="TAU",
                      help="infinite-horizon proxy target (default "
                           + f"{DEFAULT_RESIDUAL:g})".replace("e-0", "e-"))
    p.add_argument("--method", choices=("exact", "grid"),
                   help="solver backend (solve defaults to exact; "
                        "verify/compare default to grid)")
    p.add_argument("--out", metavar="FILE", help="write the JSON report here")


def _model_and_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("model")
    p.add_argument("--out", metavar="FILE")


def _solve_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("model")
    _add_solver_flags(p)
    p.add_argument("--csv", metavar="FILE",
                   help="write the belief-grid policy table here")


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("model")
    _add_solver_flags(p)


def _compare_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("strong")
    p.add_argument("weak")
    _add_solver_flags(p)


def _gen_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("name", choices=list_examples())
    p.add_argument("--param", action="append", default=[],
                   metavar="NAME=VALUE", help="generator parameter")
    p.add_argument("--out", metavar="FILE", help="write the model JSON here")


# Subcommand -> (help line, argument builder), in the order help lists them.
_SUBCOMMANDS = {
    "validate": ("validate a model file", _model_and_out),
    "check": ("hypothesis report for one model", _model_and_out),
    "solve": ("solve and emit value function/policy", _solve_args),
    "verify": ("verify structural predictions", _verify_args),
    "compare": ("compare strong vs weak sensing model", _compare_args),
    "gen": ("emit a bundled example model", _gen_args),
}


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser; with ``only``, a parser that knows just that
    subcommand.  Its usage line still lists all six, so every message a
    command line naming ``only`` first can produce is unchanged."""
    parser = argparse.ArgumentParser(
        prog="pomdpcheck",
        description="Stochastic-order checkers and POMDP solvers for "
                    "verifying monotone-policy structure.")
    # Without a metavar argparse derives the same usage text from the
    # choices, and names the argument "command" in its errors.
    metavar = None if only is None else "{" + ",".join(_SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in (_SUBCOMMANDS if only is None else (only,)):
        help_line, add_arguments = _SUBCOMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_line))
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Help, a missing or an unknown command needs the full parser.
    only = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    args = build_parser(only).parse_args(argv)
    try:
        if hasattr(args, "grid"):
            _check_solver_args(args)
        return _COMMANDS[args.command](args)
    except (ModelFormatError, ValueError, KeyError, TypeError,
            ArithmeticError, CapacityError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
