"""Command-line front end.

Every subcommand reads and writes JSON documents (see ``documents``) on
files or standard streams; ``-`` means stdin.  Results go to stdout unless
``--out`` is given.  Stochastic subcommands are deterministic for a fixed
``--seed`` (default 0).

Exit codes: 0 success, 1 domain error (invalid input), 2 enumeration cap
exceeded, 3 reproduction failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, Callable, Sequence

from .documents import DocumentError, parse_expression, serialize_expression
from .expressions import BellExpression, EnumerationCapExceeded, Scenario
from .lifting import (
    compatibility_holds,
    four_party_19,
    lift2,
    lift3,
    mabk,
    symmetry_images,
    wbz333,
)
from .polytope import enumerate_facets, lr_max_with_witness, tightness
from .quantum import (
    DEGENERACY_TOL,
    STATE_NAMES,
    MeasurementSettings,
    SeesawConfig,
    bell_operator,
    correlation_tensor,
    make_state,
    seesaw_maximize,
    spectrum,
    sum_squared_correlations,
)
from .report import format_table, reproduce_report

__all__ = ["main"]

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_CAP = 2
EXIT_REPRODUCE = 3


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve 2 for caps."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_DOMAIN)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _read_expression(path: str) -> BellExpression:
    return parse_expression(_read_text(path))


def _emit(payload: Any, out: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _settings_from_payload(payload: Any) -> MeasurementSettings:
    if isinstance(payload, dict) and "settings" in payload:
        payload = payload["settings"]
    if not isinstance(payload, list):
        raise DocumentError("settings document must be a list of per-party direction arrays")
    return MeasurementSettings(tuple(payload))  # each party becomes a float64 array there


def _state_from_args(args: argparse.Namespace):
    name = args.state
    if name == "generalized-ghz":
        if args.lam_deg is None:
            raise DocumentError("generalized-ghz needs --lam-deg")
        return make_state(name, math.radians(args.lam_deg))
    if name in ("ghz", "product-zeros"):
        if args.parties is None:
            raise DocumentError(f"{name} needs --parties")
        return make_state(name, args.parties)
    return make_state(name)


def _add_state_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--state", required=True, choices=STATE_NAMES, help="named state")
    sub.add_argument("--parties", type=int, help="qubit count for ghz / product-zeros")
    sub.add_argument(
        "--lam-deg", type=float, help="angle in degrees for generalized-ghz"
    )


_BUILTINS: dict[str, Callable[[], Any]] = {
    "wbz333": lambda: serialize_expression(wbz333(), {"name": "wbz333"}),
    "four-party-19": lambda: serialize_expression(four_party_19(), {"name": "four-party-19"}),
    "symmetry-images": lambda: [
        serialize_expression(img, {"name": name})
        for img, name in zip(
            symmetry_images(), ["swap-settings-0-1", "swap-settings-0-2", "cycle-settings-201"]
        )
    ],
}


def _lr_bound(args: argparse.Namespace) -> dict[str, Any]:
    bound, witness = lr_max_with_witness(_read_expression(args.expr))
    return {"lr_max": str(bound), "witness": witness.outcomes}


def _tightness(args: argparse.Namespace) -> dict[str, Any]:
    rep = tightness(_read_expression(args.expr))
    return {
        "lr_max": str(rep.lr_max),
        "saturating": rep.saturating_count,
        "rank": rep.rank,
        "valid": rep.is_valid,
        "tight": rep.is_tight,
    }


def _facets(args: argparse.Namespace) -> dict[str, Any]:
    facets = enumerate_facets(Scenario(tuple(args.settings)))
    return {
        "settings": args.settings,
        "count": len(facets),
        "facets": [serialize_expression(f) for f in facets],
    }


def _lift(args: argparse.Namespace, lift: Callable, *paths: str) -> dict[str, Any]:
    out, diag = lift(*map(_read_expression, paths), diagnose=not args.no_diagnose)
    meta: dict[str, Any] = {"name": args.command}
    if diag.compatibility_valid is not None:
        meta["compatibility"] = diag.compatibility_valid
    if diag.compatibility_witness is not None:
        meta["compatibility_witness"] = diag.compatibility_witness.outcomes
    if diag.inputs_tight is not None:
        meta["inputs_tight"] = list(diag.inputs_tight)
        meta["output_tight"] = diag.output_tight
    if diag.compatibility_valid is False:
        print(
            "warning: compatibility condition fails; the lift need not be a facet",
            file=sys.stderr,
        )
    return serialize_expression(out, meta)


def _compat(args: argparse.Namespace) -> dict[str, Any]:
    holds, witness = compatibility_holds(*map(_read_expression, (args.i0, args.i2, args.i3)))
    return {"holds": holds, "witness": None if witness is None else witness.outcomes}


def _violate(args: argparse.Namespace) -> dict[str, Any]:
    expr = _read_expression(args.expr)
    cfg = SeesawConfig(restarts=args.restarts, tol=args.tol, seed=args.seed)
    result = seesaw_maximize(expr, _state_from_args(args), cfg)
    return {
        "value": result.value,
        "converged": result.converged,
        "scale": str(result.scale),
        "settings": [party.tolist() for party in result.settings.vectors],
    }


def _spectrum(args: argparse.Namespace) -> dict[str, Any]:
    expr = _read_expression(args.expr)
    settings = _settings_from_payload(json.loads(_read_text(args.settings)))
    spec = spectrum(bell_operator(expr, settings), degeneracy_tol=args.tol)
    return {"eigenvalues": spec.eigenvalues, "groups": spec.groups}


def _tensor(args: argparse.Namespace) -> dict[str, Any]:
    state = _state_from_args(args)
    return {
        "parties": state.n,
        "values": correlation_tensor(state).values.tolist(),
        "sum_squares": sum_squared_correlations(state),
    }


def _reproduce(args: argparse.Namespace) -> int:
    report = reproduce_report(seed=args.seed, restarts=args.restarts)
    print(format_table(report))
    if args.out:
        _emit(report.as_dict(), args.out)
    return EXIT_OK if report.passed else EXIT_REPRODUCE


def _build_parser() -> _Parser:
    parser = _Parser(prog="bellift", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name: str, help_: str, handler: Callable) -> argparse.ArgumentParser:
        """A subcommand whose handler maps the parsed arguments to its JSON payload."""
        p = sub.add_parser(name, help=help_)
        p.add_argument("--out", help="write the JSON result here instead of stdout")
        p.set_defaults(handler=handler)
        return p

    p = add("lr-bound", "exact local-realistic maximum of an expression", _lr_bound)
    p.add_argument("expr", help="expression document ('-' for stdin)")

    p = add("tightness", "facet certificate: validity, saturation count, exact rank", _tightness)
    p.add_argument("expr")

    p = add("facets", "exact facet enumeration for a small scenario", _facets)
    p.add_argument("settings", type=int, nargs="+", help="settings per party, e.g. 2 2")

    p = add(
        "lift2",
        "two-setting lift of a facet pair (new party first)",
        lambda a: _lift(a, lift2, a.plus, a.minus),
    )
    p.add_argument("plus", help="facet entering with + sign")
    p.add_argument("minus", help="facet entering with - sign")
    p.add_argument(
        "--no-diagnose", action="store_true", help="skip input/output tightness checks"
    )

    p = add(
        "lift3",
        "three-setting lift of a facet triple (new party first)",
        lambda a: _lift(a, lift3, a.i0, a.i2, a.i3),
    )
    p.add_argument("i0")
    p.add_argument("i2")
    p.add_argument("i3")
    p.add_argument("--no-diagnose", action="store_true")

    p = add("compat", "check the implied fourth expression is valid", _compat)
    p.add_argument("i0")
    p.add_argument("i2")
    p.add_argument("i3")

    p = add(
        "mabk",
        "n-party two-setting inequality from the recursive lift",
        lambda a: serialize_expression(mabk(a.n), {"name": f"mabk-{a.n}"}),
    )
    p.add_argument("n", type=int)

    p = add("builtin", "built-in expressions", lambda a: _BUILTINS[a.name]())
    p.add_argument("name", choices=_BUILTINS)

    p = add("violate", "see-saw maximization of the violation factor for a state", _violate)
    p.add_argument("expr")
    _add_state_options(p)
    p.add_argument("--restarts", type=int, default=SeesawConfig.restarts)
    p.add_argument("--seed", type=int, default=SeesawConfig.seed)
    p.add_argument(
        "--tol", type=float, default=SeesawConfig.tol, help="see-saw convergence tolerance"
    )

    p = add("spectrum", "eigenvalues of the Bell operator at given settings", _spectrum)
    p.add_argument("expr")
    p.add_argument(
        "settings",
        help="JSON settings document ('-' for stdin); the violate output works as-is",
    )
    p.add_argument(
        "--tol", type=float, default=DEGENERACY_TOL, help="degeneracy grouping tolerance"
    )

    p = add("corr-tensor", "full correlation tensor of a state in the coordinate bases", _tensor)
    _add_state_options(p)

    p = add("reproduce", "recompute all built-in reference values and report pass/fail", _reproduce)
    p.add_argument("--seed", type=int, default=SeesawConfig.seed)
    p.add_argument("--restarts", type=int, default=SeesawConfig.restarts)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        payload = args.handler(args)
        if isinstance(payload, int):  # reproduce's exit code: it writes its own output
            return payload
        _emit(payload, args.out)
    except EnumerationCapExceeded as exc:
        print(f"bellift: cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (DocumentError, ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"bellift: error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
