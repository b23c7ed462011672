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
from typing import Any, Sequence

import numpy as np

from .documents import DocumentError, parse_expression, serialize_expression
from .expressions import BellExpression, Scenario
from .lifting import (
    compatibility_holds,
    four_party_19,
    lift2,
    lift3,
    mabk,
    symmetry_images,
    wbz333,
)
from .polytope import (
    EnumerationCapExceeded,
    enumerate_facets,
    lr_max_with_witness,
    tightness,
)
from .quantum import (
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


def _strategy_payload(strategy) -> list[list[int]] | None:
    if strategy is None:
        return None
    return [list(party) for party in strategy.outcomes]


def _settings_payload(settings: MeasurementSettings) -> list[list[list[float]]]:
    return [[[float(x) for x in row] for row in party] for party in settings.vectors]


def _settings_from_payload(payload: Any) -> MeasurementSettings:
    if isinstance(payload, dict) and "settings" in payload:
        payload = payload["settings"]
    if not isinstance(payload, list):
        raise DocumentError("settings document must be a list of per-party direction arrays")
    return MeasurementSettings(tuple(np.asarray(party, dtype=np.float64) for party in payload))


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
    sub.add_argument(
        "--state",
        required=True,
        help="named state: ghz4, w4, pdc, chi, cluster4, bell-pair, "
        "ghz, product-zeros, generalized-ghz",
    )
    sub.add_argument("--parties", type=int, help="qubit count for ghz / product-zeros")
    sub.add_argument(
        "--lam-deg", type=float, help="angle in degrees for generalized-ghz"
    )


def _seesaw_config(args: argparse.Namespace) -> SeesawConfig:
    return SeesawConfig(restarts=args.restarts, tol=args.tol, seed=args.seed)


def _build_parser() -> _Parser:
    parser = _Parser(prog="bellift", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name: str, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--out", help="write the JSON result here instead of stdout")
        return p

    p = add("lr-bound", "exact local-realistic maximum of an expression")
    p.add_argument("expr", help="expression document ('-' for stdin)")

    p = add("tightness", "facet certificate: validity, saturation count, exact rank")
    p.add_argument("expr")

    p = add("facets", "exact facet enumeration for a small scenario")
    p.add_argument("settings", type=int, nargs="+", help="settings per party, e.g. 2 2")

    p = add("lift2", "two-setting lift of a facet pair (new party first)")
    p.add_argument("plus", help="facet entering with + sign")
    p.add_argument("minus", help="facet entering with - sign")
    p.add_argument(
        "--no-diagnose", action="store_true", help="skip input/output tightness checks"
    )

    p = add("lift3", "three-setting lift of a facet triple (new party first)")
    p.add_argument("i0")
    p.add_argument("i2")
    p.add_argument("i3")
    p.add_argument("--no-diagnose", action="store_true")

    p = add("compat", "check the implied fourth expression is valid")
    p.add_argument("i0")
    p.add_argument("i2")
    p.add_argument("i3")

    p = add("mabk", "n-party two-setting inequality from the recursive lift")
    p.add_argument("n", type=int)

    p = add("builtin", "built-in expressions")
    p.add_argument("name", choices=["wbz333", "four-party-19", "symmetry-images"])

    p = add("violate", "see-saw maximization of the violation factor for a state")
    p.add_argument("expr")
    _add_state_options(p)
    p.add_argument("--restarts", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-10, help="see-saw convergence tolerance")

    p = add("spectrum", "eigenvalues of the Bell operator at given settings")
    p.add_argument("expr")
    p.add_argument(
        "settings",
        help="JSON settings document ('-' for stdin); the violate output works as-is",
    )
    p.add_argument(
        "--tol", type=float, default=1e-6, help="degeneracy grouping tolerance"
    )

    p = add("corr-tensor", "full correlation tensor of a state in the coordinate bases")
    _add_state_options(p)

    p = add("reproduce", "recompute all built-in reference values and report pass/fail")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=50)

    return parser


def _run(args: argparse.Namespace) -> int:
    cmd = args.command
    if cmd == "lr-bound":
        expr = _read_expression(args.expr)
        bound, witness = lr_max_with_witness(expr)
        _emit(
            {"lr_max": str(bound), "witness": _strategy_payload(witness)},
            args.out,
        )
    elif cmd == "tightness":
        rep = tightness(_read_expression(args.expr))
        _emit(
            {
                "lr_max": str(rep.lr_max),
                "saturating": rep.saturating_count,
                "rank": rep.rank,
                "valid": rep.is_valid,
                "tight": rep.is_tight,
            },
            args.out,
        )
    elif cmd == "facets":
        facets = enumerate_facets(Scenario(tuple(args.settings)))
        _emit(
            {
                "settings": list(args.settings),
                "count": len(facets),
                "facets": [serialize_expression(f) for f in facets],
            },
            args.out,
        )
    elif cmd == "lift2":
        out, diag = lift2(
            _read_expression(args.plus),
            _read_expression(args.minus),
            diagnose=not args.no_diagnose,
        )
        meta: dict[str, Any] = {"name": "lift2"}
        if diag.inputs_tight is not None:
            meta["inputs_tight"] = list(diag.inputs_tight)
            meta["output_tight"] = diag.output_tight
        _emit(serialize_expression(out, meta), args.out)
    elif cmd == "lift3":
        out, diag = lift3(
            _read_expression(args.i0),
            _read_expression(args.i2),
            _read_expression(args.i3),
            diagnose=not args.no_diagnose,
        )
        meta = {"name": "lift3", "compatibility": diag.compatibility_valid}
        if diag.compatibility_witness is not None:
            meta["compatibility_witness"] = _strategy_payload(diag.compatibility_witness)
        if diag.inputs_tight is not None:
            meta["inputs_tight"] = list(diag.inputs_tight)
            meta["output_tight"] = diag.output_tight
        if not diag.compatibility_valid:
            print(
                "warning: compatibility condition fails; the lift need not be a facet",
                file=sys.stderr,
            )
        _emit(serialize_expression(out, meta), args.out)
    elif cmd == "compat":
        holds, witness = compatibility_holds(
            _read_expression(args.i0),
            _read_expression(args.i2),
            _read_expression(args.i3),
        )
        _emit({"holds": holds, "witness": _strategy_payload(witness)}, args.out)
    elif cmd == "mabk":
        if args.n < 1:
            raise DocumentError("mabk needs n >= 1")
        _emit(serialize_expression(mabk(args.n), {"name": f"mabk-{args.n}"}), args.out)
    elif cmd == "builtin":
        if args.name == "wbz333":
            _emit(serialize_expression(wbz333(), {"name": "wbz333"}), args.out)
        elif args.name == "four-party-19":
            _emit(
                serialize_expression(four_party_19(), {"name": "four-party-19"}),
                args.out,
            )
        else:
            names = ["swap-settings-0-1", "swap-settings-0-2", "cycle-settings-201"]
            _emit(
                [
                    serialize_expression(img, {"name": n})
                    for img, n in zip(symmetry_images(), names)
                ],
                args.out,
            )
    elif cmd == "violate":
        expr = _read_expression(args.expr)
        result = seesaw_maximize(expr, _state_from_args(args), _seesaw_config(args))
        _emit(
            {
                "value": result.value,
                "converged": result.converged,
                "scale": str(result.scale),
                "settings": _settings_payload(result.settings),
            },
            args.out,
        )
    elif cmd == "spectrum":
        expr = _read_expression(args.expr)
        settings = _settings_from_payload(json.loads(_read_text(args.settings)))
        spec = spectrum(bell_operator(expr, settings), degeneracy_tol=args.tol)
        _emit(
            {
                "eigenvalues": list(spec.eigenvalues),
                "groups": [[v, m] for v, m in spec.groups],
            },
            args.out,
        )
    elif cmd == "corr-tensor":
        state = _state_from_args(args)
        tensor = correlation_tensor(state)
        _emit(
            {
                "parties": tensor.n,
                "values": tensor.values.tolist(),
                "sum_squares": sum_squared_correlations(state),
            },
            args.out,
        )
    elif cmd == "reproduce":
        report = reproduce_report(seed=args.seed, restarts=args.restarts)
        print(format_table(report))
        if args.out:
            _emit(report.as_dict(), args.out)
        if not report.passed:
            return EXIT_REPRODUCE
    else:  # pragma: no cover - argparse enforces the choices
        raise DocumentError(f"unknown command {cmd!r}")
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except EnumerationCapExceeded as exc:
        print(f"bellift: cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (DocumentError, ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"bellift: error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
