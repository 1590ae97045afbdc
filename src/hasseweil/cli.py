"""Batch command-line interface.

Subcommands: analyze | lvalue | lambda | rank | bsd | zetacheck | motive | snf.
Exit codes: 0 success, 2 parse error, 3 singular curve, 4 precision
exhausted, 5 precondition violation.  With --json, output is a single
deterministic JSON object (sorted keys, fixed-format numbers).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import mpmath as mp

from . import analytic, bsd, intlinalg, realizations
from .curves import CurvePoint, WeierstrassCurve, parse_curve
from .errors import (
    BadReduction,
    BSGSFailure,
    DependentGenerators,
    NotNilpotent,
    NotPrime,
    OutsideConvergenceRegion,
    PointNotOnCurve,
    PrecisionExhausted,
    SingularBasis,
    SingularCurve,
)
from .localdata import bad_primes, conductor, tate_local
from .lseries import trace_formula_check, zeta_factorization_check
from .numtheory import primes_up_to

EXIT_PARSE = 2
EXIT_SINGULAR = 3
EXIT_PRECISION = 4
EXIT_PRECONDITION = 5


def _fmt(value, digits: int = 15) -> str:
    """Deterministic decimal rendering of a real number."""
    return mp.nstr(mp.mpf(value) if not isinstance(value, (mp.mpf, mp.mpc)) else value,
                   digits, strip_zeros=True)


def _fmt_complex(value, digits: int = 15) -> str:
    v = mp.mpmathify(value)
    if isinstance(v, mp.mpc):
        if abs(v.imag) < mp.mpf(10) ** (-digits):
            return _fmt(v.real, digits)
        return f"{_fmt(v.real, digits)}{'+' if v.imag >= 0 else '-'}{_fmt(abs(v.imag), digits)}i"
    return _fmt(v, digits)


def _parse_complex(text: str) -> complex:
    cleaned = text.strip().replace("i", "j")
    return complex(cleaned)


def _int_at_least(low: int, what: str):
    """argparse type for an integer >= low, described as `what`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    return parse


_positive_int = _int_at_least(1, "a positive integer")


def _read_file(path: str) -> str:
    """Contents of an input file; an unreadable one is a parse error."""
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from exc


def _parse_gen(text: str) -> CurvePoint:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"generator must be 'x,y', got {text!r}")
    return CurvePoint.affine(Fraction(parts[0]), Fraction(parts[1]))


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _curve_from_args(args) -> WeierstrassCurve:
    return parse_curve(args.coefficients if len(args.coefficients) > 1
                       else args.coefficients[0])


def _context(args, curve) -> analytic.AnalyticContext:
    ctx = analytic.AnalyticContext(curve, digits=args.prec)
    if args.nmax:
        ctx.n_max = max(ctx.n_max, args.nmax)
    return ctx


def cmd_analyze(args) -> int:
    curve = _curve_from_args(args)
    minimal, iso = curve.minimal_model()
    inv = minimal.invariants()
    N = conductor(curve)
    structure, gens = curve.torsion_subgroup()
    locals_ = [tate_local(curve, p) for p in bad_primes(curve)]
    payload = {
        "curve": [str(a) for a in curve.ainvs()],
        "minimal_model": [str(a) for a in minimal.ainvs()],
        "invariants": {
            "c4": str(inv.c4),
            "c6": str(inv.c6),
            "disc": str(inv.disc),
            "j": str(inv.j),
        },
        "transformation": {"u": str(iso.u), "r": str(iso.r),
                           "s": str(iso.s), "t": str(iso.t)},
        "conductor": N,
        "torsion": {"structure": structure,
                    "generators": [[str(g.x), str(g.y)] for g in gens]},
        "local_data": [d.to_dict() for d in locals_],
    }
    lines = [
        f"curve: {' '.join(str(a) for a in curve.ainvs())}",
        f"minimal model: {' '.join(str(a) for a in minimal.ainvs())}",
        f"c4 = {inv.c4}, c6 = {inv.c6}, disc = {inv.disc}, j = {inv.j}",
        f"conductor N = {N}",
        f"torsion: {structure}",
    ]
    for d in locals_:
        lines.append(
            f"  p={d.p}: {d.reduction.value}, {d.kodaira}, "
            f"a_p={d.a_p}, f={d.f_p}, c={d.c_p}, m={d.m}"
        )
    _emit(args, payload, lines)
    return 0


def cmd_value(args) -> int:
    """`lvalue` or `lambda`: args.evaluate(ctx, s), reported under args.key."""
    curve = _curve_from_args(args)
    ctx = _context(args, curve)
    s = _parse_complex(args.s)
    value = args.evaluate(ctx, s)
    payload = {
        "s": _fmt_complex(s),
        args.key: {"value": _fmt_complex(value.value, args.prec),
                   "err": _fmt(value.bound, 3)},
        "conductor": ctx.N,
        "root_number": ctx.w,
    }
    _emit(args, payload, [
        f"{args.key}(E, {_fmt_complex(s)}) = {_fmt_complex(value.value, args.prec)} "
        f"+- {_fmt(value.bound, 3)}"
    ])
    return 0


def cmd_rank(args) -> int:
    curve = _curve_from_args(args)
    ctx = _context(args, curve)
    estimate = analytic.analytic_rank(ctx)
    payload = {
        "rank_analytic": estimate.rank,
        "tolerance": _fmt(estimate.tol, 3),
        "root_number": ctx.w,
        "inspected": [[k, _fmt(v, 6)] for k, v in estimate.derivative_values],
        "note": estimate.note,
    }
    _emit(args, payload, [
        f"analytic rank = {estimate.rank} (w = {ctx.w}); {estimate.note}"
    ])
    return 0


def cmd_bsd(args) -> int:
    curve = _curve_from_args(args)
    gens = [_parse_gen(g) for g in args.gen or []]
    for g in gens:
        if not curve.contains(g):
            raise PointNotOnCurve(f"generator {g} violates the curve equation")
    report = bsd.bsd_report(curve, gens, digits=args.prec)
    payload = report.to_dict()
    lines = [
        f"N = {report.conductor}, w = {report.root_number}, "
        f"analytic rank = {report.rank_analytic}",
        f"L-leading = {_fmt(report.leading_coefficient)} "
        f"+- {_fmt(report.leading_coefficient_err, 3)}",
        f"omega = {_fmt(report.omega)} +- {_fmt(report.omega_err, 3)}",
        f"regulator = {_fmt(report.regulator)}",
        f"torsion = {report.torsion_order}, tamagawa = {report.tamagawa}",
        f"sha_predicted = {_fmt(report.sha_predicted)} "
        f"+- {_fmt(report.sha_predicted_err, 3)}",
    ]
    if report.flags:
        lines.append(f"flags: {', '.join(report.flags)}")
    _emit(args, payload, lines)
    return 0


def cmd_zetacheck(args) -> int:
    curve = _curve_from_args(args)
    results = []
    bad = set(bad_primes(curve))
    for p in primes_up_to(args.pmax):
        if p in bad:
            continue
        results.append(
            {
                "p": p,
                "trace_formula": trace_formula_check(curve, p, args.kmax),
                "zeta_factorization": zeta_factorization_check(
                    curve, p, args.kmax
                ),
            }
        )
    all_ok = all(r["trace_formula"] and r["zeta_factorization"] for r in results)
    payload = {"kmax": args.kmax, "checks": results, "all_ok": all_ok}
    lines = [
        f"p={r['p']}: trace {'ok' if r['trace_formula'] else 'FAIL'}, "
        f"zeta {'ok' if r['zeta_factorization'] else 'FAIL'}"
        for r in results
    ] + [f"all good primes <= {args.pmax} pass" if all_ok else "FAILURES above"]
    _emit(args, payload, lines)
    return 0


def cmd_motive(args) -> int:
    data = json.loads(_read_file(args.file))
    payload: dict = {}
    lines: list[str] = []
    if "hodge" in data or "weight" in data:
        hodge_dict = data.get("hodge_data", data if "weight" in data else data["hodge"])
        h = realizations.HodgeData.from_dict(hodge_dict)
        triples = realizations.gamma_factor_symbolic(h)
        payload["gamma"] = [[kind, shift, exp] for kind, shift, exp in triples]

        def one(kind, shift, exp):
            arg = "s" if shift == 0 else (f"s+{shift}" if shift > 0 else f"s-{-shift}")
            return f"Gamma_{kind}({arg})" + (f"^{exp}" if exp != 1 else "")

        pretty = " ".join(one(*t) for t in triples)
        lines.append(f"gamma factor: {pretty or '1'}")
        if args.s is not None:
            s = _parse_complex(args.s)
            with mp.workdps(args.prec + 10):
                val = realizations.gamma_factor(h, s)
            payload["gamma_value"] = {"s": _fmt_complex(s),
                                      "value": _fmt_complex(val, args.prec)}
            lines.append(f"L_oo({_fmt_complex(s)}) = {_fmt_complex(val, args.prec)}")
    if "wd" in data:
        wd = realizations.WeilDeligneRep.from_dict(data["wd"])
        coeffs = realizations.wd_local_factor(wd)
        payload["local_factor_denominator"] = [str(c) for c in coeffs]
        payload["compatibility"] = realizations.check_compatibility(wd)
        terms = " + ".join(
            f"{c}*T^{j}" if j else f"{c}" for j, c in enumerate(coeffs)
        )
        lines.append(f"local factor at p={wd.p}: 1 / ({terms}), T = p^-s")
        lines.append(f"compatibility phi N phi^-1 = N/p: {payload['compatibility']}")
    if not payload:
        raise ValueError("motive file must contain 'hodge'/'weight' or 'wd' data")
    _emit(args, payload, lines)
    return 0


def cmd_snf(args) -> int:
    if args.file:
        matrix = intlinalg.matrix_from_json(_read_file(args.file))
    else:
        matrix = intlinalg.matrix_from_json(args.matrix)
    U, D, V = intlinalg.smith_normal_form(matrix)
    divisors = [D[i][i] for i in range(min(len(D), len(D[0]) if D else 0))]
    payload = {
        "U": U,
        "D": D,
        "V": V,
        "elementary_divisors": divisors,
        "torsion_order": intlinalg.torsion_order(matrix),
    }
    lines = [
        f"elementary divisors: {divisors}",
        f"torsion order of cokernel: {payload['torsion_order']}",
        f"U = {U}",
        f"V = {V}",
    ]
    _emit(args, payload, lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hasseweil",
        description="Hasse-Weil L-functions of elliptic curves over Q",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, curve=True):
        if curve:
            p.add_argument("coefficients", nargs="+",
                           help="a1 a2 a3 a4 a6 (or one JSON array of five strings)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--prec", type=_positive_int, default=30,
                       help="working precision digits")

    def add_nmax(p):
        p.add_argument("--nmax", type=_positive_int, default=None,
                       help="least Dirichlet truncation")

    p = sub.add_parser("analyze", help="invariants, minimal model, local data")
    add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("lvalue", help="L(E, s)")
    add_common(p)
    add_nmax(p)
    p.add_argument("--s", default="1", help="complex evaluation point a+bi")
    p.set_defaults(func=cmd_value, evaluate=analytic.l_value, key="L")

    p = sub.add_parser("lambda", help="completed Lambda(E, s)")
    add_common(p)
    add_nmax(p)
    p.add_argument("--s", default="1", help="complex evaluation point a+bi")
    p.set_defaults(func=cmd_value, evaluate=analytic.lambda_value, key="Lambda")

    p = sub.add_parser("rank", help="analytic rank")
    add_common(p)
    add_nmax(p)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("bsd", help="BSD consistency report")
    add_common(p)
    p.add_argument("--gen", action="append", help="generator 'x,y' (repeatable)")
    p.set_defaults(func=cmd_bsd)

    p = sub.add_parser("zetacheck", help="trace-formula and zeta factorization checks")
    add_common(p)
    p.add_argument("--pmax", type=_int_at_least(2, "an integer >= 2"), default=20,
                   help="check good primes p <= pmax")
    p.add_argument("--kmax", type=_positive_int, default=3,
                   help="check N_{p^k} for k <= kmax")
    p.set_defaults(func=cmd_zetacheck)

    p = sub.add_parser("motive", help="gamma factors / local factors from JSON data")
    add_common(p, curve=False)
    p.add_argument("--file", required=True, help="realization description JSON")
    p.add_argument("--gamma", action="store_true",
                   help="(implied) print the symbolic gamma product")
    p.add_argument("--s", default=None, help="also evaluate numerically at s")
    p.set_defaults(func=cmd_motive)

    p = sub.add_parser("snf", help="Smith normal form of an integer matrix")
    p.add_argument("matrix", nargs="?", help="JSON array of rows of integers")
    p.add_argument("--file", help="read the matrix from a JSON file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_snf)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (json.JSONDecodeError, ValueError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SingularCurve as exc:
        print(f"singular curve: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except PrecisionExhausted as exc:
        print(f"precision exhausted: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except (
        BadReduction,
        BSGSFailure,
        DependentGenerators,
        NotNilpotent,
        NotPrime,
        OutsideConvergenceRegion,
        PointNotOnCurve,
        SingularBasis,
    ) as exc:
        print(f"precondition violated ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
