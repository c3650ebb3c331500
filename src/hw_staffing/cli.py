"""Command-line surface: compute, staff, sweep, verify, simulate.

Exit codes: 0 success, 1 verification failure, 2 domain or usage error,
3 numerical error. All numeric output uses 17 significant digits so parsing
the text reproduces the binary value. The library's accuracy is fixed and
no environment variable or file is read, so identical argument vectors
produce byte-identical stdout and files.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

# What every command needs; each handler imports the rest of what it uses,
# so one run loads only the modules of its command.
from . import erlang
from .errors import DomainError, NumericalError, positive_finite

_EXIT_OK = 0
_EXIT_VERIFY_FAILED = 1
_EXIT_DOMAIN = 2
_EXIT_NUMERICAL = 3


def fmt(x: float) -> str:
    """17 significant digits: round-trips any double."""
    return f"{x:.17g}"


# --------------------------------------------------------------------------
# compute
# --------------------------------------------------------------------------


def _cmd_compute(args) -> int:
    s, a = args.s, args.a
    # auto takes the gamma route: 4-18 us at any s and load, and at least as
    # tight a bound as the others on the staffed curves from a = 1e2
    method = "gamma" if args.method == "auto" else args.method
    results = []  # erlang_c_integer rejects a fractional s
    if method == "recurrence" or (method == "all" and float(s).is_integer()):
        try:
            results.append(erlang.erlang_c_integer(s, a))
        except DomainError as exc:
            # past 2**53 or the recurrence's ceiling the other two routes still
            # serve a stable point; an unstable one stays a domain error
            if method == "recurrence" or not s > a:
                raise
            print(f"warning: recurrence skipped: {exc}", file=sys.stderr)
    if method in ("quadrature", "all"):
        results.append(erlang.erlang_c_real(s, a))
    if method in ("gamma", "all"):
        results.append(erlang.erlang_c_gamma(s, a))
    for r in results:
        print(f"{r.method.value} {fmt(r.value)} {fmt(r.error_bound)}")
    return _EXIT_OK


# --------------------------------------------------------------------------
# staff
# --------------------------------------------------------------------------


def _cmd_staff(args) -> int:
    from . import halfin_whitt

    if args.mode == "beta":
        beta = halfin_whitt.beta_for_target(args.epsilon)
        print(f"beta = {fmt(beta)}")
        if args.a is not None:
            print(f"n = {fmt(halfin_whitt.staffing(args.a, beta))}")
        return _EXIT_OK
    if args.a is None:
        raise DomainError(f"--a is required for mode {args.mode}")
    if args.mode == "integer":
        print(f"n = {erlang.min_servers(args.a, args.epsilon)}")
    else:
        print(f"s = {fmt(erlang.real_staffing_level(args.a, args.epsilon))}")
    return _EXIT_OK


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------


def _sweep_csv(result, args) -> str:
    def cell(v):
        return "" if v is None else fmt(v)

    lines = []
    if args.regime == "hw":
        lines.append("a,s,c,c_star,gap,error")
        for r in result.rows:
            err = r.error or ""
            lines.append(
                f"{fmt(r.a)},{fmt(r.s)},{cell(r.c_value)},{fmt(r.c_star)},{cell(r.gap)},{err}"
            )
    else:
        lines.append("s,a,c,error")
        for r in result.rows:
            err = r.error or ""
            lines.append(f"{fmt(r.s)},{fmt(r.a)},{cell(r.c_value)},{err}")
    return "\n".join(lines) + "\n"


def _sweep_svg(result, args) -> str:
    from .svg import polyline_chart

    ok = [r for r in result.rows if r.c_value is not None]
    beta_text = f"{result.beta:.6g}"
    if args.regime == "hw":
        xs = [r.a for r in ok]
        title = f"C(a + beta*sqrt(a), a), beta = {beta_text}"
        x_label = "offered load a"
    else:
        xs = [r.s for r in ok]
        title = f"C(s, s - beta*sqrt(s)), beta = {beta_text}"
        x_label = "servers s"
    return polyline_chart(
        xs,
        [r.c_value for r in ok],
        title=title,
        x_label=x_label,
        y_label="delay probability C",
        log_x=args.log_x,
    )


def _cmd_sweep(args) -> int:
    from . import halfin_whitt

    beta = positive_finite(args.beta, "--beta", "beta")

    if args.regime == "hw":
        default_lo, default_hi, default_points = 1.0, 1e4, 40
    else:  # the inverse regime starts at its validity floor, just above beta**2
        default_lo, default_hi, default_points = beta * beta * (1.0 + 1e-9), 500.0, 200
    lo = args.lo if args.lo is not None else default_lo
    hi = args.hi if args.hi is not None else default_hi
    points = args.points if args.points is not None else default_points

    if args.regime == "inverse" and lo < default_lo:
        print(
            f"warning: --from {fmt(lo)} is at or below beta**2; clamped to {fmt(default_lo)}",
            file=sys.stderr,
        )
        lo = default_lo

    if args.out == "-" and args.format != "csv":
        raise DomainError("svg output cannot go to stdout; give --out PATH")

    grid = list(halfin_whitt.default_load_grid(lo, hi, points, args.log_x))
    if points > 1:
        grid[-1] = hi
    if args.regime == "hw":
        result = halfin_whitt.hw_sweep(beta, grid)
    else:
        result = halfin_whitt.inverse_sweep(beta, grid)

    if not any(r.c_value is not None for r in result.rows):
        raise NumericalError(f"every sweep row failed; first row: {result.rows[0].error}")

    if args.format in ("csv", "both"):
        text = _sweep_csv(result, args)
        if args.out == "-":
            sys.stdout.write(text)
        else:
            path = args.out if args.format == "csv" else args.out + ".csv"
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            print(f"wrote {path}")
    if args.format in ("svg", "both"):
        text = _sweep_svg(result, args)
        path = args.out if args.format == "svg" else args.out + ".svg"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"wrote {path}")
    return _EXIT_OK


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    from . import verify

    checks = verify.run_suite(args.suite)
    for name, passed, detail in checks:
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    failed = sum(not passed for _, passed, _ in checks)
    print(f"{len(checks) - failed}/{len(checks)} properties passed")
    return _EXIT_OK if failed == 0 else _EXIT_VERIFY_FAILED


# --------------------------------------------------------------------------
# simulate
# --------------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    from . import mmn_oracle

    cfg = mmn_oracle.SimConfig(n=args.n, lam=args.lam, mu=args.mu,
                               measured_arrivals=args.arrivals, seed=args.seed)
    estimate = mmn_oracle.simulate_mmn(cfg)
    analytic = erlang.erlang_c_integer(cfg.n, cfg.offered_load).value
    if estimate.ci_halfwidth > 0.0:
        standardized = (estimate.p_wait - analytic) / estimate.ci_halfwidth
    else:
        standardized = math.inf if estimate.p_wait != analytic else 0.0
    print(
        f"p_wait = {fmt(estimate.p_wait)} +/- {fmt(estimate.ci_halfwidth)} "
        f"(95% CI, {estimate.batches} batches)"
    )
    print(f"analytic = {fmt(analytic)}")
    print(f"standardized discrepancy = {fmt(standardized)}")
    return _EXIT_OK


# --------------------------------------------------------------------------
# parser and entry point
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hw-staffing", description="Erlang C delay probabilities and square-root staffing.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="delay probability C(s, a)")
    p.add_argument("--s", type=float, required=True, help="servers (real)")
    p.add_argument("--a", type=float, required=True, help="offered load (erlangs)")
    p.add_argument("--method", choices=["auto", "recurrence", "quadrature", "gamma", "all"],
                   default="auto")
    p.set_defaults(handler=_cmd_compute)

    p = sub.add_parser("staff", help="invert the delay probability for staffing")
    p.add_argument("--a", type=float, default=None, help="offered load (erlangs)")
    p.add_argument("--epsilon", type=float, required=True, help="target delay probability")
    p.add_argument("--mode", choices=["integer", "real", "beta"], default="integer")
    p.set_defaults(handler=_cmd_staff)

    p = sub.add_parser("sweep", help="sweep a staffing regime, emit CSV/SVG")
    p.add_argument("--regime", choices=["hw", "inverse"], required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--from", dest="lo", type=float, default=None)
    p.add_argument("--to", dest="hi", type=float, default=None)
    p.add_argument("--points", type=int, default=None)
    p.add_argument("--log-x", dest="log_x", action="store_true")
    p.add_argument("--format", choices=["csv", "svg", "both"], default="csv")
    p.add_argument("--out", default="-", help="output path; '-' writes CSV to stdout")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("verify", help="run the property verification suites")
    p.add_argument("--suite", default="all",
                   help="all (the default), monotonicity, order or identities")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("simulate", help="discrete-event M/M/n simulation oracle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--arrivals", type=int, default=100_000, help="measured arrivals")
    p.set_defaults(handler=_cmd_simulate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built once a process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_DOMAIN
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
