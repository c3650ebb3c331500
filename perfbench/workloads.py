"""The benchmark's three workloads: inputs, requests and correctness checks.

Every workload is a closed loop with one client: the next request starts
when the previous one returns. Inputs come from ``random.Random(seed)``
only; the library sees nothing but the generated arguments. A request
records each library call it makes as a ``Call``. A typed error
(``StaffingError``) is a recorded outcome of that call, not a failed
request; the checks later compare every returned value with the reference.

Library functions are looked up on the package at call time, so that the
tracer's wrappers are the ones called in a traced run.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import statistics
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

EPS = 2.0**-52
# Library rule for meeting a staffing target (erlang._TIE_REL_TOL).
TIE = 1e-12
# Bisection tolerances of real_staffing_level and beta_for_target.
S_TOL = 1e-9
BETA_TOL = 1e-12
# Routes without a reported bound are held to the nominal bound the
# library reports for its non-quadrature routes.
NOMINAL = 1e-13


@dataclass(frozen=True)
class Call:
    route: str
    load: float  # offered load the call concerns, for the defect table
    args: tuple
    value: object
    error: str | None  # class name of the typed error, if one was raised


@dataclass(frozen=True)
class Defect:
    """A wrong or failing outcome known at the benchmark's baseline."""

    route: str
    kind: str  # "wrong" or "raised"
    from_load: float
    note: str


# Outcomes inside these regions are counted in the ratios but do not make
# a run incorrect; any other wrong value or typed error does.
KNOWN_DEFECTS = (
    # The gamma route's rounding error grows with a: it first exceeds the
    # bound near a = 2.4e2 and already reaches 0.9 of it near 1.3e2.
    Defect("erlang_c_gamma", "wrong", 1e2, "breaks its 1e-13 error_bound, by up to ~1e-9 near a = 1e6"),
    Defect("erlang_c_gamma", "raised", 1e6, "lower-gamma series hits its 10 000-term cap"),
    Defect("erlang_c_real", "raised", 5e10, "quadrature misses tolerance after 60 rounds, taking 1-6 s"),
)


def known(route: str, kind: str, load: float) -> bool:
    return any(d.route == route and d.kind == kind and load >= d.from_load for d in KNOWN_DEFECTS)


class Checks:
    """Tallies of calls and checked values, and the outcomes no defect explains."""

    def __init__(self):
        self.calls = 0
        self.failed_calls = 0
        self.checked = 0
        self.wrong = 0
        self.unexplained: list[str] = []

    def add_calls(self, calls):
        for c in calls:
            self.calls += 1
            if c.error is not None:
                self.failed_calls += 1
                if not known(c.route, "raised", c.load):
                    self.unexplained.append(f"{c.route}{c.args} raised {c.error}")

    def value(self, call: Call, ok: bool, detail: str = ""):
        self.checked += 1
        if not ok:
            self.wrong += 1
            if not known(call.route, "wrong", call.load):
                self.unexplained.append(f"{call.route}{call.args} wrong: {detail}")


class Recorder:
    """Runs library calls for one request, recording each outcome."""

    def __init__(self, typed_error):
        self.typed_error = typed_error
        self.calls: list[Call] = []

    def __call__(self, route: str, load: float, fn, *args):
        try:
            value = fn(*args)
        except self.typed_error as exc:
            self.calls.append(Call(route, load, args, None, type(exc).__name__))
            return None
        self.calls.append(Call(route, load, args, value, None))
        return value


def _log_uniform(lo: float, hi: float, u: float) -> float:
    return lo * (hi / lo) ** u


def _find(calls, route):
    for c in calls:
        if c.route == route:
            return c
    return None


def _close(value: float, want, bound: float) -> bool:
    return abs(value - float(want)) <= bound


class Staffing:
    """Planner queries (a, eps): integer, continuous and square-root staffing.

    a is log-uniform on [1, 1e5] and eps log-uniform on [1e-3, 0.5], both
    stratified: a has one stratum per request, and every block of ten
    consecutive a-strata takes each of ten eps-strata once, in a fixed
    order. The seed places each point within its strata and orders the
    requests. The cost of a request grows like a times the number of
    recurrences in min_servers, which depends on eps, so fixing which
    strata pair up keeps the run's work and its latency quantiles nearly
    the same from seed to seed.

    Loads stop at 1e5 so that several passes fit in a run. Up to 1e6, one
    pass takes ~15 s (min_servers alone takes ~2 s at a = 1e6), a run holds
    a single pass, and over five seeds the 90th percentile spread by 10%
    of its median; more queries per pass would not fit the run, because
    the reference costs ~0.16 s per query.
    """

    name = "staffing"
    setup_code = "import hw_staffing; hw_staffing.min_servers(4.0, 0.5)"
    a_max = 1e5
    per_pass = 100
    block = 10

    def __init__(self, lib, seed: int, out_dir: Path):
        rng = random.Random(seed)
        queries = []
        for start in range(0, self.per_pass, self.block):
            for j in range(self.block):
                a = _log_uniform(1.0, self.a_max, (start + j + rng.random()) / self.per_pass)
                eps = _log_uniform(1e-3, 0.5, ((3 * j) % self.block + rng.random()) / self.block)
                queries.append((a, eps))
        rng.shuffle(queries)
        self.lib = lib
        self.items = queries

    def run(self, query, call: Recorder):
        lib = self.lib
        a, eps = query
        call("min_servers", a, lib.min_servers, a, eps)
        call("real_staffing_level", a, lib.real_staffing_level, a, eps)
        beta = call("beta_for_target", a, lib.beta_for_target, eps)
        if beta is None:
            return
        s_hw = call("staffing", a, lib.staffing, a, beta)
        if s_hw is None:
            return
        # compute --method auto picks the gamma route for a real s.
        call("erlang_c_gamma", a, lib.erlang_c_gamma, s_hw, a)

    def check(self, outcomes, ref, checks: Checks):
        for (a, eps), calls in outcomes:
            checks.add_calls(calls)
            n_call = _find(calls, "min_servers")
            n = n_call.value if n_call.error is None else None
            if n is not None:
                met = eps * (1.0 + TIE)
                ok = n == int(n) and n > a and float(ref.delay(n, a)) <= met + NOMINAL
                if ok and n - 1 > a:
                    ok = float(ref.delay(n - 1, a)) > met - NOMINAL
                checks.value(n_call, ok, f"n={n} is not the smallest n with C(n, a) <= {eps!r}")

            s_call = _find(calls, "real_staffing_level")
            if s_call.error is None:
                s = s_call.value
                tol = S_TOL + 8 * EPS * s
                ok, detail = True, ""
                if n is not None:
                    lo = max(a, n - 1)
                    ok = lo - tol < s <= n + tol
                    detail = f"s*={s!r} outside ({lo}, {n}]"
                    c_lo = 1.0 if lo == a else float(ref.delay(lo, a))
                    slope = (c_lo - float(ref.delay(n, a))) / (n - lo)
                else:
                    slope = 1.0
                if ok:
                    # the continuous route's own bound at s*, plus the bisection tolerance
                    bound = 2 * self.lib.erlang_c_real(s, a).error_bound + 2 * slope * tol
                    resid = abs(float(ref.delay(s, a)) - eps)
                    ok = resid <= bound
                    detail = f"|C(s*) - eps| = {resid:.3g} > {bound:.3g}"
                checks.value(s_call, ok, detail)

            b_call = _find(calls, "beta_for_target")
            if b_call is not None and b_call.error is None:
                beta = b_call.value
                resid = abs(float(ref.limit(beta)) - eps)
                bound = abs(float(ref.limit_slope(beta))) * BETA_TOL + 16 * EPS * eps
                checks.value(b_call, resid <= bound, f"|hw_limit(beta) - eps| = {resid:.3g}")
                _check_staffing(_find(calls, "staffing"), ref, checks)
                _check_delay(_find(calls, "erlang_c_gamma"), ref, checks)


def _check_staffing(call, ref, checks: Checks):
    if call is None or call.error is not None:
        return
    a, beta = call.args
    want = ref.staffing(a, beta)
    checks.value(call, _close(call.value, want, 4 * EPS * call.value), f"s={call.value!r}")


def _check_delay(call, ref, checks: Checks):
    if call is None or call.error is not None:
        return
    s, a = call.args
    want = ref.delay(s, a)
    got = call.value
    checks.value(
        call,
        _close(got.value, want, got.error_bound),
        f"|C - ref| = {abs(got.value - float(want)):.3g} > error_bound {got.error_bound:.3g}",
    )


_VERIFY_BETAS = (0.1, 0.5, 1.0, 2.0, 3.0)
# One fixed probe per beta across the large-load range: failing quadratures
# cost 1-6 s each, and fixed loads keep that cost the same from seed to seed.
_PROBES = ((0.1, 1e11), (0.5, 1e12), (1.0, 1e13), (2.0, 1e14), (3.0, 1e15))
# The README's inverse-regime figures: (beta, from, to, log x).
_FIGURES = ((0.1, 0.02, 50.0, True), (3.0, 9.5, 500.0, False))
_FIGURE_POINTS = 200


class Evidence:
    """The paper's evidence: staffed-curve points, the verify suite, figures.

    Point requests evaluate C(a + beta*sqrt(a), a) by the quadrature and
    gamma routes for each beta of the verify set, on a log grid of two
    points per decade from 1e-2 to 1e10 with a seeded phase per beta, plus
    the fixed large-load probes. The phases are stratified: a seeded
    permutation gives each beta its own fifth of the interval between grid
    points, and one seeded offset places all five within their fifths. The
    union of the curves is then an even grid of ten points per decade, so
    how many points fall on the steep cost rise near 1e10, which sets the
    90th percentile, barely moves with the seed. Suite requests run ``verify --suite all`` and the two README
    figures through ``cli.main`` in-process.
    """

    name = "evidence"
    setup_code = "import hw_staffing; from hw_staffing import cli; hw_staffing.erlang_c_real(5.0, 4.0)"

    def __init__(self, lib, seed: int, out_dir: Path):
        rng = random.Random(seed)
        items = []
        offset = rng.random()
        strata = rng.sample(range(len(_VERIFY_BETAS)), len(_VERIFY_BETAS))
        for beta, stratum in zip(_VERIFY_BETAS, strata):
            phase = (stratum + offset) / len(_VERIFY_BETAS)
            items += [("point", beta, 10.0 ** (-2.0 + (k + phase) / 2.0)) for k in range(24)]
        items += [("point", beta, a) for beta, a in _PROBES]
        items.append(("verify",))
        items += [("figure",) + f for f in _FIGURES]
        rng.shuffle(items)
        self.lib = lib
        self.items = items
        self.out_dir = out_dir

    def run(self, item, call: Recorder):
        lib = self.lib
        kind = item[0]
        if kind == "point":
            _, beta, a = item
            s = call("staffing", a, lib.staffing, a, beta)
            if s is not None:
                call("erlang_c_real", a, lib.erlang_c_real, s, a)
                call("erlang_c_gamma", a, lib.erlang_c_gamma, s, a)
            return
        if kind == "verify":
            argv = ["verify", "--suite", "all"]
        else:
            _, beta, lo, hi, log_x = item
            path = self.out_dir / f"figure-beta{beta:g}.svg"
            argv = ["sweep", "--regime", "inverse", "--beta", f"{beta:g}", "--from", f"{lo:g}",
                    "--to", f"{hi:g}", "--points", str(_FIGURE_POINTS), "--format", "svg",
                    "--out", str(path)] + (["--log-x"] if log_x else [])
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = lib.cli.main(argv)
        svg = path.read_text(encoding="utf-8") if kind == "figure" and code == 0 else ""
        # cli.main maps typed errors to exit codes 2 (domain) and 3 (numerical).
        error = {2: "DomainError", 3: "NumericalError"}.get(code)
        call.calls.append(Call("cli." + argv[0], math.nan, tuple(item[1:]), (code, svg), error))

    def check(self, outcomes, ref, checks: Checks):
        for item, calls in outcomes:
            checks.add_calls(calls)
            if item[0] == "point":
                _check_staffing(_find(calls, "staffing"), ref, checks)
                _check_delay(_find(calls, "erlang_c_real"), ref, checks)
                _check_delay(_find(calls, "erlang_c_gamma"), ref, checks)
            elif item[0] == "verify":
                c = calls[0]
                if c.error is None:
                    checks.value(c, c.value[0] == 0, "verify --suite all reported a failed property")
            else:
                c = calls[0]
                if c.error is None:
                    ok, detail = _check_figure(item, c.value[1], ref)
                    checks.value(c, ok, detail)

    def certified(self, outcomes, ref) -> float:
        """log10 of the largest load up to which hw_sweep's rule holds for every beta.

        Along each beta's curve, every value must stay above hw_limit and
        every decrement must exceed the two points' summed error bounds; a
        failed point ends the curve. A curve certified nowhere counts as
        half a decade below its first point.
        """
        curves = {beta: {} for beta in _VERIFY_BETAS}
        for item, calls in outcomes:
            if item[0] == "point":
                c = _find(calls, "erlang_c_real")
                curves[item[1]][item[2]] = None if c is None or c.error is not None else c.value
        reach = []
        for beta, curve in curves.items():
            limit = float(ref.limit(beta))
            best = math.log10(min(curve)) - 0.5
            prev = None
            for a in sorted(curve):
                c = curve[a]
                if c is None or not c.value - limit > 0.0:
                    break
                if prev is not None and not prev.value - c.value > prev.error_bound + c.error_bound:
                    break
                best, prev = math.log10(a), c
            reach.append(best)
        return min(reach)


def _figure_grid(lo: float, hi: float, log_x: bool) -> list[float]:
    n = _FIGURE_POINTS
    if log_x:
        r = math.log(hi / lo) / (n - 1)
        grid = [lo * math.exp(r * i) for i in range(n)]
    else:
        step = (hi - lo) / (n - 1)
        grid = [lo + step * i for i in range(n)]
    grid[-1] = hi
    return grid


def _check_figure(item, svg_text: str, ref):
    """Check an inverse-regime figure against reference values.

    Every grid row must be plotted. The polyline maps the smallest and
    largest C to the bottom and top of the plot frame, so the vertical
    pixel of any row follows from three reference values; six rows are
    checked to the 0.01 px the SVG prints.
    """
    _, beta, lo, hi, log_x = item
    ns = {"svg": "http://www.w3.org/2000/svg"}
    try:
        root = ET.fromstring(svg_text)
    except ET.ParseError as exc:
        return False, f"figure is not XML: {exc}"
    line = root.find("svg:polyline", ns)
    frames = [r for r in root.findall("svg:rect", ns) if r.get("fill") == "none"]
    if line is None or len(frames) != 1:
        return False, "figure lacks its polyline or plot frame"
    pts = [tuple(map(float, p.split(","))) for p in line.get("points").split()]
    if len(pts) != _FIGURE_POINTS:
        return False, f"figure plots {len(pts)} of {_FIGURE_POINTS} rows"
    if any(x2 <= x1 for (x1, _), (x2, _) in zip(pts, pts[1:])):
        return False, "figure x coordinates are not increasing"
    top = float(frames[0].get("y"))
    height = float(frames[0].get("height"))
    grid = _figure_grid(lo, hi, log_x)

    def c_ref(i):
        s = grid[i]
        return float(ref.delay(s, s - beta * math.sqrt(s)))

    ys = [y for _, y in pts]
    i_low, i_high = ys.index(max(ys)), ys.index(min(ys))
    c_low, c_high = c_ref(i_low), c_ref(i_high)
    rows = sorted({0, len(grid) // 3, 2 * len(grid) // 3, len(grid) - 1, i_low, i_high})
    for i in rows:
        want = top + (1.0 - (c_ref(i) - c_low) / (c_high - c_low)) * height
        if abs(ys[i] - want) > 0.01:
            return False, f"row {i} plotted at y={ys[i]}, reference puts it at {want:.4f}"
    return True, ""


_SIM_CONFIGS = ((5, 4.0), (100, 90.0), (400, 380.0))
_SIM_ARRIVALS = 20_000
_SIM_ROTATIONS = 12
# Pooled estimate must lie within this many between-replication standard
# errors of the analytic value.
_SIM_Z = 5.0


class Simulate:
    """Independent M/M/n replications rotating over three sizes.

    (400, 380) is the Halfin-Whitt point with beta = 1. Each replication
    has its own seed, derived from the workload seed and the replication's
    index, a fixed number of measured arrivals and the default warm-up;
    each request also evaluates the birth-death value it is compared with.
    """

    name = "simulate"
    setup_code = (
        "import hw_staffing; hw_staffing.simulate_mmn("
        "hw_staffing.SimConfig(n=2, lam=1.0, mu=1.0, measured_arrivals=32, seed=0))"
    )

    def __init__(self, lib, seed: int, out_dir: Path):
        self.lib = lib
        base = random.Random(seed).getrandbits(48)
        count = _SIM_ROTATIONS * len(_SIM_CONFIGS)
        self.items = [_SIM_CONFIGS[i % len(_SIM_CONFIGS)] + (base + i,) for i in range(count)]

    def run(self, item, call: Recorder):
        lib = self.lib
        n, a, rep_seed = item
        cfg = lib.SimConfig(n=n, lam=a, mu=1.0, measured_arrivals=_SIM_ARRIVALS, seed=rep_seed)
        call("simulate_mmn", a, lib.simulate_mmn, cfg)
        call("birth_death_wait_prob", a, lib.birth_death_wait_prob, n, a)

    def check(self, outcomes, ref, checks: Checks):
        pooled = {}
        for (n, a, rep_seed), calls in outcomes:
            checks.add_calls(calls)
            sim = _find(calls, "simulate_mmn")
            if sim.error is None:
                # passes repeat the same replications; pool each one once
                pooled.setdefault((n, a), {})[rep_seed] = sim
            bd = _find(calls, "birth_death_wait_prob")
            if bd.error is None:
                want = ref.delay(n, a)
                checks.value(bd, _close(bd.value, want, NOMINAL), f"birth-death {bd.value!r}")
        for (n, a), by_seed in pooled.items():
            sims = list(by_seed.values())
            estimates = [c.value.p_wait for c in sims]
            if len(estimates) < 2:
                continue
            mean = statistics.fmean(estimates)
            se = statistics.stdev(estimates) / math.sqrt(len(estimates))
            want = float(ref.delay(n, a))
            checks.value(
                sims[0],
                abs(mean - want) <= _SIM_Z * se,
                f"pooled p_wait {mean:.6g} vs {want:.6g} at n={n}: z = {(mean - want) / se:.2f}",
            )


WORKLOADS = {w.name: w for w in (Staffing, Evidence, Simulate)}
