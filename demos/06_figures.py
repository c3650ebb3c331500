"""The server-parametrized regime and its figures.

Writing the load as a function of the servers, a(n) = n - beta*sqrt(n)
(valid for n > beta**2), gives a second route into the same heavy-traffic
regime -- but C(s, a(s)) is NOT known to be monotone, and for small beta it
visibly is not. This script emits the two illustrative curves as
standalone SVG files; the CLI equivalent is shown at the end.
"""

from hw_staffing import default_load_grid, hw_limit, inverse_sweep
from hw_staffing.svg import polyline_chart


def emit(beta, s_lo, s_hi, points, log_x, path):
    sweep = inverse_sweep(beta, default_load_grid(s_lo, s_hi, points, log_x))
    rows = [r for r in sweep.rows if r.c_value is not None]
    chart = polyline_chart(
        [r.s for r in rows],
        [r.c_value for r in rows],
        title=f"C(s, s - beta*sqrt(s)), beta = {beta:g}",
        x_label="servers s",
        y_label="delay probability C",
        log_x=log_x,
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(chart)
    values = [r.c_value for r in rows]
    rises = sum(1 for u, v in zip(values, values[1:]) if v > u)
    falls = sum(1 for u, v in zip(values, values[1:]) if v < u)
    print(
        f"{path}: {len(rows)} points, {rises} rising / {falls} falling steps, "
        f"range [{min(values):.6f}, {max(values):.6f}], limit {hw_limit(beta):.6f}"
    )


# Small slack: the curve descends toward its limit from above...
emit(0.1, 0.02, 50.0, 200, True, "inverse_beta_0.1.svg")

# ...while at large slack it climbs toward its limit from below. Unlike the
# load-parametrized regime there is no one monotonicity story here, and
# none is asserted.
emit(3.0, 9.5, 500.0, 200, False, "inverse_beta_3.svg")

print("\nsame figures via the CLI:")
print("  hw-staffing sweep --regime inverse --beta 0.1 --from 0.02 --to 50"
      " --points 200 --log-x --format svg --out left.svg")
print("  hw-staffing sweep --regime inverse --beta 3 --from 9.5 --to 500"
      " --points 200 --format svg --out right.svg")
