"""Why the staffed delay curve is monotone: the auxiliary variables.

1/C(a + beta*sqrt(a), a) equals E[Y_a**beta] for Y_a = (1 + X_a)**sqrt(a),
where X_a has the density g(t, a). The family {Y_a} is stochastically
increasing in a, which is exactly the monotonicity of the delay curve.
This script evaluates every object in that chain numerically.
"""

import math

from hw_staffing import (
    cdf_x,
    check_stochastic_order,
    density_g,
    erlang_c_real,
    h,
    h_series,
    integrate_semi_infinite,
    moment_y,
    tail_y,
    tail_y_via_h,
)

# g(., a) is a probability density: it integrates to one. The quadrature
# takes the peak of t*g(t, a) in log t, where 2 + t - a*t**2 = 0, and the
# width there, 1/sqrt(t*(a - (a - 1)/(1 + t)**2)).
for a in (0.5, 1.0, 10.0, 100.0):
    peak = (1.0 + math.sqrt(1.0 + 8.0 * a)) / (2.0 * a)
    width = 1.0 / math.sqrt(peak * (a - (a - 1.0) / (1.0 + peak) ** 2))
    total = integrate_semi_infinite(
        lambda t, a=a: math.log(density_g(t, a)) if density_g(t, a) > 0 else -math.inf,
        math.log(peak),
        width,
    )
    print(f"integral of g(., a={a:5.1f}) = {total:.12f}")
print(f"closed-form CDF of X_1 at 1: {cdf_x(1.0, 1.0):.12f} (= 1 - 2/e)")

# The tails of Y_a increase with a: larger systems dominate stochastically.
print("\ntail Pr{Y_a > 2}:")
for a in (1.0, 4.0, 16.0, 64.0):
    print(f"  a = {a:4.0f}: {tail_y(2.0, a):.10f}")

report = check_stochastic_order(1.0, 4.0, [1.0 + 0.25 * k for k in range(1, 40)])
print(f"dominance Y_1 <= Y_4 over 39 tail points: passed = {report.passed}")

# The tail can be rewritten through h(x) = x + x**2 (1 - e**(1/x)), whose
# monotonicity (it is a series of increasing terms, bounded by -1/2)
# carries the whole ordering argument.
y, a = 3.0, 7.0
print(f"\ntail_y({y}, {a})        = {tail_y(y, a):.15f}")
print(f"tail_y_via_h({y}, {a})  = {tail_y_via_h(y, a):.15f}")
print(f"h(1) = {h(1.0):.15f} (= 2 - e)")
print(f"h closed form vs series at x=5: {abs(h(5.0) - h_series(5.0, 30)):.2e}")

# Closing the loop: the reciprocal moment IS the delay probability.
a, beta = 25.0, 1.5
s = a + beta * math.sqrt(a)
print(f"\n1/E[Y_a**beta] = {1.0 / moment_y(a, beta):.12f}")
print(f"C(a+beta*sqrt(a), a) = {erlang_c_real(s, a).value:.12f}")
