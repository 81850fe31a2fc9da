"""Transition-kernel basics: norm decay rates, the small-lambda limit
constant, and the wrapped-Gaussian cross-check for the Brownian case.

Run as: python demos/kernel_scaling.py
"""

import math

import numpy as np

import levyheat as lh

print("squared kernel norm ~ t^(-1/alpha) as t -> 0")
ts = np.geomspace(1e-5, 1e-3, 9)
for alpha in (1.2, 1.5, 2.0):
    exp_ = lh.make_power_exponent(1.0, alpha)
    norms, errors = lh.kernel_l2_norm_sq(exp_, ts)
    fit = lh.fit_slope(ts, norms)
    print(f"  alpha={alpha:4.1f}  fitted slope {fit.slope:+.4f}"
          f"  expected {-1.0 / alpha:+.4f}  r2={fit.r2:.6f}"
          f"  certified error <= {errors.max():.1e}")

print()
print("limit constant: lam^(1/alpha) * sum_n exp(-lam n^alpha) as lam -> 0")
for alpha in (1.5, 2.0):
    vals = [lh.limit_constant_probe(alpha, lam)[0] for lam in (1e-4, 1e-6, 1e-8)]
    print(f"  alpha={alpha:4.1f}  probes {vals[0]:.6f} {vals[1]:.6f} "
          f"{vals[2]:.6f}  Gamma(1+1/alpha)={math.gamma(1.0 + 1.0 / alpha):.6f}")

print()
print("Brownian kernel: spectral synthesis vs wrapped Gaussian at t=0.05")
exp2 = lh.make_power_exponent(1.0, 2.0)
xs = 2.0 * math.pi * np.arange(64) / 64
spectral = lh.kernel_coefficients(exp2, 0.05).evaluate(xs)
wrapped = lh.wrapped_gaussian_kernel(0.05, xs)
print(f"  max abs difference: {np.max(np.abs(spectral - wrapped)):.3e}")
print(f"  peak value q_t(0): {spectral[0]:.6f}")
