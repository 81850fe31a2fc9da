"""Constant-sigma sanity run: the solution at a fixed point is centered
Gaussian with variance given by the time-quadrature of the squared kernel
norm.  Compares the ensemble against that target and against a refined grid.

Run as: python demos/additive_gaussian_law.py
"""

import math

import numpy as np

import levyheat as lh

exp2 = lh.make_power_exponent(1.0, 2.0)


def ensemble_variance(m, k, horizon, replicas, seed=11):
    grid = lh.GridSpec(m_space=m, k_time=k, horizon=horizon)
    u0 = lh.field_from_function(lambda x: 0.0 * x, m)
    cfg = lh.RunConfig(grid=grid, exponent=exp2, sigma=lh.get_sigma("one"),
                       u0=u0, seed=seed, replicas=replicas)
    sset = lh.run_ensemble(cfg)
    return sset, lh.walsh_variance(exp2, grid)


print("additive ensemble at T=0.1, 64x128 grid, 4000 replicas")
sset, target = ensemble_variance(128, 64, 0.1, 4000)
var = sset.variance()
print(f"  sample mean     {sset.mean():+.5f}  (se {sset.stderr():.5f})")
print(f"  sample variance {var:.6f}")
print(f"  quadrature      {target:.6f}  (rel diff {abs(var - target) / target:.3%})")
print(f"  continuum       {lh.kernel_l2_time_integral(exp2, 0.1):.6f}"
      "   (scheme quadrature sits below it; the gap shrinks like sqrt(dt))")

print()
print("time-step refinement of the scheme variance")
for k in (16, 32, 64, 128):
    grid = lh.GridSpec(m_space=128, k_time=k, horizon=0.1)
    print(f"  k_time={k:4d}  exact scheme variance "
          f"{lh.additive_variance_exact(exp2, grid):.6f}")

print()
print("density of the ensemble values against the matching normal")
dens = lh.kde(sset.values)
sd = math.sqrt(target)
grid_pdf = np.exp(-0.5 * (dens.points / sd) ** 2) / (sd * math.sqrt(2 * math.pi))
print(f"  kde bandwidth {dens.bandwidth:.5f}  integral {dens.integral():.6f}")
print(f"  max |kde - normal pdf| = {np.max(np.abs(dens.density - grid_pdf)):.4f}"
      f"  at peak height {np.max(grid_pdf):.4f}")
