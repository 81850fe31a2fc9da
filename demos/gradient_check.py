"""Pathwise noise-gradient check: propagate the derivative of the solution
with respect to a single noise cell and compare against central finite
differences of a bumped-noise rerun.

Run as: python demos/gradient_check.py
"""

import math
from dataclasses import replace

import numpy as np

import levyheat as lh

exp2 = lh.make_power_exponent(1.0, 2.0)
grid = lh.GridSpec(m_space=16, k_time=16, horizon=0.25)
cfg = lh.RunConfig(grid=grid, exponent=exp2, sigma=lh.get_sigma("shifted_sine"),
                   u0=lh.field_from_function(np.sin, 16), seed=12, replicas=4)
xi = lh.sample_noise(grid, cfg.seed, 1)
path = lh.solve_path(cfg, 1)

print("derivative wrt noise cell (k,i), probed at (t,x); sigma(u)=2+sin(u)")
print(f"{'source':>8} {'probe':>16} {'propagated':>14} {'bumped':>14} {'rel':>9}")
for src in ((2, 3), (5, 0), (9, 11)):
    for probe in ((0.25, 0.0), (0.1875, math.pi)):
        probed = replace(cfg, probe=probe)
        _, i_p = probed.probe_cell
        d = lh.propagate_derivative(probed, path, xi, src)
        orc = lh.noise_gradient_oracle(probed, 1, src)
        rel = abs(d[i_p] - orc.value) / abs(orc.value)
        print(f"  {src!s:>7} ({probe[0]:.4f},{probe[1]:4.2f})"
              f" {d[i_p]:14.6e} {orc.value:14.6e} {rel:9.2e}")

print()
print("adaptedness: a source acting after the probe time contributes nothing")
early_cfg = replace(cfg, probe=(0.125, 0.0))  # probe step 8
early = lh.propagate_derivative(early_cfg, path, xi, (9, 11))
orc = lh.noise_gradient_oracle(early_cfg, 1, (9, 11))
print(f"  propagated max |D| = {np.max(np.abs(early)):.1f}"
      f"   bumped-run difference = {orc.value:.1f}")

print()
print("derivative mass at the probe vs the constant-sigma closed form")
cfg1 = replace(cfg, sigma=lh.get_sigma("one"))
path1 = lh.solve_path(cfg1, 1)
# one reverse sweep gives the gradient of u(t, x) in every noise cell
rows = lh.adjoint_gradient(cfg, path[None], xi[None])
rows1 = lh.adjoint_gradient(cfg1, path1[None], xi[None])
mass, _ = lh.hnorm_sq(rows, grid)
mass1, _ = lh.hnorm_sq(rows1, grid)
print(f"  nonlinear sigma: {mass[0]:.6f}")
print(f"  sigma == 1:      {mass1[0]:.6f}"
      f"  (geometric sum {lh.additive_variance_exact(exp2, grid):.6f})")
