"""Fixed-point iteration diagnostics: successive iterates of the mild-form
map, measured in the exponentially weighted norm.  Heavier weights make the
map a contraction; the ratios show the contraction factor directly.  The
Laplace mass int_0^inf e^(-beta s) ||q_s||^2 ds, which controls that factor
together with the Lipschitz constant of sigma, shrinks as the weight grows.

Run as: python demos/picard_run.py
"""

import numpy as np

import levyheat as lh

exp2 = lh.make_power_exponent(1.0, 2.0)
grid = lh.GridSpec(m_space=16, k_time=16, horizon=0.5)
cfg = lh.RunConfig(grid=grid, exponent=exp2, sigma=lh.get_sigma("shifted_sine"),
                   u0=lh.field_from_function(lambda x: 0.0 * x, 16),
                   seed=3, replicas=256)

for beta_param in (4.0, 16.0, 64.0):
    rep = lh.picard_sequence(cfg, n_max=5, beta_param=beta_param)
    laplace, _ = lh.kernel_l2_laplace(exp2, beta_param)
    print(f"weight beta={beta_param:5.1f}  laplace mass {laplace:.4f}  "
          f"contracting={rep.contracting}")
    for n, (d, r) in enumerate(zip(rep.norms, rep.ratios)):
        print(f"  n={n}  |v{n + 1} - v{n}| = {d:.3e}   ratio to next: {r:.4f}")
    print(f"  n={len(rep.norms) - 1}  |v{len(rep.norms)} - "
          f"v{len(rep.norms) - 1}| = {rep.norms[-1]:.3e}")
    print()

print("with k time steps the iteration settles exactly after k sweeps:")
small = lh.RunConfig(grid=lh.GridSpec(m_space=16, k_time=4, horizon=0.2),
                     exponent=exp2, sigma=lh.get_sigma("shifted_sine"),
                     u0=cfg.u0, seed=3, replicas=64)
rep = lh.picard_sequence(small, n_max=6, beta_param=8.0)
print("  diffs:", np.array2string(rep.norms, formatter={"float": "{:.2e}".format}))
