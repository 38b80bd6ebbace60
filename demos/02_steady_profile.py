"""The compactly supported steady profile and its defining identities.

On its support the steady state balances the nonlinear pressure against
the self-generated potential:

    m/(m-1) U^{m-1} = phi_U + lam,   lam < 0,

which also makes the chemical potential constant there and the free
energy vanish.  The dilation u -> mu^d u(mu r) is exactly neutral at the
critical exponent, so the fixed-point solve pins the second moment of
its initial guess; this script shows the converged profile, checks the
identities, and confirms the profile does not move under the full
solver.
"""

import numpy as np

import aggdiff as ad

params = ad.ModelParams(d=3, s=1.25)
grid = ad.RadialGrid.uniform(512, 4.0)
kernel = ad.build_kernel(grid, params.s)

M_c, res = ad.find_critical_mass(grid, kernel, params, support_radius_init=1.0)
U = res.U
print(f"critical mass M_c = {M_c:.4f}, converged in {res.iterations} sweeps")
print(f"support radius {res.support_radius:.3f} (grid extends to "
      f"{grid.r_max}), peak height {ad.lp_norm(U, np.inf):.1f}")
print(f"multiplier lam = {res.lambda_bar:.4f} (negative), "
      f"steady-equation residual {res.el_residual:.2e}")

# chemical potential is flat across the support
mu = ad.chemical_potential(U, kernel, params)
core = U.values > 1e-3 * U.values.max()
print(f"chemical potential spread over the support: "
      f"{np.ptp(mu[core]):.2e} against |lam| = {abs(res.lambda_bar):.2f}")

# free energy vanishes at the steady state
F = ad.free_energy(U, kernel, params)
S = ad.lp_norm(U, params.m) ** params.m / (params.m - 1.0)
print(f"free energy F(U) = {F:.3e}  (entropy part {S:.1f}: ratio {F / S:.1e})")

# and the profile is genuinely stationary under the dynamics
tau = ad.diffusive_time(U, params)
out = ad.run(U, kernel, params, ad.SolverConfig(t_end=tau, output_every=5000))
drift = float(np.dot(np.abs(out.final_state.u.values - U.values),
                     grid.shell_volumes)) / M_c
print(f"relative L1 drift over one diffusive time ({tau:.3f}): {drift:.2e}")

ad.write_field_csv(U, "steady_profile.csv")
print("profile written to steady_profile.csv (r_center,volume,value,r_outer)")
