"""Closed-form constants and the measured interaction ratio.

The model couples porous-medium diffusion to Riesz attraction at
m = 2 - 2s/d, where mass alone decides between global spreading and
collapse.  The threshold mass is built from the optimal constant of the
mass-weighted interaction inequality

    omega(u) <= C ||u||_1^{2s/d} ||u||_m^m.

A closed-form candidate for C exists, but it comes from chaining the
sharp bilinear inequality with an interpolation step that no single
profile saturates, so it can only be an upper bound.  This script
evaluates the closed forms and then measures the actual extremal ratio
two independent ways: stochastic ascent over random profiles, and the
ratio of the steady profile located by the critical-mass search.
"""

import aggdiff as ad

params = ad.ModelParams(d=3, s=1.25)
consts = ad.derived_constants(params)

print("working point: d=3, s=1.25  ->  m = 7/6, alpha = 1/2")
print(f"Riesz normalisation     c_ds    = {consts.c_ds:.10f}")
print(f"sharp bilinear constant C_hls   = {consts.C_hls:.10f}")
print(f"closed-form upper bound C_up    = {consts.C_star_upper:.10f}")
print(f"critical mass from C_up M*(C_up)= {consts.M_star:.6f}")
print()

grid = ad.RadialGrid.uniform(256, 4.0)
kernel = ad.build_kernel(grid, params.s)

print("measuring the extremal ratio by stochastic ascent (6 starts) ...")
climbed = ad.maximize_vhls(grid, kernel, params, n_starts=6, seed=7)
# The ascent stops at its move budget, and a 1-ulp change in the kernel
# moves its fifth decimal, so only four are printed.
print(f"  ratio from random starts:        {climbed.J_value:.4f}")

print("measuring it again via the critical-mass search ...")
M_c, steady = ad.find_critical_mass(grid, kernel, params, support_radius_init=1.0)
print(f"  steady-profile ratio:            {steady.J_value:.6f}")
larger = "random starts" if climbed.J_value > steady.J_value else "steady profile"
print("  both are lower bounds of this grid's supremum of the ratio;")
print(f"  the larger one comes from the {larger}")
print(f"  measured critical mass:          {M_c:.4f}"
      f"  ({M_c / consts.M_star:.4f} x the closed-form mass)")
print()
gap = 1.0 - steady.J_value / consts.C_star_upper
print(f"the measured ratio sits {100 * gap:.2f}% below the closed-form bound:")
print("the bound is strict, and the operational critical mass is the")
print("measured one; the package reports both throughout.")
