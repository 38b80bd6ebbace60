"""Global existence below the critical mass, finite-time blow-up above.

Scaling the steady profile to mass M flips the sign of the free energy
at the critical mass: the entropy part grows like (M/M_c)^m, the
interaction part like (M/M_c)^2, and m < 2.  Negative energy drives the
second moment to zero linearly in time (the virial identity), which
forces the L^m norm to diverge; positive energy caps the L^m norm for
all time.  This script runs both sides on a 256-cell grid and checks
the quantitative envelopes along the way.
"""

import aggdiff as ad

params = ad.ModelParams(d=3, s=1.25)
grid = ad.RadialGrid.uniform(256, 4.0)
kernel = ad.build_kernel(grid, params.s)
M_c, steady = ad.find_critical_mass(grid, kernel, params, support_radius_init=1.0)
print(f"measured critical mass: {M_c:.4f}\n")

for ratio in (0.5, 0.9, 1.5, 2.0):
    # dichotomy_run sets each side's time stepping and horizon: implicit over
    # several diffusive times below M_c, explicit to twice the chord time above
    entry, out = ad.dichotomy_run(steady.U, ratio, M_c, kernel, params,
                                  ad.SolverConfig(t_end=1.0, output_every=500))
    side = "subcritical" if ratio < 1 else "supercritical"
    print(f"mass ratio {ratio:.1f} ({side}): F(u0) = {entry['F0']:+.2f}")
    if ratio < 1:
        print(f"  ran to t = {entry['t_end']:.3f}: {entry['status']}; "
              f"sup ||u||_m^m = {entry['sup_lm_norm_power_m']:.1f} "
              f"vs energy bound {entry['ge_bound_lm_power_m']:.1f}")
    else:
        print(f"  second-moment chord hits zero by "
              f"t = {entry['blowup_time_upper_bound']:.4f}; "
              f"detected {entry['status']} ({out.reason}) "
              f"at t = {entry['t_detect']:.4f}")
    print()
