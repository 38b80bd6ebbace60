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
consts = ad.derived_constants(params)
grid = ad.RadialGrid.uniform(256, 4.0)
kernel = ad.build_kernel(grid, params.s)
M_c, steady = ad.find_critical_mass(grid, kernel, params, consts.M_star,
                                    1.08 * consts.M_star,
                                    support_radius_init=1.0)
print(f"measured critical mass: {M_c:.4f}\n")
two_s_over_d = 2 * params.s / params.d

for ratio in (0.5, 0.9, 1.5, 2.0):
    M = ratio * M_c
    u0 = ad.blowup_initial_data(steady.U, M, params)
    F0 = ad.free_energy(u0, kernel, params)
    side = "subcritical" if ratio < 1 else "supercritical"
    print(f"mass ratio {ratio:.1f} ({side}): F(u0) = {F0:+.2f}")
    if ratio < 1:
        # the long subcritical horizon runs implicitly: explicit steps would be
        # limited by nonlinear diffusion, their count growing as (R/dr)^2
        t_end = 5.0 * ad.diffusive_time(u0, params)
        out = ad.run(u0, kernel, params,
                     ad.SolverConfig(t_end=t_end, output_every=500, scheme="implicit"))
        sup_lm = max(r.lm_norm ** params.m for r in out.diagnostics)
        bound = F0 / (consts.C_star_upper * consts.c_ds / 2
                      * (consts.M_star ** two_s_over_d - M ** two_s_over_d))
        print(f"  ran to t = {t_end:.3f}: {out.status}; "
              f"sup ||u||_m^m = {sup_lm:.1f} vs energy bound {bound:.1f}")
    else:
        chord = ad.blowup_time_upper_bound(u0, kernel, params)
        out = ad.run(u0, kernel, params,
                     ad.SolverConfig(t_end=2 * chord, blowup_factor=1e3,
                                     output_every=100))
        print(f"  second-moment chord hits zero by t = {chord:.4f}; "
              f"detected {out.status} ({out.reason}) at t = {out.t_detect:.4f}")
    print()
