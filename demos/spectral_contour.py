"""Sweep the Evans function around the right half-plane contour.

Builds the weighted-space setup for the marginal wave, shows the limiting
exponential rates that the connection-mismatch determinant interpolates
between, then winds a moderate contour and counts zeros.  Zero winding on the
full contour (the CLI default, radii 1e-3 to 1e3) is the spectral-stability
verdict; this demo uses a reduced contour to stay quick.  Run with
`python3 demos/spectral_contour.py` (takes ~2 s).
"""

import numpy as np

from branchwaves import (
    Params,
    contour_of_S,
    evans,
    evans_winding,
    limit_rates,
    make_setup,
    shoot_wave,
    winding_number,
)


def main() -> None:
    setup = make_setup(shoot_wave(2.0, Params(c=2.0, r=0.0)))
    print(f"setup: c = {setup.wave.params.c:g}, weight exponent {setup.w_exp:g}, "
          f"half-length L = {setup.L:g}")

    gamma = 4.0
    nu_minus, nu_plus = limit_rates(gamma, setup)
    print(f"limit rates at gamma = {gamma:g} (i-mode, growing, decaying):")
    print(f"  behind: {[f'{v:.3f}' for v in nu_minus]}")
    print(f"  ahead:  {[f'{v:.3f}' for v in nu_plus]}")
    print(f"mismatch determinant E({gamma:g}) = {evans(gamma, setup):.6f}")

    for g in (0.5, 2.0, 10.0 + 10.0j):
        print(f"E({g}) = {evans(g, setup):.6g}")

    contour = contour_of_S(r_min=0.05, r_max=50.0, base_n=120)
    print(f"winding a {contour.size}-node contour, radii 0.05 to 50 ...")
    sweep = evans_winding(setup, contour)
    print(f"winding number {sweep.winding}, largest argument step "
          f"{sweep.max_arg_step:.3f} rad, {sweep.diagnostics['bisections']} bisections")
    print(f"halving the march step moves the checked values by at most "
          f"{sweep.diagnostics['halving_rel_diff']:.1e} (relative)")
    print("no zeros inside: nothing in the weighted point spectrum "
          "with positive real part" if sweep.winding == 0 else
          f"found {sweep.winding} zeros enclosed")

    # sanity check the counter itself on a function with a known zero
    circle = 0.5 + np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 65))
    circle[-1] = circle[0]
    sweep = winding_number(lambda g: g, circle)
    print(f"self-test, identity map around a circle about 0.5: winding {sweep.winding}, "
          f"{sweep.gammas.size} evaluations")


if __name__ == "__main__":
    main()
