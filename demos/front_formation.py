"""Grow a front from a localized bump and compare it with the shot wave.

A small active bump placed in an empty medium organizes itself into a
right-moving front.  The demo measures the front speed from the simulation,
then overlays the late-time comoving profile on the wave the shooting method
produces, aligning the two at their maxima.  Run with
`python3 demos/front_formation.py` (takes ~2 s).
"""

import numpy as np

from branchwaves import (
    Grid,
    Params,
    comoving_profile,
    front_position,
    measure_speed,
    plateau,
    shoot_wave,
    simulate,
)

THRESHOLD = 0.1


def main() -> None:
    grid = Grid(-30.0, 120.0, 2001)
    xs = grid.xs()
    A0 = 0.5 * np.exp(-(xs**2))
    I0 = np.zeros_like(xs)

    print("simulating to t = 30 ...")
    series = simulate(A0, I0, 0.0, grid, t_end=30.0)
    speed = measure_speed(series, THRESHOLD, window=(15.0, 30.0))
    print(f"front speed from the last half of the run: {speed.c_est:.4f} "
          f"(fit residual {speed.residual:.2e});"
          f" the selected speed for localized data is 2")

    wave = shoot_wave(2.0, Params(c=2.0, r=0.0))
    moving = comoving_profile(series, t=30.0, c_est=speed.c_est, anchor=THRESHOLD)

    # align the maxima, then measure the worst pointwise mismatch of the
    # active component relative to its peak
    z_wave = wave.trajectory.zs
    a_wave = wave.trajectory.states[:, 0]
    shift = moving.z[np.argmax(moving.a)]
    zq = moving.z - shift
    inside = (zq >= z_wave[0]) & (zq <= z_wave[-1])
    a_ode = np.interp(zq[inside], z_wave, a_wave)
    misfit = np.max(np.abs(moving.a[inside] - a_ode)) / wave.a_max
    print(f"comoving profile vs shot wave, active component: "
          f"sup-norm misfit {100 * misfit:.2f}% of the peak")

    A_end, I_end = series.at(30.0)
    x_front = front_position(A_end, grid, THRESHOLD)
    print(f"inactive plateau left behind: {plateau(I_end, grid, x_front):.4f} "
          f"(the limit identity forces 2 for localized data)")


if __name__ == "__main__":
    main()
