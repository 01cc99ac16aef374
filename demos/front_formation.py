"""Grow a front from a localized bump and compare it with the shot wave.

A small active bump placed in an empty medium organizes itself into a
right-moving front.  The demo measures the front speed and the plateau left
behind from the simulation, then compares the final profile with the wave
the shooting method produces, as the `pde-ode-shape` criterion does
(`shape_misfit`).  Run with `python3 demos/front_formation.py` (takes ~2 s).
"""

import numpy as np

from branchwaves import Grid, Params, measure_speed, shape_misfit, shoot_wave, simulate

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
    active, inactive = shape_misfit(series, speed.x_front, wave)
    print(f"final profile vs shot wave on z in [-10, 10], best shift: sup-norm "
          f"misfit {100 * active:.2f}% of the peak (active), "
          f"{100 * inactive:.2f}% of the rear level (inactive)")
    print(f"inactive plateau left behind: {speed.plateau:.4f} "
          f"(the limit identity forces 2 for localized data)")


if __name__ == "__main__":
    main()
