"""Grow a front from a localized bump and compare it with the shot wave.

A small active bump placed in an empty medium organizes itself into a
right-moving front.  The demo measures the front speed and the plateau left
behind from the simulation, then compares the final profile with the wave
the shooting method produces, as the `pde-ode-shape` criterion does
(`shape_misfit`).  It makes the reference front run declared in
`branchwaves.pde`, at r = 0.  Run with `python3 demos/front_formation.py`
(takes ~0.6 s).
"""

from branchwaves import Params, measure_speed, shape_misfit, shoot_wave, simulate
from branchwaves.pde import FRONT_LEVEL, GRID, T_END, bump


def main() -> None:
    print(f"simulating to t = {T_END:g} ...")
    series = simulate(*bump(GRID), 0.0, GRID, T_END)
    speed = measure_speed(series, FRONT_LEVEL)
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
