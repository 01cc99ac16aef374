"""Exercise the closed-form machinery: triangles, attractor, rescaling.

Three short numeric experiments, no integration of the full wave needed for
the first and last:

1. invariant triangles in the (a, b) phase plane trap trajectories and nest
   as the inactive level rises;
2. the front inactive limit is an explicit function of any interior starting
   point on the wave's maximum section;
3. predictions transfer to general (unnormalized) rate constants through the
   scaling map, both directions.

Run with `python3 demos/closed_forms.py`.
"""

import numpy as np

from branchwaves import (
    GeneralParams,
    Params,
    a_star,
    general_wave_predictions,
    i_plus_infinity,
    minimal_inactive_limit,
    normalize,
    shoot_from_max,
    triangle,
    triangle_contains,
)


def triangles() -> None:
    c = 2.0
    print(f"invariant triangles at c = {c:g} (apex below the a-axis):")
    levels = np.array([0.2, 0.5, 0.8])
    t = triangle(levels, c)  # one call, one triangle per level
    for i, (a, b), gl, gr in zip(levels, t.apex, t.gamma_l, t.gamma_r):
        print(f"  i = {i:g}: apex ({a:.4f}, {b:.4f}), angles {gl:.4f} / {gr:.4f}")
    outer, inner = triangle(0.2, c), triangle(0.8, c)
    nested = triangle_contains(outer, [inner.v0, inner.v1, inner.apex], tol=1e-9).all()
    print(f"  triangle at i = 0.8 sits inside the one at i = 0.2: {nested}")


def attractor() -> None:
    params = Params(c=2.0, r=0.0)
    i0 = 0.5
    a0 = 0.6 * a_star(i0, params.c, params.r)
    predicted = i_plus_infinity(a0, i0, params.c, params.r)
    traj, _ = shoot_from_max(a0, i0, params)
    measured = traj.states[-1, 2]
    print(f"start at the maximum section (a, i) = ({a0:.4f}, {i0:g}):")
    print(f"  predicted front inactive limit {predicted:.8f}, "
          f"integrated {measured:.8f}, "
          f"difference {abs(predicted - measured):.2e}")


def rescaling() -> None:
    g = GeneralParams(r_S=2.0, r_A=4.0, r_I=2.0, D=1.0)
    c = 2.0
    pred = general_wave_predictions(g, c)
    print(f"general rates rS=2, rA=4, rI=2, D=1 at speed c = {c:g}:")
    print(f"  normalized speed {pred.c_normalized:g}, "
          f"minimal inactive level {pred.i_c:g}, limit sum {pred.limit_sum:g}")
    _, scaling = normalize(g)
    direct = pred.i_c
    mapped = minimal_inactive_limit(pred.c_normalized) / scaling.density_factor
    print(f"  threshold via scaling map: {mapped:g} (direct: {direct:g}, "
          f"match: {np.isclose(direct, mapped)})")


if __name__ == "__main__":
    triangles()
    print()
    attractor()
    print()
    rescaling()
