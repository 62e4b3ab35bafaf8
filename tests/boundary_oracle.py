"""Per-chart reference for the atlas-wide boundary bisection.

The build once found each chart's boundary images by bisecting that chart's
rays alone, one chart after another; this function keeps that loop as the
oracle ``manifold.chart_boundary_data`` is compared against.
"""

import math

import numpy as np

from sobolev_forge.manifold import ChartError, _row_norms


def chart_boundary_oracle(atlas, i, Delta, n_dirs=32):
    """(z_outer, band_width) of chart i, its rays bisected by themselves."""
    m = atlas.manifold
    center, r = atlas.centers[i], atlas.r
    d = m.intrinsic_dim
    if d == 1:
        dirs = np.array([[1.0], [-1.0]])
    elif d == 2:
        angles = np.linspace(0.0, 2.0 * math.pi, n_dirs, endpoint=False)
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    else:
        raise ChartError(f"no boundary rays for intrinsic dimension {d}")
    u0 = m.param_of_point(center)
    rays = np.concatenate([dirs, dirs])
    target = np.repeat([r, math.sqrt(max(r * r - Delta, 0.0))], len(dirs))

    def g(T):
        return _row_norms(m.embed(u0 + T[:, None] * rays) - center) - target

    t_hi = np.full(len(rays), 1e-3)
    for _ in range(60):
        short = ~(g(t_hi) > 0)
        if not short.any():
            break
        t_hi = np.where(short, t_hi * 1.7, t_hi)
    else:
        raise ChartError("no boundary bracket along direction")
    t_lo = np.zeros(len(rays))
    for _ in range(80):
        mid = 0.5 * (t_lo + t_hi)
        above = g(mid) > 0
        t_hi = np.where(above, mid, t_hi)
        t_lo = np.where(above, t_lo, mid)
    Zb = atlas.project(np.full(len(rays), i), m.embed(u0 + (0.5 * (t_lo + t_hi))[:, None] * rays))
    z_outer, z_inner = Zb[: len(dirs)], Zb[len(dirs) :]
    return z_outer, float(np.max(np.abs(z_outer - z_inner)))
