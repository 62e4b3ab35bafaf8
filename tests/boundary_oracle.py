"""Per-chart reference for the atlas-wide boundary bisection.

The build once found each chart's boundary images by bisecting that chart's
rays alone, one chart after another; this function keeps that loop as the
oracle ``manifold.chart_boundary_data`` is compared against.
"""

import math

import numpy as np

from sobolev_forge.manifold import ChartError, _row_norms


def chart_boundary_oracle(atlas, i, Delta, n_dirs=32):
    """(z_outer, band_width) of chart i, its chart-coordinate rays z = 1/2 +
    t u bisected by themselves over t in [0, 1/2]."""
    m = atlas.manifold
    d = m.intrinsic_dim
    if d == 1:
        dirs = np.array([[1.0], [-1.0]])
    elif d == 2:
        angles = np.linspace(0.0, 2.0 * math.pi, n_dirs, endpoint=False)
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    else:
        raise ChartError(f"no boundary rays for intrinsic dimension {d}")
    rays = np.concatenate([dirs, dirs])
    C = np.repeat(atlas.centers[i : i + 1], len(rays), axis=0)
    V = np.repeat(atlas.frames[i : i + 1], len(rays), axis=0)
    target = np.repeat([atlas.r, math.sqrt(max(atlas.r**2 - Delta, 0.0))], len(dirs))

    def outside(T):
        X, ok = m.chart_solver(atlas.shift + T[:, None] * rays, C, V, atlas.scale, atlas.shift)
        return ~ok | (_row_norms(X - C) > target)

    t_lo, t_hi = np.zeros(len(rays)), np.full(len(rays), 0.5)
    for _ in range(60):
        mid = 0.5 * (t_lo + t_hi)
        above = outside(mid)
        t_hi = np.where(above, mid, t_hi)
        t_lo = np.where(above, t_lo, mid)
    Zb = atlas.shift + (0.5 * (t_lo + t_hi))[:, None] * rays
    z_outer, z_inner = Zb[: len(dirs)], Zb[len(dirs) :]
    return z_outer, float(np.max(np.abs(z_outer - z_inner)))
