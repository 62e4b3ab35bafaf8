"""Bisection reference for the closed-form chart boundary.

The build once found each chart's boundary images by bisecting its
chart-coordinate rays through the kit's solver; this function keeps that
bisection, for every chart of an atlas, as the oracle the closed form of
``manifold.chart_boundary_data`` is compared against.  A ray's halvings
depend on that ray alone, so the rays of all charts are bisected together
and each chart's points are those of its rays bisected by themselves.
"""

import math

import numpy as np

from sobolev_forge.manifold import _row_norms


def chart_boundary_oracle(atlas, Delta, n_dirs=32):
    """(z_outer, band) of every chart: the (charts, rays, d) boundary images
    and the (charts,) band widths, each chart's rays z = 1/2 + t u bisected
    over t in [0, 1/2] for 60 passes.  The bracket holds for every ray: at
    t = 1/2, |x - c| >= |V^T (x - c)| = r, and a row outside the solver's
    domain counts as outside the ball."""
    m, charts = atlas.manifold, atlas.chart_count
    d = m.intrinsic_dim
    angles = np.linspace(0.0, 2.0 * math.pi, 2 if d == 1 else n_dirs, endpoint=False)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)[:, :d]  # d = 1: +1 and -1
    # per chart two rays per direction: the outer boundary d = r and the inner
    # edge of the transition band d = sqrt(r^2 - Delta)
    rays = np.tile(np.concatenate([dirs, dirs]), (charts, 1))
    owner = np.repeat(np.arange(charts), 2 * len(dirs))
    C, V = atlas.centers[owner], atlas.frames[owner]
    target = np.tile(np.repeat([atlas.r, math.sqrt(max(atlas.r**2 - Delta, 0.0))], len(dirs)), charts)

    def outside(T):
        X, ok = m.chart_solver(atlas.shift + T[:, None] * rays, C, V, atlas.scale, atlas.shift)
        return ~ok | (_row_norms(X - C) > target)

    t_lo, t_hi = np.zeros(len(rays)), np.full(len(rays), 0.5)
    for _ in range(60):
        mid = 0.5 * (t_lo + t_hi)
        above = outside(mid)
        t_hi = np.where(above, mid, t_hi)
        t_lo = np.where(above, t_lo, mid)
    Zb = (atlas.shift + (0.5 * (t_lo + t_hi))[:, None] * rays).reshape(charts, 2 * len(dirs), d)
    z_outer, z_inner = Zb[:, : len(dirs)], Zb[:, len(dirs) :]
    return z_outer, np.max(np.abs(z_outer - z_inner), axis=(1, 2))
