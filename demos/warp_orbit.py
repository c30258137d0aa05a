"""One closed orbit of the warp profile equation F'' = F^(1/5) - F.

Starting at the orbit minimum F(0) = 0.1 the profile swings up to
about 1.83 and back over one period. The smallest Ricci eigenvalue
dips to about -8.5 at the bottom of the swing even though the scalar
curvature stays pinned at 16/5: warped metrics buy constant scalar
curvature at the price of wildly negative directions.
"""

import numpy as np

import diracbound as db

if __name__ == "__main__":
    traj = db.integrate_warp(0.1)
    track = db.curvature_track(traj)
    ext = db.warp_extremals(traj.f0)

    print(f"period            {traj.period:.6f}")
    print(f"energy            {traj.energy:.6f} "
          f"(drift {db.energy_drift(traj):.2e})")
    print(f"F range           [{traj.F.min():.6f}, {traj.F.max():.6f}]")
    print(f"kappa0            {ext.kappa0:.6f}")
    print(f"min |Ric|^2       {ext.ric_norm_sq_min:.6f}")
    print(f"scalar (check)    "
          f"{np.max(np.abs(track.kappa1 + 4 * track.kappa2)):.12f}")
    print()

    # coarse sketch of the swing: F and kappa1 over one period
    cols = 9
    idx = np.linspace(0, len(traj.tau) - 1, cols).astype(int)
    print("tau    " + " ".join(f"{traj.tau[i]:7.3f}" for i in idx))
    print("F      " + " ".join(f"{traj.F[i]:7.3f}" for i in idx))
    print("kappa1 " + " ".join(f"{track.kappa1[i]:7.3f}" for i in idx))
