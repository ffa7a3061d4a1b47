"""The alignment solver on three canonical inputs.

Two interleaved coordinate stacks are coupled through a matrix whose two
columns must collapse to rank one; a sparse error block soaks up outliers,
a per-axis-constant block soaks up systematic offsets, and a pair of rigid
transforms is re-linearized every sweep.
"""
import numpy as np

from spotalign import SolverConfig, admm_solve

spots = np.stack([(np.arange(30) - 14.5) * 6.0, np.zeros(30)], axis=1)
cfg = SolverConfig()


def report(tag, result):
    state = result.state
    theta, s_x, s_y = state.transforms[0]
    print(f"{tag:22s} iters={result.iterations:3d} loss={result.loss:10.4f} "
          f"|E1|_1={np.abs(state.blocks[2, 0]).sum():8.3f} "
          f"theta1=({np.degrees(theta):+6.3f} deg, {s_x:+7.3f} m, {s_y:+7.3f} m)")


# 1. already aligned: the solver certifies a fixed point with zero loss
report("clean", admm_solve(spots, spots, cfg))

# 2. constant offset: recovered split between the transform and the
#    candidate-side offset block; the net correction lands back on the spots
res = admm_solve(spots + np.array([4.0, -2.0]), spots, cfg)
report("offset (4, -2) m", res)
err = np.hypot(*(res.aligned_collected().reshape(-1, 2) - spots).T)
print(f"{'':22s} net-corrected max deviation from target: {err.max():.2e} m")

# 3. planted outliers: the sparse block carves out exactly the bad points
noisy = spots.copy()
for i in (4, 13, 22):
    noisy[i] += np.array([14.1, -14.1])
res = admm_solve(noisy, spots, cfg)
report("3 outliers at 20 m", res)
e1 = res.state.blocks[2, 0].reshape(-1, 2)
support = np.nonzero(np.abs(e1).max(axis=1) > 1.0)[0]
print(f"{'':22s} outlier support found: {support.tolist()} (planted: [4, 13, 22])")
