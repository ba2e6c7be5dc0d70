"""How much does each noise op decorrelate a correlated layer?

Co-adaptation is the off-diagonal L1 mass of the covariance over its
trace.  Dropout with keep rate p scales it by p; the strength-matched
rotation noise scales it by p - (1-p)/(D-1), because its noise for one
coordinate is sourced from the others and carries a negative conditional
cross-covariance (inhibition).
"""

import numpy as np

from rotnoise import (
    CovStats,
    GaussianSource,
    RotationOut,
    coadaptation,
    equicorrelated,
    gaussian_tangent,
    reduction_factor,
    verify_reduction,
)

rng = np.random.default_rng(0)
dim, rho, keep = 8, 0.5, 0.8

source = GaussianSource(equicorrelated(dim, rho))
stats = CovStats(mean=np.zeros(dim), cov=source.cov)
print(f"equicorrelated source: D={dim}, rho={rho}, co-adaptation={coadaptation(stats):.4f}")

for method in ("dropout", "rotation"):
    predicted = reduction_factor(method, keep, dim)
    report = verify_reduction(source, method, keep, 400_000, rng)
    print(
        f"{method:9s} predicted factor {predicted:.4f}"
        f"  observed {report.observed_factor:.4f} +- {report.stderr:.4f}"
    )

# the extra reduction comes from the conditional cross-covariance of the
# rotation noise: for a correlated pair it is negative, proportional to
# the pair's covariance
lam = (1 - keep) / keep
x = source.sample(400_000, rng)
op = RotationOut(gaussian_tangent(np.sqrt(lam)))
delta = op(x, rng) - x
cross = delta.T @ delta / x.shape[0]
print("\nconditional cross-covariance, pair (0, 1):")
print(f"  observed {cross[0, 1]:+.5f}")
print(f"  predicted {-lam / (dim - 1) * source.cov[0, 1]:+.5f}   (inhibition)")

# independent elementwise noise has no such term, so its reduction relies
# on inflating the diagonal only
print(f"\nrotation reduces co-adaptation below dropout for every finite D:")
for d in (4, 8, 32, 128):
    print(f"  D={d:4d}  dropout {reduction_factor('dropout', keep, d):.4f}"
          f"  rotation {reduction_factor('rotation', keep, d):.4f}")
