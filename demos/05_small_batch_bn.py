"""Why small-batch normalization misbehaves, and two repairs.

Normalizing with batch statistics couples every element to its
batchmates.  The train-mode output of a value x is a random variable
whose conditional mean bends away from the test-mode (z-score) output as
|x| grows, while its overall variance stays exactly 1.  Both effects are
invisible at large batches and pronounced at B = 8.

Repairs demonstrated: an odd-polynomial correction of the test-mode
output, and cross-normalization (leave-one-out statistics), whose
expectation is exactly affine in the input.
"""

import numpy as np

from rotnoise import (
    cross_normalize,
    evaluate_odd_poly,
    fit_poly_correction,
    mc_nonlinearity_curve,
    noise_budget,
    standardized_sampler,
)

rng = np.random.default_rng(0)
B = 8

# the bent expectation curve: E[train output | x] vs the z-score of x
grid = np.arange(-3.0, 3.0 + 1e-9, 0.5)
curve = mc_nonlinearity_curve("gaussian", B, rng, grid=grid, n_mc=100_000)
print("z-score   E[train out]   Var[train out]")
for t, fe, fv in zip(curve.x_test, curve.f_expect, curve.f_var):
    print(f"{t:7.2f} {fe:12.4f} {fv:14.4f}")

# an odd degree-7 polynomial fitted on a wider window straightens it out
fit = fit_poly_correction(mc_nonlinearity_curve("gaussian", B, rng, n_mc=200_000))
a1, a3, a5, a7 = fit.coeffs
print(f"\npolynomial correction: a1={a1:.4f} a3={a3:.2e} "
      f"a5={a5:.2e} a7={a7:.2e} (rmse {fit.rmse:.1e})")
corrected = evaluate_odd_poly(fit.coeffs, curve.x_test)
raw_gap = np.abs(curve.x_test - curve.f_expect).max()
new_gap = np.abs(corrected - curve.f_expect).max()
print(f"max |test-mode - expectation| drops from {raw_gap:.3f} to {new_gap:.3f}")

# the noise a unit sees from its batchmates, integrated over the data
for b in (4, 8, 16, 32):
    budget, err = noise_budget(b, "gaussian", rng, n_outer=1500, n_inner=1000)
    print(f"B={b:2d}  integrated conditional variance = {budget:.3f} +- {err:.3f}")
print("(comparable to mild dropout for B >= 8, which networks tolerate)")

# five very different sources share almost the same expectation curve
curves = {}
for dist in ("gaussian", "uniform", "uniform-square", "uniform-cube", "laplace"):
    curves[dist] = mc_nonlinearity_curve(dist, B, rng, grid=grid, n_mc=50_000).f_expect
gap = max(
    np.abs(curves[a] - curves[b]).max()
    for i, a in enumerate(curves)
    for b in list(curves)[i + 1:]
)
print(f"\nmax pairwise gap between the five distribution curves: {gap:.3f}")

# cross-normalization: the leave-one-out normalizer is independent of the
# element, so the expected output is exactly affine in the held value
draw = standardized_sampler("gaussian")
print("\nheld x   E[cross-normalized output]")
for x1 in (-2.0, -1.0, 0.0, 1.0, 2.0):
    batch = draw((B, 50_000), rng)
    batch[0, :] = x1
    out = cross_normalize(batch, np.ones(1), np.zeros(1), eps=0.0)
    print(f"{x1:6.2f}   {out[0].mean():+.4f}")
