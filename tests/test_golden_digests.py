"""Byte-identity of the seeded kernels against committed SHA-256 digests.

Each case runs a public kernel on small seeded inputs and hashes every
output array (dtype, shape and bytes) together with the generator's next
draw, so a change to the values, the rounding or the random stream shows.
BLAS-backed outputs (matrix products, ``np.cov``, ``linreg``, ``network``,
``cross_normalize``) are left out: their bits depend on the thread count
and the CPU.  The record is keyed by numpy version, since numpy's own
kernels may round differently between releases; without a record for the
running version the test skips.

To record the running numpy version, run ``python tests/test_golden_digests.py``.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from rotnoise import (
    BatchRotation,
    BernoulliDropout,
    Centered,
    GaussianDropout,
    RotationOut,
    Uout,
    apply_featuremap,
    gaussian_tangent,
    mc_nonlinearity_curve,
    noise_budget,
    sample_batch_rotation,
    sample_pairing,
    standardized_sampler,
    train_statistic_samples,
    uniform_angle,
)

RECORD = Path(__file__).with_name("golden_digests.json")


def digest(arrays, rng) -> str:
    h = hashlib.sha256()
    for a in [*arrays, rng.integers(2**63, size=1)]:
        a = np.asarray(a)
        a = np.ascontiguousarray(a, dtype=np.int64 if a.dtype.kind in "iu" else np.float64)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def pairing_fields(pairing):
    return [pairing.pairs, -1 if pairing.fixed is None else pairing.fixed, pairing.dim]


def case_sample_pairing(rng):
    out = []
    for dim in (2, 3, 7, 16):
        out += pairing_fields(sample_pairing(dim, rng))
    return out


def case_apply_rotation(rng):
    out = []
    for dim in (2, 3, 7, 16):
        x, g = rng.standard_normal((2, 5, dim))
        for tangent in (float(rng.standard_normal()), rng.standard_normal(5)):
            real = BatchRotation(sample_pairing(dim, rng).perm, tangent)
            out += [real.apply(x), real.apply_transpose(g)]
    return out


def case_batch_rotation(rng):
    out = []
    for n, dim in ((9, 2), (9, 3), (9, 7), (5, 256), (5000, 8)):
        batch = sample_batch_rotation(n, dim, gaussian_tangent(0.5), rng)
        x, g = rng.standard_normal((2, n, dim))
        out += [batch.perm, batch.tangents, batch.apply(x), batch.apply_transpose(g)]
    return out


NOISE_OPS = {
    "bernoulli": lambda: BernoulliDropout(0.7),
    "gaussian": lambda: GaussianDropout(0.4),
    "uout": lambda: Uout(0.8),
    "rotation": lambda: RotationOut(gaussian_tangent(0.6)),
}


def noise_case(make, centered):
    def case(rng):
        op = Centered(make()) if centered else make()
        out = []
        for dim in (2, 3, 7):
            x, g = rng.standard_normal((2, 6, dim)) + 1.5
            out.append(op(x, rng))
            state = op.sample_state(x, rng)
            out += [op.apply_state(x, state), op.backprop_state(g, state)]
        return out

    return case


def case_featuremap(rng):
    out = []
    fmap = rng.standard_normal((2, 6, 5, 5))
    for angles in (uniform_angle(0.7), gaussian_tangent(0.5)):
        out += [apply_featuremap(fmap, angles, rng), apply_featuremap(fmap[0], angles, rng)]
    out.append(apply_featuremap(fmap, uniform_angle(0.7), rng, block=(2, 3)))
    return out


def case_sequence(rng):
    # the recurrent variant: one pairing per sequence, a fresh angle per step
    out = []
    for dim, angles in ((7, gaussian_tangent(0.5)), (8, uniform_angle(0.9))):
        xs = rng.standard_normal((4, 3, dim))
        pairing = sample_pairing(dim, rng)
        out += [BatchRotation(pairing.perm, angles.sample_tangents((), rng)).apply(x) for x in xs]
    return out


def case_nonlinearity_curve(rng):
    out = []
    for dist in ("gaussian", "laplace"):
        curve = mc_nonlinearity_curve(dist, 4, rng, grid=np.linspace(-2.0, 2.0, 9), n_mc=3000)
        out += [curve.x_test, curve.f_expect, curve.f_var, curve.stderr]
    return out


def case_noise_budget(rng):
    return list(noise_budget(4, "uniform", rng, n_outer=50, n_inner=40))


def case_train_statistic(rng):
    return [train_statistic_samples(0.7, 5, 1000, standardized_sampler("gaussian"), rng)]


CASES = {
    "rotation.sample_pairing": case_sample_pairing,
    "rotation.apply_rotation": case_apply_rotation,
    "rotation.sample_batch_rotation": case_batch_rotation,
    **{f"noise_ops.{name}": noise_case(make, False) for name, make in NOISE_OPS.items()},
    **{f"noise_ops.centered-{name}": noise_case(make, True) for name, make in NOISE_OPS.items()},
    "rotation.apply_featuremap": case_featuremap,
    "rotation.fixed_direction_sequence": case_sequence,
    "batchnorm.mc_nonlinearity_curve": case_nonlinearity_curve,
    "batchnorm.noise_budget": case_noise_budget,
    "batchnorm.train_statistic_samples": case_train_statistic,
}


def compute() -> dict[str, str]:
    digests = {}
    for seed, (name, case) in enumerate(CASES.items()):
        rng = np.random.default_rng(seed)
        digests[name] = digest(case(rng), rng)
    return digests


def test_golden_digests():
    recorded = json.loads(RECORD.read_text()).get(np.__version__)
    if recorded is None:
        pytest.skip(f"no golden digests recorded for numpy {np.__version__}")
    computed = compute()
    changed = sorted(name for name in recorded.keys() | computed.keys()
                     if recorded.get(name) != computed.get(name))
    assert not changed, f"outputs differ from the numpy {np.__version__} record: {changed}"


if __name__ == "__main__":
    record = json.loads(RECORD.read_text()) if RECORD.exists() else {}
    record[np.__version__] = compute()
    RECORD.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(record[np.__version__])} digests for numpy {np.__version__}", file=sys.stderr)
