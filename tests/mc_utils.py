"""Shared Monte-Carlo estimators and the one statistical gate of the tests."""

import math
import os

import numpy as np

GATES = []  # (test id, false-failure rate) of every gate run; conftest.py sums them


def false_failure_rate(bound, entries, dof=None):
    """Chance that one of ``entries`` |z| reaches ``bound``, by the union bound
    (valid under any correlation): |z| is standard normal, or Student's t
    with ``dof`` degrees of freedom (a stderr from dof + 1 chunks)."""
    if dof is None:
        return entries * math.erfc(bound / math.sqrt(2))
    # Abramowitz & Stegun 26.7.3-4: the t distribution at integer dof
    theta = math.atan(bound / math.sqrt(dof))
    odd = dof % 2
    term = math.cos(theta) if odd else 1.0
    series = term if dof > 1 else 0.0
    for k in range(2 + odd, dof - 1, 2):
        term *= math.cos(theta) ** 2 * (k - 1) / k
        series += term
    inside = math.sin(theta) * series
    return entries * (1.0 - (2 / math.pi * (theta + inside) if odd else inside))


def assert_within_stderr(estimate, closed_form, stderr, bound, entries=None, dof=None, label="estimate"):
    """Assert |estimate - closed_form| < bound * stderr entrywise and return |z|.

    ``entries`` counts the distinct comparisons (default: every entry).  The
    gate's false-failure rate goes to ``GATES``, and into the failure message
    with ``label``, the worst |z| and where it occurred.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.abs(np.asarray(estimate) - closed_form) / stderr
    entries = z.size if entries is None else entries
    rate = false_failure_rate(bound, entries, dof)
    GATES.append((os.environ.get("PYTEST_CURRENT_TEST", "").rsplit(" ", 1)[0], rate))
    worst = tuple(map(int, np.unravel_index(np.argmax(np.where(np.isnan(z), np.inf, z)), z.shape)))
    assert np.all(z < bound), (
        f"{label}: |z| = {z[worst]:.3g} at {worst} reaches the bound {bound} "
        f"(false-failure rate {rate:.3g} over {entries} entries)"
    )
    return z


def first_element_variance(x):
    """Variance, with stderr, of x[0] normalized by its (B, m) column's batch statistics."""
    mu = x.mean(axis=0)
    first = (x[0] - mu) / np.sqrt(np.mean((x - mu) ** 2, axis=0))
    return first.var(ddof=1), np.sqrt(np.var((first - first.mean()) ** 2, ddof=1) / first.size)


def outer_moment(delta):
    """Mean of the outer products of the rows of ``delta``, with entrywise stderr.

    Means and second moments are accumulated through D x D matmuls so no
    (n, D, D) intermediate is materialized.
    """
    n = len(delta)
    mean = delta.T @ delta / n
    sq = delta**2
    return mean, np.sqrt(np.maximum(sq.T @ sq / n - mean**2, 0.0) / n)


def conditional_cov_mc(op, x, n, rng):
    """Entrywise conditional covariance of op(x) given x, with stderr.

    Exploits E[op(x) | x] = x: the covariance is the mean of the outer
    products of the deviations.
    """
    x = np.asarray(x, dtype=np.float64)
    return outer_moment(op(np.broadcast_to(x, (n, x.size)).copy(), rng) - x)
