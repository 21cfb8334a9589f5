"""Independent numerical oracles shared by the test modules.

These never call the closed-form cdf path they are used to check: piece
densities are integrated by adaptive quadrature with explicit breakpoints,
atom masses are added by hand, and the bootstrap is resampled.
"""

import math

import numpy as np
from scipy.integrate import quad

from shrinkdist.estimators import estimate
from shrinkdist.normal_kernel import norm_pdf


def quadrature_cdf(dist, x: float, left: bool = False) -> float:
    """Breakpoint-aware quadrature of the density pieces plus atom masses.

    With `left` the atoms at x are left out: the left limit of the cdf.
    """
    # atoms at -inf included
    total = sum(a.weight for a in dist.atoms if (a.loc < x if left else a.loc <= x))
    for p in dist.pieces:
        lo, hi = p.lower, min(p.upper, x)
        if hi <= lo:
            continue
        lo = max(lo, -60.0)
        val, _ = quad(lambda t: p.coeff * norm_pdf(p.slope * t + p.shift), lo, hi,
                      epsabs=1e-13, epsrel=1e-13, limit=300)
        total += val
    return total


def ks_oracle(values, dist) -> float:
    """Brute-force atom-aware KS distance of a sample from a law.

    At each distinct sample value u, both one-sided gaps: the quadrature cdf
    against the fraction of the sample <= u, and its left limit against the
    fraction < u.
    """
    values = [float(v) for v in values]
    count = len(values)
    gap = 0.0
    for u in sorted(set(values)):
        below = sum(v < u for v in values) / count
        upto = sum(v <= u for v in values) / count
        gap = max(gap, abs(quadrature_cdf(dist, u) - upto),
                  abs(quadrature_cdf(dist, u, left=True) - below))
    return gap


def resampled_bootstrap_cdf(kind, ybar, m: int, t: float, tuning, tuning_m, n_boot: int, seed: int):
    """Monte Carlo m-out-of-n bootstrap cdf at t, one value per entry of ybar.

    Draws n_boot resamples ybar* ~ N(ybar, 1/m), recomputes the estimator at
    scale m with `tuning_m`, and returns the fraction of
    sqrt(m)*(estimate(ybar*) - theta_hat) <= t, theta_hat being the
    estimate at ybar with `tuning`.
    """
    rng = np.random.default_rng(seed)
    y = np.asarray(ybar, dtype=float)
    theta_hat = estimate(kind, y, tuning)
    ystar = y[:, None] + rng.standard_normal((y.size, n_boot)) / math.sqrt(m)
    vals = math.sqrt(m) * (estimate(kind, ystar, tuning_m) - theta_hat[:, None])
    return (vals <= t).mean(axis=1)
