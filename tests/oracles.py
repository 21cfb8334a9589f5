"""Independent numerical oracles shared by the test modules.

These never call the closed-form cdf path they are used to check: piece
densities are integrated by adaptive quadrature with explicit breakpoints,
and atom masses are added by hand.
"""

from scipy.integrate import quad

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
