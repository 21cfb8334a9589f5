"""Independent numerical oracles shared by the test modules.

These never call the closed-form cdf path they are used to check: piece
densities are integrated by adaptive quadrature with explicit breakpoints,
and atom masses are added by hand.
"""

from scipy.integrate import quad

from shrinkdist.normal_kernel import norm_pdf


def quadrature_cdf(dist, x: float) -> float:
    """Breakpoint-aware quadrature of the density pieces plus atom masses."""
    total = sum(a.weight for a in dist.atoms if a.loc <= x)  # atoms at -inf included
    for p in dist.pieces:
        lo, hi = p.lower, min(p.upper, x)
        if hi <= lo:
            continue
        lo = max(lo, -60.0)
        val, _ = quad(lambda t: p.coeff * norm_pdf(p.slope * t + p.shift), lo, hi,
                      epsabs=1e-13, epsrel=1e-13, limit=300)
        total += val
    return total
