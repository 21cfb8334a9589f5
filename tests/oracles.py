"""Independent numerical oracles shared by the test modules.

These never call the closed-form cdf path they are used to check: piece
densities are integrated by adaptive quadrature with explicit breakpoints
(in double precision, or in mpmath at 50 digits), atom masses are added by
hand, and the bootstrap is resampled.  The scalar references at the end
check the batched sweeps: they share the law builders and redo each sweep
one scalar law at a time; `ks_reference` likewise redoes the KS distance
one point at a time through `point_values`, which redoes a law's cdf, its
left limit and its density at each float, and `reference_masses` and
`reference_second_moment` redo a law's build and second moment with one
scalar normal-kernel call per piece end.  `reference_theta` writes out each
theta-rule kind's sequence as its own formula, `reference_pretest_cdf` the
pretest plug-in as its four limit formulas, and `objective_argmin`
minimises a penalized objective over the finite set that must hold a
minimiser.
"""

import math

import mpmath
import numpy as np
from scipy.integrate import quad

from shrinkdist.estimators import EstimatorKind, estimate, penalized_objective
from shrinkdist.finite_dist import _GL_NODES, _GL_WEIGHTS, _SHORT_PIECE, ModelPoint, finite_sample_dist
from shrinkdist.limits import conservative_limit
from shrinkdist.normal_kernel import gaussian_tv, norm_cdf, norm_pdf


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


def mpmath_second_moment(dist):
    """Second moment of a single law by mpmath quadrature at 50 digits.

    Shares only the atom and piece records with the law: each atom adds
    weight * loc**2 and each piece the integral of x**2 * c * pdf(alpha*x + beta)
    over its interval, split at the mode of its Gaussian.
    """
    with mpmath.workdps(50):
        inv_root = 1 / mpmath.sqrt(2 * mpmath.pi)
        total = mpmath.fsum(mpmath.mpf(w) * mpmath.mpf(loc) ** 2 for loc, w in dist.atoms)
        for c, s, b, lo, hi in dist.pieces:
            c, s, b = mpmath.mpf(c), mpmath.mpf(s), mpmath.mpf(b)
            ends = [mpmath.mpf(lo), mpmath.mpf(hi)]
            if ends[0] < -b / s < ends[1]:
                ends.insert(1, -b / s)
            total += mpmath.quad(lambda x: c * x**2 * inv_root * mpmath.exp(-(s * x + b) ** 2 / 2), ends)
        return total


def exceedance_probability(kind, n: int, theta: float, tuning, cut: float) -> float:
    """P_{n,theta}(|sqrt(n)(estimate - theta)| > cut) from one scalar law."""
    dist = finite_sample_dist(kind, ModelPoint(n, theta), tuning)
    return 1.0 - (dist.cdf(cut) - dist.cdf_left(-cut))


def swept_lower_bound(problem, epsilon=None, sweep_steps: int = 14):
    """`minimax_lower_bound` as a loop over delta, dividing it by 4 each step.

    Each step builds the two scalar laws of the pair and keeps the best
    (1 - TV)/2 among deltas whose estimand gap exceeds 2*epsilon.
    """
    se = math.sqrt(problem.n) * problem.tuning.eta
    eps_range = 0.5 * (norm_cdf(problem.t + se) - norm_cdf(problem.t - se))
    eps = 0.9 * eps_range if epsilon is None else float(epsilon)
    best, d = 0.0, problem.delta
    for _ in range(sweep_steps):
        th_plus, th_minus = problem.theta_pair(d)
        f_minus, f_plus = (finite_sample_dist(problem.kind, ModelPoint(problem.n, th), problem.tuning).cdf(problem.t)
                           for th in (th_minus, th_plus))
        if eps < abs(f_minus - f_plus) / 2.0:
            best = max(best, 0.5 * (1.0 - gaussian_tv(problem.n, th_plus, th_minus)))
        d /= 4.0
    return eps_range, best


def ks_reference(emp, dist) -> float:
    """Atom-aware KS distance from `np.unique` and per-point scalar evaluations.

    The distinct values and their counts come from `np.unique`, the model
    cdf and its left limit at each distinct value from `point_values`; the
    gaps are taken as `ks_distance` takes them.
    """
    uniq, counts = np.unique(emp.values, return_counts=True)
    cum = np.cumsum(counts) / emp.count
    emp_left = np.concatenate(([0.0], cum[:-1]))
    model, model_left, _ = point_values(dist, uniq.tolist())
    return float(max(np.max(np.abs(model - cum)), np.max(np.abs(model_left - emp_left))))


def reference_masses(pieces):
    """(Phi at each piece's mapped lower end, each piece's mass), two scalar calls per piece."""
    phi_lower = tuple(norm_cdf(s * lo + b) for _, s, b, lo, _ in pieces)
    masses = tuple((c / s) * (norm_cdf(s * hi + b) - base)
                   for (c, s, b, _, hi), base in zip(pieces, phi_lower))
    return phi_lower, masses


def point_values(dist, xs) -> tuple:
    """(cdf, left limit of the cdf, ac density) of a single law at each float in xs.

    One point at a time, by float comparisons: a piece adds its whole mass
    at or past its upper end and its closed-form part mass strictly inside,
    a finite atom at or below x adds its weight, and the left limit takes
    back the finite atoms at x.  The density adds each piece holding x in
    (lower, upper], and is 0 at +-inf.  The Phi bases and masses come from
    `reference_masses`, not from the law, and every sum runs in the law's
    order, so the law must match these values bit for bit.
    """
    phi_lower, masses = reference_masses(dist.pieces)
    cdfs, lefts, densities = [], [], []
    for x in xs:
        cdf, density = 0.0, 0.0
        for (c, s, b, lo, hi), base, mass in zip(dist.pieces, phi_lower, masses):
            if x >= hi:
                cdf += mass
            elif x > lo:
                cdf += (c / s) * (norm_cdf(s * x + b) - base)
            if lo < x <= hi and x < math.inf:
                density += c * norm_pdf(s * x + b)
        for loc, w in dist.atoms:
            if loc <= x and loc < math.inf:
                cdf += w
        left = cdf
        for loc, w in dist.atoms:
            if loc == x and abs(loc) < math.inf:
                left -= w
        cdfs.append(cdf)
        lefts.append(left)
        densities.append(density)
    return np.array(cdfs, dtype=float), np.array(lefts, dtype=float), np.array(densities, dtype=float)


def _zphi(t: float) -> float:
    # t * pdf(t) with the correct 0 limit at +-inf
    if math.isinf(t):
        return 0.0
    return t * norm_pdf(t)


def reference_second_moment(dist) -> float:
    """A single law's second moment, with scalar cdf and pdf calls at every piece end."""
    out = 0.0
    for loc, w in dist.atoms:
        if math.isinf(loc):
            if w > 0.0:
                return math.inf
            continue
        out += w * loc**2
    ac = 0.0
    for c, s, b, lo, hi in dist.pieces:
        za, zb = s * lo + b, s * hi + b
        if abs(zb - za) < _SHORT_PIECE:
            half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
            x = mid + half * _GL_NODES
            ac += half * float(np.dot(_GL_WEIGHTS, c * x**2 * norm_pdf(s * x + b)))
            continue
        i0 = norm_cdf(zb) - norm_cdf(za)
        pa, pb = (0.0 if math.isinf(z) else norm_pdf(z) for z in (za, zb))
        i1 = pa - pb
        i2 = i0 + _zphi(za) - _zphi(zb)
        ac += (c / s**3) * (i2 - 2.0 * b * i1 + b**2 * i0)
    return out + ac


def reference_theta(kind: str, args: tuple, n: int, eta_n: float) -> float:
    """theta_n of one theta-rule kind, each kind written out as its own formula.

    `args` are the arguments of the `ThetaRule` constructor named `kind`.
    """
    rn = float(n)
    if kind == "local":
        nu, perturb = args
        return nu / math.sqrt(rn) + perturb * rn**-0.75
    if kind == "eta_multiple":
        (zeta,) = args
        return zeta * eta_n
    if kind == "boundary":
        zeta, r, perturb = args
        return zeta * eta_n - math.copysign(1.0, zeta) * r / math.sqrt(rn) + perturb * rn**-0.75
    if kind == "fixed":
        (value,) = args
        return value
    raise ValueError(f"unknown theta rule {kind!r}")


def reference_pretest_cdf(kind, consistent: bool, n: int, tuning, t: float, ybar) -> np.ndarray:
    """The pretest plug-in's cdf estimate, one formula per tuning and per soft or other kind.

    |ybar| <= n**-0.25 accepts theta = 0; a rejection plugs in the law of a
    nonzero parameter, which for soft depends on the sign of ybar.
    """
    y = np.asarray(ybar, dtype=float)
    reject = np.abs(y) > float(n) ** -0.25
    if consistent:
        accept_val = 1.0 if t >= 0.0 else 0.0
        if kind is EstimatorKind.SOFT:
            reject_val = np.where(y > 0, 1.0, 0.0)
        else:
            reject_val = norm_cdf(t)
    else:
        e_sub = math.sqrt(n) * tuning.eta
        accept_val = conservative_limit(kind, 0.0, e_sub, tuning.scad_a).cdf(t)
        if kind is EstimatorKind.SOFT:
            reject_val = np.where(y > 0, norm_cdf(t + e_sub), norm_cdf(t - e_sub))
        else:
            reject_val = norm_cdf(t)
    return np.where(reject, reject_val, accept_val)


def objective_argmin(kind, ybar: float, n: int, tuning) -> float:
    """Exact minimiser of `penalized_objective` in theta.

    Each piece of each objective is linear or a quadratic with its vertex at
    ybar, ybar -+ eta or, on the scad blend pieces, ((a - 1)*ybar -+ a*eta)/(a - 2),
    and the pieces meet at -+a*eta, -+eta and 0, so a minimiser lies in those
    ten points; the first best one is returned.
    """
    eta, a = tuning.eta, tuning.scad_a
    candidates = (-eta, 0.0, eta, ybar, ybar - eta, ybar + eta, -a * eta, a * eta,
                  ((a - 1.0) * ybar - a * eta) / (a - 2.0), ((a - 1.0) * ybar + a * eta) / (a - 2.0))
    return min(candidates, key=lambda theta: penalized_objective(kind, theta, ybar, n, tuning))
