"""Independent numerical oracles shared by the test modules.

These never call the closed-form cdf path they are used to check: piece
densities are integrated by adaptive quadrature with explicit breakpoints
in double precision, or in closed form in mpmath at 50 digits, atom masses
are added by hand, and the bootstrap is resampled.  The scalar references
at the end check the batched sweeps: they share the law builders and redo
each sweep one scalar law at a time; `ks_reference` likewise redoes the KS distance
one point at a time through `point_values`, which redoes a law's cdf, its
left limit and its density at each float, and `reference_masses` and
`reference_second_moment` redo a law's build and second moment with one
scalar normal-kernel call per piece end; `mapped_point_reference` restates
the mapped point z, with cdf Phi(z), that the exact bootstrap evaluates,
from each law's pieces and atom by float comparisons; `negated_norm_cdf`
restates the
normal cdf as 0.5 * erfc(-x / sqrt(2)), the expression `norm_cdf` used before
it divided by -sqrt(2).  `reference_theta` writes out each
theta-rule kind's sequence as its own formula, `reference_pretest_cdf` the
pretest plug-in as its four limit formulas, and `objective_argmin`
minimises a penalized objective over the finite set that must hold a
minimiser.  `whole_array_ybar`, `whole_array_estimates` and
`whole_array_ks` redo the Monte Carlo path one whole array per stage, as
it ran before it was cut into blocks, and `mpmath_hard_rescaled_risk`
gives the hard estimator's risk on the 1/eta scale from the estimator
itself.  `map_tails` gives a law's cdf and upper tail at 60 digits
from the estimator map alone, through its generalized inverses
`estimator_map_upper` and `estimator_map_lower`, written from each kind's
formulas; `scad_estimate_reference` restates the scad estimate one
expression per branch.  The output references at the end redo the CSV
and SVG writers one cell, one point or one row at a time: `csv_reference`
joins cells formatted by `format_cell_reference`, `svg_polyline_reference`
maps each point as Python floats, and `density_rows_reference` merges a
figure table's atom rows by a keyed sort.  `conservative_limit_reference`
and `consistent_limit_reference` restate the limit laws as they were built
by hand before `limits` took them from the finite-sample piece layout: a
normal, a hard or scad boundary law, a point mass, or `_mixture(kind, -nu,
e, a)`; `rescaled_limit_reference` restates the 1/eta limit laws one
branch per kind and case, as they were before `limits` wrote them as one
shrinkage per kind.
"""

import json
import math

import mpmath
import numpy as np
from scipy.special import erfc, ndtri

from shrinkdist.estimators import EstimatorKind, estimate, penalized_objective
from shrinkdist.finite_dist import (
    _GL_NODES,
    _GL_WEIGHTS,
    _SHORT_PIECE,
    Atom,
    GaussPiece,
    MixtureDistribution,
    ModelPoint,
    _mixture,
    finite_sample_dist,
)
from shrinkdist.limits import conservative_limit
from shrinkdist.normal_kernel import gaussian_tv, norm_cdf, norm_pdf


def quadrature_cdf(dist, x: float, left: bool = False) -> float:
    """Breakpoint-aware quadrature of the density pieces plus atom masses.

    With `left` the atoms at x are left out: the left limit of the cdf.
    """
    from scipy.integrate import quad  # imported here, not at collection: it takes most of a second

    # atoms at -inf included
    total = sum(a.weight for a in dist.atoms if (a.loc < x if left else a.loc <= x))
    for p in dist.pieces:
        lo, hi = p.lower, min(p.upper, x)
        if hi <= lo:
            continue
        lo = max(lo, -60.0)
        val, _ = quad(lambda t: p.slope * norm_pdf(p.slope * t + p.shift), lo, hi,
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
    """Second moment of a single law in closed form, to 50 digits in mpmath.

    Shares only the atom and piece records with the law: each atom adds
    weight * loc**2, and a piece s * pdf(s*x + b) on (lo, hi] adds
    1/s**2 * [(1 + b**2)*Phi(z) - z*pdf(z) + 2*b*pdf(z)] between its mapped
    ends z = s*lo + b and z = s*hi + b, where z*pdf(z) -> 0 at an infinite
    end.  Where both mapped ends are positive the primitive is shifted by
    -(1 + b**2), to -(1 + b**2)*Phi(-z) + (2*b - z)*pdf(z): its Phi term is
    then a tail that no precision loses, where 1 - Phi(z) cancels to 0 once
    z is huge.  A small slope s makes the two ends cancel, so the working
    precision rises until two successive results agree to 50 digits.
    """
    def moment():
        total = mpmath.fsum(mpmath.mpf(w) * mpmath.mpf(loc) ** 2 for loc, w in dist.atoms)
        for s, b, lo, hi in dist.pieces:
            s, b = mpmath.mpf(s), mpmath.mpf(b)
            za, zb = (s * mpmath.mpf(end) + b for end in (lo, hi))
            upper_tail = za > 0  # and so zb > 0
            total += (_moment_primitive(zb, b, upper_tail) - _moment_primitive(za, b, upper_tail)) / s**2
        return total

    return _settled(moment)


def _settled(compute):
    """`compute()` at rising mpmath precision, once two successive results agree to 50 digits."""
    previous = None
    for dps in range(60, 1000, 30):
        with mpmath.workdps(dps):
            total = compute()
            if previous is not None and abs(total - previous) <= mpmath.mpf(10) ** -50 * abs(total):
                return total
            previous = total
    raise ArithmeticError("the closed-form value did not settle to 50 digits")


def _moment_primitive(z, b, upper_tail: bool):
    """A primitive of (z - b)**2 * pdf(z): (1 + b**2)*Phi(z) + (2*b - z)*pdf(z), less (1 + b**2) for `upper_tail`."""
    tail = 0 if mpmath.isinf(z) else (2 * b - z) * mpmath.npdf(z)
    return (1 + b**2) * (-mpmath.ncdf(-z) if upper_tail else mpmath.ncdf(z)) + tail


def estimator_map_upper(kind, c, eta, a):
    """g+(c) = sup{y : g(y) <= c} of the estimator map g of `kind`, in mpmath.

    Written from each kind's formulas for c > 0: hard max(c, eta); soft
    c + eta; scad c + eta up to eta, ((a - 2)*c + a*eta)/(a - 1) up to
    a*eta, then c.  g is odd and nondecreasing, so g+(0) = eta and
    g+(c) = -g-(-c) for c < 0.
    """
    if c < 0:
        return -estimator_map_lower(kind, -c, eta, a)
    if c == 0:
        return eta
    if kind is EstimatorKind.HARD:
        return max(c, eta)
    if kind is EstimatorKind.SOFT or c <= eta:
        return c + eta
    if c <= a * eta:
        return ((a - 2) * c + a * eta) / (a - 1)
    return c


def estimator_map_lower(kind, c, eta, a):
    """g-(c) = inf{y : g(y) >= c}: g+(c) except at c = 0, where it is -eta."""
    if c < 0:
        return -estimator_map_upper(kind, -c, eta, a)
    if c == 0:
        return -eta
    return estimator_map_upper(kind, c, eta, a)


def _estimator_map_z(kind, n, theta, eta, a, x, scaling, left):
    """sqrt(n)*(g(theta + x/sqrt(n)) - theta) through g+ (or g- for `left`); x is scaled by eta for 'inv_eta'."""
    n, theta, eta, a, x = (mpmath.mpf(v) for v in (n, theta, eta, a, x))
    root = mpmath.sqrt(n)
    c = theta + (x / root if scaling == "sqrt_n" else eta * x)
    y = (estimator_map_lower if left else estimator_map_upper)(kind, c, eta, a)
    return root * (y - theta)


def map_tails(kind, n, theta, eta, a, x, scaling, left=False) -> tuple:
    """The law's cdf at x (its left limit with `left`) and its upper tail, from the estimator map alone, at 60 digits.

    Every estimator is nondecreasing in ybar ~ N(theta, 1/n), so the
    estimate is <= c exactly when ybar <= g+(c), and < c when ybar < g-(c):
    F(x) = Phi(z) with z = sqrt(n)*(g+(theta + x/sqrt(n)) - theta), one
    normal cdf, and 1 - F(x) = Phi(-z), with no cancellation; z is worked
    out once for both.  For the 'inv_eta' scaling x/sqrt(n) becomes eta*x.
    z is clamped to +-1e150, past which mpmath's erfc overflows: a tail
    there is far below the smallest float either way.  Shares only
    `EstimatorKind` with the library.
    """
    with mpmath.workdps(60):
        z = _estimator_map_z(kind, n, theta, eta, a, x, scaling, left)
        z = max(min(z, mpmath.mpf(1e150)), mpmath.mpf(-1e150))
        return +mpmath.ncdf(z), +mpmath.ncdf(-z)


def scad_estimate_reference(ybar, eta: float, a: float) -> np.ndarray:
    """The scad estimate with np.abs and np.sign taken afresh at each use, as one expression per branch.

    The blend is clamped by sign into [eta, a*eta] with np.minimum and np.maximum.
    """
    y = np.asarray(ybar, dtype=float)
    soft = np.sign(y) * np.maximum(np.abs(y) - eta, 0.0)
    blend = ((a - 1.0) * y - np.sign(y) * a * eta) / (a - 2.0)
    blend = np.where(y > 0, np.minimum(np.maximum(blend, eta), a * eta), np.maximum(np.minimum(blend, -eta), -a * eta))
    return np.where(np.abs(y) <= 2.0 * eta, soft, np.where(np.abs(y) <= a * eta, blend, y))


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


def whole_array_ybar(cfg) -> np.ndarray:
    """`sample_ybar` with each batch of 2**19 draws made as whole arrays: uniforms, ndtri, scale and shift."""
    batch = 1 << 19
    children = np.random.SeedSequence(cfg.seed).spawn((cfg.replications + batch - 1) // batch)
    scale = 1.0 / cfg.point.sqrt_n
    chunks = []
    remaining = cfg.replications
    for child in children:
        gen = np.random.Generator(np.random.Philox(child))
        size = min(batch, remaining)
        z = ndtri(gen.integers(1, 1 << 53, size=size).astype(np.float64) / float(1 << 53))
        chunks.append(cfg.point.theta + scale * z)
        remaining -= size
    return np.concatenate(chunks)


def whole_array_estimates(kind, cfg, ybar) -> np.ndarray:
    """The values of `simulate_estimates` from the draws `ybar`, in one expression over the whole array.

    They are sorted in IEEE total order: `np.sort` leaves -0.0 and +0.0 in
    any order among themselves, so the run of zeros is then ordered by sign.
    """
    values = np.sort(cfg.point.sqrt_n * (estimate(kind, ybar, cfg.tuning) - cfg.point.theta))
    zeros = np.flatnonzero(values == 0.0)  # one run, as -0.0 == +0.0
    negative = np.count_nonzero(np.signbit(values[zeros]))
    values[zeros[:negative]], values[zeros[negative:]] = -0.0, 0.0
    return values


def whole_array_ks(values, dist) -> float:
    """`ks_distance` of the sorted sample `values`, with the runs, the model and both gaps over the whole array."""
    count = values.size
    starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
    ends = np.append(starts[1:], count)
    uniq = values[starts]
    model = dist.cdf(uniq)
    model_left = dist.cdf_left(uniq)
    return float(max(np.max(np.abs(model - ends / count)), np.max(np.abs(model_left - starts / count))))


def mpmath_hard_rescaled_risk(n: int, theta: float, eta: float):
    """E[((hard estimate - theta)/eta)**2] under P_{n,theta}, to 50 digits in mpmath.

    Written from the estimator, not from a law's records: with
    z = sqrt(n)*(ybar - theta) ~ N(0, 1), the estimate is ybar outside
    [lo, hi] = sqrt(n)*(-eta - theta, eta - theta), adding z**2/n, and 0
    inside it, adding theta**2.  The tail integrals of z**2 * pdf(z) are
    Phi(lo) - lo*pdf(lo) and Phi(-hi) + hi*pdf(hi).  The precision rises
    as in `mpmath_second_moment`.
    """
    def risk():
        r, t, e = mpmath.sqrt(n), mpmath.mpf(theta), mpmath.mpf(eta)
        lo, hi = r * (-e - t), r * (e - t)
        tails = mpmath.ncdf(lo) - lo * mpmath.npdf(lo) + mpmath.ncdf(-hi) + hi * mpmath.npdf(hi)
        return (tails / n + t**2 * (mpmath.ncdf(hi) - mpmath.ncdf(lo))) / e**2

    return _settled(risk)


def reference_masses(pieces):
    """(Phi at each piece's mapped lower end, each piece's mass), two scalar calls per piece."""
    phi_lower = tuple(norm_cdf(s * lo + b) for s, b, lo, _ in pieces)
    masses = tuple(norm_cdf(s * hi + b) - base for (s, b, _, hi), base in zip(pieces, phi_lower))
    return phi_lower, masses


def mapped_point_reference(law, x) -> np.ndarray:
    """The z with cdf Phi(z) of law i of a batch of laws at x[i], one law and one float at a time.

    One branch per case, by float comparisons on law i's own records: s*x + b
    of the piece holding x in (lower, upper]; past a piece below x, its
    mapped upper end, so that in hard's gap the piece below the atom gives
    its own; and on the atom, or between it and the piece above it, that
    piece's mapped lower end, since the atom's weight lifts the cdf to Phi
    there.
    """
    x = np.asarray(x, dtype=float)
    out = []
    for i, point in enumerate(x.tolist()):
        pieces = [[float(np.broadcast_to(v, x.shape)[i]) for v in p] for p in law.pieces]
        loc = float(np.broadcast_to(law.atoms[0].loc, x.shape)[i])
        z = -math.inf
        for s, b, lo, hi in pieces:
            if lo < point <= hi:
                z = s * point + b
            elif hi < point:
                z = s * hi + b
        s, b, lo, _ = pieces[len(pieces) // 2]  # the piece above the atom
        if loc <= point <= lo:
            z = s * lo + b
        out.append(z)
    return np.array(out)


def negated_norm_cdf(x) -> np.ndarray:
    """The normal cdf as 0.5 * erfc(-x / sqrt(2)), negating x in its own pass."""
    return 0.5 * erfc(-np.asarray(x, dtype=float) / math.sqrt(2.0))


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
        for (s, b, lo, hi), base, mass in zip(dist.pieces, phi_lower, masses):
            if x >= hi:
                cdf += mass
            elif x > lo:
                cdf += norm_cdf(s * x + b) - base
            if lo < x <= hi and x < math.inf:
                density += s * norm_pdf(s * x + b)
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
    for s, b, lo, hi in dist.pieces:
        za, zb = s * lo + b, s * hi + b
        if abs(zb - za) < _SHORT_PIECE:
            half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
            x = mid + half * _GL_NODES
            ac += half * float(np.dot(_GL_WEIGHTS, s * x**2 * norm_pdf(s * x + b)))
            continue
        i0 = norm_cdf(zb) - norm_cdf(za)
        pa, pb = (0.0 if math.isinf(z) else norm_pdf(z) for z in (za, zb))
        i1 = pa - pb
        i2 = i0 + _zphi(za) - _zphi(zb)
        ac += (s / s**3) * (i2 - 2.0 * b * i1 + b**2 * i0)
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


def format_cell_reference(v) -> str:
    """A CSV cell one value at a time, by isinstance: bools as 1/0, ints as written, floats at 17 digits."""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def csv_reference(report) -> str:
    """`ExperimentReport.to_csv` joined one formatted cell at a time."""
    lines = []
    if report.meta:
        lines.append("# " + json.dumps(report.meta, sort_keys=True))
    lines.append(",".join(report.columns))
    for row in report.rows:
        lines.append(",".join(format_cell_reference(v) for v in row))
    return "\n".join(lines) + "\n"


def svg_polyline_reference(xs, ys, x_range, y_range, width, height, pad) -> str:
    """SVG polyline points mapped and formatted one Python float at a time."""
    x0, x1 = x_range
    y0, y1 = y_range
    sx = (width - 2 * pad) / (x1 - x0)
    sy = (height - 2 * pad) / (y1 - y0) if y1 > y0 else 1.0
    pts = []
    for x, y in zip(xs, ys):
        px = pad + (x - x0) * sx
        py = height - pad - (y - y0) * sy
        pts.append(f"{px:.3f},{py:.3f}")
    return " ".join(pts)


def density_rows_reference(dist, lo: float, hi: float, count: int) -> list:
    """A figure table's rows (x, density, is_atom), merged by a keyed sort over all rows."""
    grid = np.linspace(lo, hi, count)
    cuts = [b for b in dist.breakpoints() if lo <= b <= hi]
    cuts += [np.nextafter(b, np.inf) for b in cuts]
    xs = np.unique(np.concatenate([grid, np.asarray(cuts, dtype=float)]))
    rows = [(x, density, 0) for x, density in zip(xs.tolist(), dist.density_ac(xs).tolist())]
    rows += [(a.loc, a.weight, 1) for a in dist.atoms if math.isfinite(a.loc)]
    rows.sort(key=lambda r: (r[0], -r[2]))  # an atom row precedes the density row at its own x
    return rows


def _normal_reference(mu: float) -> MixtureDistribution:
    """N(mu, 1) as one piece of shift 0.0 - mu, so that N(0, 1) has the shift +0.0."""
    return MixtureDistribution((), (GaussPiece(1.0, 0.0 - mu, -math.inf, math.inf),))


def conservative_limit_reference(kind, nu: float, e: float, a: float) -> MixtureDistribution:
    """N(-sign(nu)*e, 1) for soft with e > 0, else N(0, 1), when nu is infinite or e == 0; otherwise the
    finite-sample constructor at loc = -nu, se = e."""
    if math.isinf(nu) or e == 0.0:
        return _normal_reference(-math.copysign(e, nu) if kind is EstimatorKind.SOFT and e > 0.0 else 0.0)
    return _mixture(kind, -nu, e, a)


def consistent_limit_reference(kind, zeta: float, r: float, nu: float, a: float) -> MixtureDistribution:
    """The hard or scad sqrt(n) limit under consistent tuning, one branch per case.

    Below the boundary (1 for hard, a for scad), or at it with r = +inf, a point mass at -nu; past it,
    or at it with r = -inf, N(0, 1).  At it, hard keeps the normal density past the cut at sign(zeta)*r
    and sends the weight cdf(r) to -sign(zeta)*inf; scad splits the line at sign(zeta)*r into the blend
    of slope (a-2)/(a-1) and shift sign(zeta)*r/(a-1) on the side of -zeta and the normal tail on the other.
    """
    boundary = 1.0 if kind is EstimatorKind.HARD else a
    if abs(zeta) < boundary or (abs(zeta) == boundary and r == math.inf):
        return MixtureDistribution((Atom(-nu, 1.0),), ())
    if abs(zeta) > boundary or r == -math.inf:
        return _normal_reference(0.0)
    if kind is EstimatorKind.HARD:
        escape, lower, upper = (-math.inf, r, math.inf) if zeta > 0 else (math.inf, -math.inf, -r)
        return MixtureDistribution((Atom(escape, norm_cdf(r)),), (GaussPiece(1.0, 0.0, lower, upper),))
    ratio = (a - 2.0) / (a - 1.0)
    if zeta > 0:
        pieces = (GaussPiece(ratio, r / (a - 1.0), -math.inf, r), GaussPiece(1.0, 0.0, r, math.inf))
    else:
        pieces = (GaussPiece(1.0, 0.0, -math.inf, -r), GaussPiece(ratio, -r / (a - 1.0), -r, math.inf))
    return MixtureDistribution((), pieces)


def rescaled_limit_reference(kind, zeta: float, r: float, a: float) -> MixtureDistribution:
    """The 1/eta limit under consistent tuning, one branch per kind and case, with hard's -zeta written
    0.0 - zeta, so that a zero zeta puts the atom at +0.0, as soft's and scad's already are.

    Soft: the point mass at -sign(zeta)*min(1, |zeta|).  Hard: the point mass at -zeta below 1 and at 0
    past it; at |zeta| = 1 the atoms -zeta of weight cdf(r) and 0 of the rest.  Scad: as soft up to 2,
    the point mass at -sign(zeta)*(a - |zeta|)/(a - 2) up to a, and at 0 past it.
    """
    az = abs(zeta)
    sgn = (zeta > 0) - (zeta < 0)
    clipped = -sgn * min(1.0, az)
    if kind is EstimatorKind.SOFT:
        return MixtureDistribution((Atom(clipped, 1.0),), ())
    if kind is EstimatorKind.HARD:
        if az < 1.0:
            return MixtureDistribution((Atom(0.0 - zeta, 1.0),), ())
        if az > 1.0:
            return MixtureDistribution((Atom(0.0, 1.0),), ())
        w = norm_cdf(r)
        return MixtureDistribution((Atom(-zeta, w), Atom(0.0, 1.0 - w)), ())
    if az <= 2.0:
        return MixtureDistribution((Atom(clipped, 1.0),), ())
    if az < a:
        return MixtureDistribution((Atom(-sgn * (a - az) / (a - 2.0), 1.0),), ())
    return MixtureDistribution((Atom(0.0, 1.0),), ())
