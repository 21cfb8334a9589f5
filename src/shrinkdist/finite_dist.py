"""Exact sampling distributions of the thresholding estimators.

The law of sqrt(n)*(estimate - theta) is, for every kind, a mixture of one
point mass (sitting at -sqrt(n)*theta, carried by the event estimate == 0)
and an absolutely continuous part assembled from scaled-Gaussian pieces

    x  |->  c * pdf(alpha*x + beta)   on (lower, upper],

so every cdf value, mass, and second moment is a finite combination of
normal cdf evaluations.  No quadrature appears on this path; quadrature is
test-oracle material only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .estimators import EstimatorKind, TuningPlan
from .normal_kernel import _check_count, _no_nan, _scalar_or_array, norm_cdf, norm_pdf

__all__ = [
    "ModelPoint",
    "GaussPiece",
    "Atom",
    "MixtureDistribution",
    "atom_weight",
    "finite_sample_dist",
    "rescaled_dist",
    "scaled_risk",
]

_MASS_TOL = 1e-9
# 8-point Gauss-Legendre rule on [-1, 1], correctly rounded; literals rather than
# numpy's leggauss(8), whose eigenvalue solve would run LAPACK at import
_GL_NODES = np.array([-0.9602898564975363, -0.7966664774136267, -0.525532409916329, -0.1834346424956498,
                      0.1834346424956498, 0.525532409916329, 0.7966664774136267, 0.9602898564975363])
_GL_WEIGHTS = np.array([0.10122853629037626, 0.22238103445337448, 0.31370664587788727, 0.362683783378362,
                        0.362683783378362, 0.31370664587788727, 0.22238103445337448, 0.10122853629037626])
_SHORT_PIECE = 0.5  # mapped width below which second_moment integrates a piece in x


@dataclass(frozen=True)
class ModelPoint:
    """Sample size and true location indexing one experiment P_{n,theta}.

    `theta` may also be a nonempty 1-d sequence or array of locations: a
    batch of points at one n, whose laws `finite_sample_dist` builds as one
    batch.  A batch is stored as a tuple of floats, so a point stays
    immutable, hashable and comparable either way.
    """

    n: int
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "n", _check_count(self.n))
        theta = self.theta
        if isinstance(theta, (list, tuple, np.ndarray)) and np.ndim(theta) != 0:
            arr = np.asarray(theta)
            if arr.ndim != 1 or arr.size == 0 or arr.dtype == bool or not np.isfinite(arr).all():
                raise ValueError("a batch of theta must be a nonempty 1-d array of finite numbers")
            object.__setattr__(self, "theta", tuple(arr.astype(float).tolist()))
        elif isinstance(theta, bool) or not math.isfinite(theta):
            raise ValueError(f"theta must be a finite number (got {theta!r})")

    @property
    def sqrt_n(self) -> float:
        return math.sqrt(self.n)


def _real_to_json(v: float):
    # JSON has no infinities: they travel as the strings "+inf" and "-inf",
    # which float() reads back
    if math.isinf(v):
        return "+inf" if v > 0 else "-inf"
    return v


def _inverse_scale(s: float) -> float:
    """1/s for a finite scale s > 0 whose inverse is finite (a subnormal s has none).

    Ends and locations are rescaled as x * (1/s), not x / s: the two differ
    in the last bit for some x, and the published output bytes use the former.
    """
    if not (s > 0.0 and math.isfinite(s) and math.isfinite(1.0 / float(s))):
        raise ValueError(f"scale must be positive and finite, with a finite inverse (got {s!r})")
    return 1.0 / s


class GaussPiece(NamedTuple):
    """Density c * pdf(alpha*x + beta) supported on (lower, upper]; ends may be +-inf."""

    coeff: float
    slope: float
    shift: float
    lower: float
    upper: float


class Atom(NamedTuple):
    """Point mass; the location may be +-inf (escaped mass)."""

    loc: float
    weight: float


def _checked_records(atoms, pieces) -> tuple:
    """The atoms and pieces of a law or of a batch of laws, coerced and checked, and the batch shape.

    Records whose fields are all floats (or 0-d) make a single law, whose
    shape is None.  Otherwise each field is copied once as a float array in
    its own shape, so a field shared by every law (a piece's slope, say) is
    one value, checked and built on once.  One pass then checks a law and a
    batch alike, record by record, each check a comparison that reads the
    same on a float and on an array; one bad law rejects the batch with the
    message it raises alone.
    """
    try:
        atoms = tuple(Atom(*map(float, a)) for a in atoms)
        pieces = tuple(GaussPiece(*map(float, p)) for p in pieces)
        shape, ok = None, bool
    except TypeError:  # float() rejects arrays of one or more dimensions
        atoms = tuple(Atom(*(np.array(v, dtype=float) for v in a)) for a in atoms)
        pieces = tuple(GaussPiece(*(np.array(v, dtype=float) for v in p)) for p in pieces)
        shape, ok = np.broadcast_shapes(*(v.shape for r in (*atoms, *pieces) for v in r)), np.all
    inf = math.inf
    for loc, w in atoms:
        if not ok(loc == loc):
            raise ValueError("atom location must not be NaN")
        if not ok((w >= 0.0) & (w < inf)):
            raise ValueError("atom weight must be finite and nonnegative")
    for c, s, b, lower, upper in pieces:
        if not ok((c >= 0.0) & (c < inf)):
            raise ValueError("coeff must be finite and nonnegative")
        if not ok((abs(s) < inf) & (s != 0.0)):
            raise ValueError("slope must be finite and nonzero")
        if not ok(abs(b) < inf):
            raise ValueError("shift must be finite")
        if not ok(lower <= upper):
            raise ValueError("piece interval requires lower < upper (lower == upper is an empty piece)")
    for i, a in enumerate(atoms):
        if not all(ok(a.loc != other.loc) for other in atoms[i + 1:]):
            raise ValueError("atom locations must be pairwise distinct")
    return atoms, pieces, shape


@dataclass(frozen=True)
class MixtureDistribution:
    """Finite list of atoms plus scaled-Gaussian density pieces.

    `Atom` and `GaussPiece` are plain records; every law evaluation lives
    here and accepts a scalar (returning a float) or an array.  Total mass,
    counting atoms at +-inf, is always 1; the cdf restricted to the real
    line is sub-stochastic exactly when mass sits at an infinity.

    Records whose fields are arrays make a batch of laws: every field
    broadcasts to one shape, and `cdf`, `cdf_left` and `density_ac` at an
    array x of that shape evaluate law i at x[i], elementwise; a 0-d x
    evaluates every law at x, and any other shape raises ValueError.
    `total_mass` and `rescaled` also take batches; `second_moment`,
    `breakpoints` and JSON raise ValueError on one.  One pass checks a law
    and a batch alike, record by record, so the same faulty records raise
    the same ValueError alone or in a batch.

    Building a single law makes one normal-cdf call over both mapped ends of
    every piece and keeps each piece's Phi values and mass for every later
    evaluation; `second_moment` reuses those Phi values and makes one
    normal-pdf call (plus one over the nodes of its short pieces).  A batch
    evaluates each law's point only in the piece that holds it, and its build
    makes no kernel call at a piece end that is infinite for every law.
    """

    atoms: tuple
    pieces: tuple

    def __post_init__(self):
        atoms, pieces, shape = _checked_records(self.atoms, self.pieces)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "pieces", pieces)
        # a batch calls the kernel once per end on B values (one stacked call raised peak memory),
        # and none at an end infinite for every law, where Phi is exactly 0 or 1
        ends = (s * end + b for _, s, b, lo, hi in pieces for end in (lo, hi))
        phi = (norm_cdf(np.fromiter(ends, float)).tolist() if shape is None else
               [(z > 0.0) * 1.0 if np.isinf(z).all() else norm_cdf(z) for z in ends])
        object.__setattr__(self, "_shape", shape)
        object.__setattr__(self, "_phi_lower", tuple(phi[0::2]))
        object.__setattr__(self, "_phi_upper", tuple(phi[1::2]))
        object.__setattr__(self, "_masses", tuple((p.coeff / p.slope) * (upper - lower) for p, lower, upper
                                                  in zip(pieces, self._phi_lower, self._phi_upper)))
        total = self.total_mass()
        worst = abs(total - 1.0) if shape is None else np.max(abs(total - 1.0))
        if worst > _MASS_TOL:
            raise ValueError(f"mixture mass {total} is not 1 within {_MASS_TOL}")

    def __eq__(self, other):
        """Record-by-record equality; a batch of laws equals only a batch with equal fields."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        counts = (self._shape, len(self.atoms), len(self.pieces))
        return counts == (other._shape, len(other.atoms), len(other.pieces)) and all(
            np.all(u == v) for r, q in zip((*self.atoms, *self.pieces), (*other.atoms, *other.pieces))
            for u, v in zip(r, q))

    def __hash__(self):
        if self._shape is not None:
            raise TypeError("a batch of laws is unhashable")
        return hash((self.atoms, self.pieces))

    def total_mass(self) -> float:
        total = sum(a.weight for a in self.atoms) + sum(self._masses)
        return total if self._shape is None else np.broadcast_to(total, self._shape).copy()

    def cdf(self, x):
        """Right-continuous cdf on the real line; NaN x raises ValueError.

        Each piece adds its mass on (lower, min(x, upper)] in closed form.
        Phi is evaluated only at the points strictly inside a piece: points
        at or below its lower end add nothing, and points at or past its
        upper end add its whole mass, one scalar.  A single law walks an
        array in ascending order (through one stable argsort when it is not
        sorted), so two `searchsorted` calls per piece mark its slice; a
        float x is walked as a one-point array and returns a float.  A
        batch of laws evaluates law i at x[i], elementwise.
        An atom at -inf contributes for every finite x, an atom at +inf
        never does, so escaped mass shows up as a cdf pinned near 0 or 1.
        """
        return self._evaluate(x, self._ascending_cdf, self._batch_cdf)

    def cdf_left(self, x):
        """Left limit of the cdf at x: the cdf minus the finite atoms sitting at x."""
        x = np.asarray(x, dtype=float) if self._shape is None else self._batch_points(x)
        return self._left_limit(x, self.cdf(x))

    def _left_limit(self, x: np.ndarray, cdf):
        """The left limit of the cdf from its values `cdf` at x.

        The two differ only where x is a finite atom location, by that
        atom's weight, so no piece is evaluated again.
        """
        for loc, w in self.atoms:
            cdf = cdf - w * (abs(loc) < math.inf) * (x == loc)
        return _scalar_or_array(x, cdf)

    def density_ac(self, x):
        """Density of the absolutely continuous part; atoms are not represented.

        The pdf is evaluated only at the points of each piece's (lower, upper],
        walked as in `cdf`; it is 0 at +-inf, and NaN x raises ValueError.
        """
        return self._evaluate(x, self._ascending_density, self._batch_density)

    @np.errstate(over="ignore")
    def _evaluate(self, x, ascending, batch):
        """Route x to the ascending-array or batch form of an evaluation.

        A single law walks every x as an ascending array: a float or 0-d x
        is a one-point array, and its value comes back as a Python float.
        Overflow is ignored: s*x overflows only past every finite mapped
        point, where Phi is exactly 0 or 1 and the pdf 0.
        """
        if self._shape is not None:
            return batch(self._batch_points(x))
        x = np.asarray(x, dtype=float)
        flat = x.ravel()
        order = None
        if not (flat[1:] >= flat[:-1]).all():
            order = np.argsort(flat, kind="stable")
            flat = flat[order]
        if flat.size and math.isnan(flat[-1]):  # sorting puts NaN last
            _no_nan(flat)  # raises
        out = ascending(flat)
        if order is not None:
            out[order] = out.copy()
        return _scalar_or_array(x, out.reshape(x.shape))

    def _batch_points(self, x) -> np.ndarray:
        """x as an array of the batch's shape: a 0-d x is taken for every law."""
        x = _no_nan(x)
        if x.ndim and x.shape != self._shape:
            raise ValueError(f"x of shape {x.shape} does not match the batch of laws of shape {self._shape}")
        return np.broadcast_to(x, self._shape)

    def _single_law(self, method: str):
        if self._shape is not None:
            raise ValueError(f"{method} takes a single law, not a batch of laws")

    def _ascending_cdf(self, x: np.ndarray) -> np.ndarray:
        total = np.zeros_like(x)
        for (c, s, b, lo, hi), base, mass in zip(self.pieces, self._phi_lower, self._masses):
            i = np.searchsorted(x, lo, side="right")
            j = np.searchsorted(x, hi, side="left")
            if i < j:  # a piece holding no point makes no kernel call
                total[i:j] += (c / s) * (norm_cdf(s * x[i:j] + b) - base)
            total[j:] += mass
        for loc, w in self.atoms:
            if loc < math.inf:
                total[np.searchsorted(x, loc, side="left"):] += w
        return total

    def _batch_cdf(self, x: np.ndarray):
        # in piece order, a piece adds its mass past hi, its partial term inside, or 0; the partial
        # term at hi is the stored mass bit for bit, so the bits are those of evaluating every piece
        total = np.zeros_like(x)
        for (c, s, b, lo, hi), base, mass in zip(self.pieces, self._phi_lower, self._masses):
            inside = (x > lo) & (x <= hi)
            total += np.where(x > hi, mass, 0.0)
            if inside.any():  # a piece holding no point makes no kernel call
                c, s, b, base = (np.broadcast_to(v, x.shape)[inside] if np.ndim(v) else v for v in (c, s, b, base))
                total[inside] += (c / s) * (norm_cdf(s * x[inside] + b) - base)
        for loc, w in self.atoms:
            total = total + w * (loc < math.inf) * (x >= loc)
        return total

    def _ascending_density(self, x: np.ndarray) -> np.ndarray:
        total = np.zeros_like(x)
        for c, s, b, lo, hi in self.pieces:
            i, j = np.searchsorted(x, (lo, hi), side="right")
            if i < j:
                total[i:j] += c * norm_pdf(s * x[i:j] + b)
        return total

    def _batch_density(self, x: np.ndarray):
        total = np.zeros_like(x)
        for c, s, b, lo, hi in self.pieces:
            inside = (x > lo) & (x <= hi)
            if inside.any():
                c, s, b = (np.broadcast_to(v, x.shape)[inside] if np.ndim(v) else v for v in (c, s, b))
                total[inside] += c * norm_pdf(s * x[inside] + b)
        return total

    def second_moment(self) -> float:
        """Atom part plus, per piece, the integral of x^2 times its density.

        With z = alpha*x + beta a piece's integral becomes
        c/alpha^3 * int (z - beta)^2 pdf(z) dz over the mapped interval, and
        int pdf, int z*pdf, int z^2*pdf all reduce to cdf/pdf evaluations.
        On a short mapped interval (the scad blend piece as a -> 2) that sum
        cancels, so such a piece is integrated in x by 8-point Gauss-Legendre.
        """
        self._single_law("second_moment")
        out = 0.0
        for loc, w in self.atoms:
            if math.isinf(loc):
                if w > 0.0:
                    return math.inf
                continue
            out += w * loc**2
        mapped = [(s * lo + b, s * hi + b) for _, s, b, lo, hi in self.pieces]
        short = [abs(zb - za) < _SHORT_PIECE for za, zb in mapped]
        pdf = iter(norm_pdf(np.array([z for zs, sh in zip(mapped, short) if not sh for z in zs])).tolist())
        if any(short):  # one row of quadrature nodes per short piece
            coeff, slope, shift, lower, upper = np.array([p for p, sh in zip(self.pieces, short) if sh]).T[..., None]
            half = 0.5 * (upper - lower)
            x = 0.5 * (upper + lower) + half * _GL_NODES
            f = coeff * x**2 * norm_pdf(slope * x + shift)
            quadrature = iter([h * float(np.dot(_GL_WEIGHTS, row)) for h, row in zip(half.ravel().tolist(), f)])
        ac = 0.0
        for (c, s, b, _, _), (za, zb), sh, phi_a, phi_b in zip(self.pieces, mapped, short,
                                                               self._phi_lower, self._phi_upper):
            if sh:
                ac += next(quadrature)
                continue
            pa, pb = next(pdf), next(pdf)  # exactly 0.0 at an infinite end
            i0 = phi_b - phi_a
            i1 = pa - pb
            # z * pdf(z) has the limit 0 at +-inf
            i2 = i0 + (0.0 if math.isinf(za) else za * pa) - (0.0 if math.isinf(zb) else zb * pb)
            ac += (c / s**3) * (i2 - 2.0 * b * i1 + b**2 * i0)
        return out + ac

    def rescaled(self, s: float) -> "MixtureDistribution":
        """Law of X/s when this law describes X; requires finite s > 0."""
        inv = _inverse_scale(s)
        return MixtureDistribution(
            atoms=tuple(Atom(loc * inv, w) for loc, w in self.atoms),
            pieces=tuple(GaussPiece(c * s, slope * s, b, lo * inv, hi * inv)
                         for c, slope, b, lo, hi in self.pieces),
        )

    def breakpoints(self) -> list:
        """Finite interval endpoints and atom locations, sorted; quadrature panels."""
        self._single_law("breakpoints")
        pts = {p.lower for p in self.pieces} | {p.upper for p in self.pieces} | {a.loc for a in self.atoms}
        return sorted(v for v in pts if math.isfinite(v))

    def to_json(self) -> dict:
        self._single_law("to_json")
        return {
            "atoms": [{"loc": _real_to_json(a.loc), "weight": a.weight} for a in self.atoms],
            "pieces": [dict(p._asdict(), lower=_real_to_json(p.lower), upper=_real_to_json(p.upper))
                       for p in self.pieces],
        }

    @classmethod
    def from_json(cls, obj) -> "MixtureDistribution":
        return cls(
            atoms=[Atom(a["loc"], a["weight"]) for a in obj["atoms"]],
            pieces=[GaussPiece(*(p[k] for k in GaussPiece._fields)) for p in obj["pieces"]],
        )


def _cut_points(point: ModelPoint, tuning: TuningPlan):
    """(loc, se) = (-sqrt(n)*theta, sqrt(n)*eta), the arguments of `_mixture`."""
    s = point.sqrt_n
    theta = np.array(point.theta) if isinstance(point.theta, tuple) else point.theta
    return -s * theta, s * tuning.eta


def _zero_mass(loc: float, se: float) -> float:
    """Phi(loc + se) - Phi(loc - se): the mass of the event estimate == 0.

    loc may be a float or an array; either way this is one normal-cdf call
    per end.  On a float that beats stacking both ends into one call, and on
    an array it keeps every temporary of the call at the size of loc.
    """
    return norm_cdf(loc + se) - norm_cdf(loc - se)


def atom_weight(point: ModelPoint, tuning: TuningPlan) -> float:
    """P_{n,theta}(estimate == 0), identical for all three estimator kinds."""
    return _zero_mass(*_cut_points(point, tuning))


def _mixture(kind: EstimatorKind, loc, se: float, a: float) -> MixtureDistribution:
    """Law of sqrt(n)*(estimate - theta) at loc = -sqrt(n)*theta, se = sqrt(n)*eta.

    Every kind shares the atom at loc, carried by the event estimate == 0;
    only the pieces differ.  An array loc gives a batch of laws.  Hard
    excises (loc - se, loc + se], soft shifts each side by -+se, and scad
    has six pieces, from left to right:
      (-inf, loc - a*se]       normal tail,
      (loc - a*se, loc - se]   blend, slope (a-2)/(a-1),
      (loc - se, loc]          soft-type, shift -se,
      (loc, loc + se]          soft-type, shift +se,
      (loc + se, loc + a*se]   blend,
      (loc + a*se, inf)        normal tail.
    """
    atom = Atom(loc, _zero_mass(loc, se))
    if kind is EstimatorKind.HARD:
        pieces = (GaussPiece(1.0, 1.0, 0.0, -math.inf, loc - se), GaussPiece(1.0, 1.0, 0.0, loc + se, math.inf))
    elif kind is EstimatorKind.SOFT:
        pieces = (GaussPiece(1.0, 1.0, -se, -math.inf, loc), GaussPiece(1.0, 1.0, se, loc, math.inf))
    elif kind is EstimatorKind.SCAD:
        ratio = (a - 2.0) / (a - 1.0)
        b_lo = loc - a * se
        b_hi = loc + a * se
        pieces = (
            GaussPiece(1.0, 1.0, 0.0, -math.inf, b_lo),
            GaussPiece(ratio, ratio, b_lo / (a - 1.0), b_lo, loc - se),
            GaussPiece(1.0, 1.0, -se, loc - se, loc),
            GaussPiece(1.0, 1.0, se, loc, loc + se),
            GaussPiece(ratio, ratio, b_hi / (a - 1.0), loc + se, b_hi),
            GaussPiece(1.0, 1.0, 0.0, b_hi, math.inf),
        )
    else:
        raise ValueError(f"unknown estimator kind {kind!r}")
    return MixtureDistribution(atoms=(atom,), pieces=pieces)


def finite_sample_dist(kind: EstimatorKind, point: ModelPoint, tuning: TuningPlan) -> MixtureDistribution:
    """Exact law of sqrt(n)*(estimate - theta) under P_{n,theta}.

    For a batch of points (a vector theta) this is the batch of their laws.
    """
    return _mixture(kind, *_cut_points(point, tuning), tuning.scad_a)


def rescaled_dist(kind: EstimatorKind, point: ModelPoint, tuning: TuningPlan) -> MixtureDistribution:
    """Exact law of (estimate - theta)/eta: the sqrt(n) law scaled by 1/(sqrt(n)*eta)."""
    return finite_sample_dist(kind, point, tuning).rescaled(point.sqrt_n * tuning.eta)


LAWS = {"sqrt_n": finite_sample_dist, "inv_eta": rescaled_dist}


def scaled_risk(kind: EstimatorKind, point: ModelPoint, tuning: TuningPlan) -> float:
    """E[n*(estimate - theta)^2], i.e. the second moment of the sqrt(n) law."""
    return finite_sample_dist(kind, point, tuning).second_moment()
