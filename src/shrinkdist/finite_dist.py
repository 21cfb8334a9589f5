"""Exact sampling distributions of the thresholding estimators.

The law of sqrt(n)*(estimate - theta) is, for every kind, a mixture of one
point mass (sitting at -sqrt(n)*theta, carried by the event estimate == 0)
and an absolutely continuous part assembled from scaled-Gaussian pieces

    x  |->  alpha * pdf(alpha*x + beta)   on (lower, upper],  alpha > 0,

so every cdf value, mass, and second moment is a finite combination of
normal cdf evaluations.  No quadrature appears on this path; quadrature is
test-oracle material only.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from typing import NamedTuple

import numpy as np

from .estimators import EstimatorKind, TuningPlan
from .normal_kernel import (_FLOAT_MAX, _check_count, _check_real, _check_reals, _no_nan, _scalar_or_array, norm_cdf,
                            norm_pdf)

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
_CUBE_RANGE = (2.0**-340, 2.0**340)  # slopes s whose s**3 is a normal float


@dataclass(frozen=True)
class ModelPoint:
    """Sample size and true location indexing one experiment P_{n,theta}.

    `theta` is stored as a float.  A nonempty 1-d list, tuple or array of
    locations (the array rule of `_check_reals`) is a batch of points at one
    n, whose laws `finite_sample_dist` builds as one batch, stored as a tuple
    of floats: a point stays immutable, hashable and comparable either way.
    """

    n: int
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "n", _check_count(self.n))
        batch = isinstance(self.theta, (list, tuple)) or isinstance(self.theta, np.ndarray) and self.theta.ndim != 0
        theta = tuple(_check_reals(self.theta, "theta").tolist()) if batch else _check_real(self.theta, "theta")
        object.__setattr__(self, "theta", theta)

    @property
    def sqrt_n(self) -> float:
        return math.sqrt(self.n)


def _real_to_json(v: float):
    # JSON has no infinities: they travel as the strings "+inf" and "-inf",
    # which float() reads back
    if math.isinf(v):
        return "+inf" if v > 0 else "-inf"
    return v


def _inverse_scale(s) -> tuple:
    """(s, 1/s) as floats for a real scale s > 0 (`_check_real`) whose inverse is finite (a subnormal s has none).

    Ends and locations are rescaled as x * (1/s), not x / s: the two differ
    in the last bit for some x, and the published output bytes use the former.
    """
    s = _check_real(s, "scale", gt=0)
    if not math.isfinite(1.0 / s):
        raise ValueError(f"scale must be positive and finite, with a finite inverse (got {s!r})")
    return s, 1.0 / s


def _times_square(w: float, v: float) -> float:
    """w * v**2; where v**2 alone would overflow, (w * v) * v, which overflows only where the product does."""
    return w * v**2 if abs(v) < 1e150 else w * v * v


class GaussPiece(NamedTuple):
    """Density slope * pdf(slope*x + shift), slope > 0, supported on (lower, upper]; ends may be +-inf."""

    slope: float
    shift: float
    lower: float
    upper: float


class Atom(NamedTuple):
    """Point mass; the location may be +-inf (escaped mass)."""

    loc: float
    weight: float


def _cdf_term(s, b, base, x):
    """A piece's cdf mass on (lower, x] at points x inside it; at x = upper it is the stored mass bit for bit."""
    return norm_cdf(s * x + b) - base


def _density_term(s, b, base, x):
    """A piece's density at points x inside it."""
    return s * norm_pdf(s * x + b)


def _phi_at_ends(pieces, batch: bool) -> tuple:
    """(ends, Phi at ends): a law's mapped ends s*end + b as (P, 2) rows of the array its one kernel call read.

    A batch keeps no ends (None) and makes one call per end on B values (one stacked call raised peak
    memory), and none at an end infinite for every law, where Phi is exactly 0 or 1.
    """
    if batch:
        ends = (s * end + b for s, b, lo, hi in pieces for end in (lo, hi))
        return None, [(z > 0.0) * 1.0 if np.isinf(z).all() else norm_cdf(z) for z in ends]
    ends = np.array([s * end + b for s, b, lo, hi in pieces for end in (lo, hi)])
    return ends.reshape(-1, 2), norm_cdf(ends).tolist()


def _read_only(v) -> np.ndarray:
    """v as a read-only float64 copy, which no caller can write and no write to v reaches."""
    (v := np.array(v, dtype=float)).flags.writeable = False
    return v


def _unwarned(batch: bool, build, *args):
    """build(*args); a batch of laws under `np.errstate`, so it overflows or turns NaN unwarned, as a float does."""
    if not batch:
        return build(*args)
    with np.errstate(over="ignore", invalid="ignore"):
        return build(*args)


def _checked_records(atoms, pieces) -> tuple:
    """The atoms and pieces of a law or of a batch of laws, coerced and checked, and the batch shape.

    When all are `Atom` and `GaussPiece` records of exact floats they are
    kept as they are; other numbers (or 0-d arrays) are coerced to such
    records.  Either makes a single law, whose shape is None.  Otherwise
    each field is one read-only float array (`_read_only`) in its own shape,
    so a field shared by every law (a piece's slope, say) is one value,
    checked and built on once.  One pass checks a law by plain float
    comparisons and a batch by the same ones on arrays, record by record;
    one bad law rejects the batch with its own message.
    """
    atoms, pieces, shape = tuple(atoms), tuple(pieces), None
    if not ({*map(type, atoms)} <= {Atom} and {*map(type, pieces)} <= {GaussPiece}
            and {type(v) for r in (*atoms, *pieces) for v in r} <= {float}):
        try:
            atoms = tuple(Atom(*map(float, a)) for a in atoms)
            pieces = tuple(GaussPiece(*map(float, p)) for p in pieces)
        except TypeError:  # float() rejects arrays of one or more dimensions
            atoms = tuple(Atom(*map(_read_only, a)) for a in atoms)
            pieces = tuple(GaussPiece(*map(_read_only, p)) for p in pieces)
            shape = np.broadcast_shapes(*(v.shape for r in (*atoms, *pieces) for v in r))
    inf, one_law = math.inf, shape is None
    for loc, w in atoms:
        if not (loc == loc if one_law else np.all(loc == loc)):
            raise ValueError("atom location must not be NaN")
        if not (0.0 <= w < inf if one_law else np.all((w >= 0.0) & (w < inf))):
            raise ValueError("atom weight must be finite and nonnegative")
    for s, b, lower, upper in pieces:
        if not (0.0 < s < inf if one_law else np.all((s > 0.0) & (s < inf))):
            raise ValueError("slope must be finite and positive")
        if not (abs(b) < inf if one_law else np.all(abs(b) < inf)):
            raise ValueError("shift must be finite")
        if not (lower <= upper if one_law else np.all(lower <= upper)):
            raise ValueError("piece interval requires lower < upper (lower == upper is an empty piece)")
    for i, a in enumerate(atoms):
        if not all(a.loc != q.loc if one_law else np.all(a.loc != q.loc) for q in atoms[i + 1:]):
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
    the same ValueError alone or in a batch.  A batch keeps a read-only
    copy of each array field (`_read_only`), so no caller can write it and
    no later write to a caller's array reaches it.

    Building a single law keeps records of exact floats as they are, maps
    each piece end once, makes one normal-cdf call over them, and keeps the
    (P, 2) array of mapped ends that call read and each piece's lower Phi
    value and mass; `second_moment` passes that same array to its one
    normal-pdf call (plus one over the nodes of its short pieces).  `cdf`
    and `density_ac` are one walk over the pieces with two integrands, the
    same walk for a law and a batch: each point is evaluated only by the
    piece that holds it.  The private `_phi` takes the mapped ends and Phi
    values `_phi_at_ends` gives for these very records (a batch keeps no
    ends), which `_mixture` has already taken for the atom's weight.
    """

    atoms: tuple
    pieces: tuple
    _phi: InitVar[tuple | None] = None

    def __post_init__(self, _phi):
        atoms, pieces, shape = _checked_records(self.atoms, self.pieces)
        ends, phi = _phi_at_ends(pieces, shape is not None) if _phi is None else _phi
        lower = tuple(phi[0::2])
        self.__dict__.update(atoms=atoms, pieces=pieces, _shape=shape, _ends=ends, _phi_lower=lower,
                             _masses=tuple(hi - lo for lo, hi in zip(lower, phi[1::2])))  # frozen: no setattr
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

        `_evaluate` with the cdf integrand: a piece adds its mass on
        (lower, x] at the points inside it and its whole mass past its upper
        end, then each atom at or below x adds its weight.  An atom at -inf
        counts for every finite x, an atom at +inf never does, so escaped
        mass shows up as a cdf pinned near 0 or 1.
        """
        return self._evaluate(x, _cdf_term, self._masses, self.atoms)

    def cdf_left(self, x):
        """Left limit of the cdf at x: the cdf minus the finite atoms sitting at x."""
        x = np.asarray(x, dtype=float)
        return self._left_limit(x, self.cdf(x))

    def _left_limit(self, x: np.ndarray, cdf):
        """The left limit of the cdf from its values `cdf` at x.

        The two differ only where x is a finite atom location, by that
        atom's weight, so no piece is evaluated again.
        """
        for loc, w in self.atoms:
            cdf = cdf - w * (abs(loc) < math.inf) * (x == loc)
        return cdf if np.ndim(cdf) else float(cdf)

    def density_ac(self, x):
        """Density of the absolutely continuous part; atoms are not represented.

        `_evaluate` with the pdf integrand, adding nothing past a piece and
        no atom; it is 0 at +-inf, and NaN x raises ValueError.
        """
        return self._evaluate(x, _density_term, (0.0,) * len(self.pieces), ())

    @np.errstate(over="ignore")
    def _evaluate(self, x, term, past, atoms):
        """Sum from zero each piece's `term` at the x inside it and `past` beyond it, then the `atoms`.

        A law and a batch of laws share this one walk, which masks each
        piece's points; a float or 0-d x comes back as a float from a law.
        A batch of laws evaluates law i at x[i], and a 0-d x for every law.
        In piece order, a piece adds `past` beyond its upper end and its
        term inside, in place; the cdf term at the upper end is the stored
        mass bit for bit, and the total is never -0.0.  Overflow is ignored:
        s*x overflows only past every finite mapped point, where Phi is
        exactly 0 or 1 and the pdf 0.
        """
        x = _no_nan(x)
        if self._shape is not None:
            if x.ndim and x.shape != self._shape:
                raise ValueError(f"x of shape {x.shape} does not match the batch of laws of shape {self._shape}")
            x = np.broadcast_to(x, self._shape)
        total = np.zeros_like(x)
        for (s, b, lo, hi), base, beyond in zip(self.pieces, self._phi_lower, past):
            inside = (x > lo) & (x <= hi)
            np.add(total, beyond, out=total, where=x > hi)
            if inside.any():  # a piece holding no point makes no kernel call
                s, b, base = (np.broadcast_to(v, x.shape)[inside] if np.ndim(v) else v for v in (s, b, base))
                total[inside] += term(s, b, base, x[inside])
        for loc, w in atoms:
            np.add(total, w, out=total, where=(x >= loc) & (loc < math.inf))
        return _scalar_or_array(x, total)

    def _single_law(self, method: str):
        if self._shape is not None:
            raise ValueError(f"{method} takes a single law, not a batch of laws")

    def second_moment(self) -> float:
        """Atom part plus, per piece, the integral of x^2 times its density.

        With z = alpha*x + beta a piece's integral becomes
        1/alpha^2 * int (z - beta)^2 pdf(z) dz over the mapped interval, and
        int pdf, int z*pdf, int z^2*pdf all reduce to cdf/pdf evaluations.
        On a short mapped interval (the scad blend piece as a -> 2) that sum
        cancels, so such a piece is integrated in x by 8-point Gauss-Legendre.
        At extreme scales (a tiny or a huge eta) the result is inf only where
        the moment itself overflows: a huge atom location or shift, or
        1/alpha^2 far from 1, is applied in steps that overflow only where
        the product does.
        """
        self._single_law("second_moment")
        out = 0.0
        for loc, w in self.atoms:
            if math.isinf(loc):
                if w > 0.0:
                    return math.inf
                continue
            out += _times_square(w, loc)
        # an empty piece takes the closed form, which gives it exactly 0 where the nodes' x**2 may overflow
        ends = self._ends.tolist()
        short = [lo < hi and abs(zb - za) < _SHORT_PIECE for (za, zb), (_, _, lo, hi) in zip(ends, self.pieces)]
        pdf = norm_pdf(self._ends).tolist()  # at the build's mapped ends; exactly 0.0 at an infinite one
        if any(short):  # one row of quadrature nodes per short piece
            slope, shift, lower, upper = np.array([p for p, sh in zip(self.pieces, short) if sh]).T[..., None]
            half = 0.5 * (upper - lower)
            x = 0.5 * (upper + lower) + half * _GL_NODES
            node_pdf = norm_pdf(slope * x + shift)  # a node where it is 0.0 adds 0, as z*pdf(z) does below
            f = slope * np.where(node_pdf > 0.0, x, 0.0)**2 * node_pdf
            quadrature = iter([h * float(np.dot(_GL_WEIGHTS, row)) for h, row in zip(half.ravel().tolist(), f)])
        ac = 0.0
        for (s, b, _, _), (za, zb), (pa, pb), sh, i0 in zip(self.pieces, ends, pdf, short, self._masses):
            if sh:
                ac += next(quadrature)
                continue
            i1 = pa - pb
            # z * pdf(z) has the limit 0 at +-inf, where pdf is 0.0; at a finite z, z * 0.0 adds nothing either
            i2 = i0 + (za * pa if pa else 0.0) - (zb * pb if pb else 0.0)
            moment = i2 - 2.0 * b * i1 + _times_square(i0, b)
            # s / s**3, not 1/s**2, which differs in the last bit; where s**3 would over- or underflow,
            # two divisions, which overflow only where the term does
            ac += (s / s**3) * moment if _CUBE_RANGE[0] < s < _CUBE_RANGE[1] else moment / s / s
        return out + ac

    def rescaled(self, s: float) -> "MixtureDistribution":
        """Law of X/s for finite s > 0; a batch of laws rescales `_unwarned`, overflowing quietly as a float does."""
        s, inv = _inverse_scale(s)
        return _unwarned(self._shape is not None, lambda: MixtureDistribution(
            tuple(Atom(loc * inv, w) for loc, w in self.atoms),
            tuple(GaussPiece(slope * s, b, lo * inv, hi * inv) for slope, b, lo, hi in self.pieces)))

    def breakpoints(self) -> list:
        """Finite interval endpoints and atom locations, sorted; quadrature panels."""
        self._single_law("breakpoints")
        pts = {p.lower for p in self.pieces} | {p.upper for p in self.pieces} | {a.loc for a in self.atoms}
        return sorted(v for v in pts if math.isfinite(v))

    def to_json(self) -> dict:
        self._single_law("to_json")
        return {
            "atoms": [{"loc": _real_to_json(a.loc), "weight": a.weight} for a in self.atoms],
            "pieces": [dict(p._asdict(), coeff=p.slope, lower=_real_to_json(p.lower), upper=_real_to_json(p.upper))
                       for p in self.pieces],
        }

    @classmethod
    def from_json(cls, obj) -> "MixtureDistribution":
        """Inverse of `to_json`, whose pieces keep a "coeff" key equal to the slope; a mismatch raises ValueError."""
        for p in obj["pieces"]:
            if p["coeff"] != p["slope"]:
                raise ValueError(f"piece coeff {p['coeff']!r} must equal its slope {p['slope']!r}")
        return cls(
            atoms=[Atom(a["loc"], a["weight"]) for a in obj["atoms"]],
            pieces=[GaussPiece(*(p[k] for k in GaussPiece._fields)) for p in obj["pieces"]],
        )


def _cut_points(point: ModelPoint, tuning: TuningPlan):
    """(loc, se) = (-sqrt(n)*theta, sqrt(n)*eta), the arguments of `_mixture`."""
    s = point.sqrt_n
    if isinstance(point.theta, tuple):  # so a batch's loc past the float range is -+inf unwarned, as a float's is
        with np.errstate(over="ignore"):
            return -s * np.array(point.theta), s * tuning.eta
    return -s * point.theta, s * tuning.eta


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


def _clip_to_floats(v):
    """v with -+inf moved to -+the largest float; a single law's float takes no numpy call."""
    return np.clip(v, -_FLOAT_MAX, _FLOAT_MAX) if isinstance(v, np.ndarray) else min(max(v, -_FLOAT_MAX), _FLOAT_MAX)


def _pieces(kind: EstimatorKind, knot, se, a: float) -> tuple:
    """A kind's pieces, left to right, ending at `knot(c)`, the point where the estimate is c*eta.

    `knot(c)` is sqrt(n)*(c*eta - theta), the knot x_k of the estimator map in ROADMAP.md, for c in
    {0, -+1, -+a}; a limit law passes the knots' limits.  Hard excises (knot(-1), knot(1)], soft
    shifts each side of knot(0) by -+se, and scad has six pieces:
      (-inf, knot(-a)]        normal tail,
      (knot(-a), knot(-1)]    blend, slope (a-2)/(a-1), shift knot(-a)/(a-1),
      (knot(-1), knot(0)]     soft-type, shift -se,
      (knot(0), knot(1)]      soft-type, shift +se,
      (knot(1), knot(a)]      blend, shift knot(a)/(a-1),
      (knot(a), inf)          normal tail.
    Past the float range a knot is -+inf, its blend piece is empty, and the blend's shift is clipped
    to a float.
    """
    if kind is EstimatorKind.HARD:
        return GaussPiece(1.0, 0.0, -math.inf, knot(-1)), GaussPiece(1.0, 0.0, knot(1), math.inf)
    if kind is EstimatorKind.SOFT:
        return GaussPiece(1.0, -se, -math.inf, knot(0)), GaussPiece(1.0, se, knot(0), math.inf)
    if kind is EstimatorKind.SCAD:
        ratio = (a - 2.0) / (a - 1.0)
        b_lo, lo, mid, hi, b_hi = map(knot, (-a, -1, 0, 1, a))
        return (
            GaussPiece(1.0, 0.0, -math.inf, b_lo),
            GaussPiece(ratio, _clip_to_floats(b_lo / (a - 1.0)), b_lo, lo),
            GaussPiece(1.0, -se, lo, mid),
            GaussPiece(1.0, se, mid, hi),
            GaussPiece(ratio, _clip_to_floats(b_hi / (a - 1.0)), hi, b_hi),
            GaussPiece(1.0, 0.0, b_hi, math.inf),
        )
    raise ValueError(f"unknown estimator kind {kind!r}")


def _mixture(kind: EstimatorKind, loc, se: float, a: float) -> MixtureDistribution:
    """Law of sqrt(n)*(estimate - theta) at loc = -sqrt(n)*theta, se = sqrt(n)*eta; an array loc gives a batch.

    Every kind shares the atom at loc, carried by the event estimate == 0, and its `_pieces` end at the
    knots loc + c*se, or at loc itself for c = 0, so that a -0.0 stays -0.0.  The atom's weight comes
    from the build's Phi at the middle two mapped ends, loc -+ se, and is `_zero_mass(loc, se)` bit for bit.
    Only a batch builds `_unwarned`, so its knots and mapped ends overflow or turn NaN quietly, as a float's do.
    """
    batch = isinstance(loc, np.ndarray) and loc.ndim != 0
    pieces = _unwarned(batch, _pieces, kind, lambda c: loc + c * se if c else loc, se, a)
    ends, phi = _unwarned(batch, _phi_at_ends, pieces, batch)  # a -0.0 end may map to +0.0: Phi is 0.5 at both
    return MixtureDistribution((Atom(loc, phi[len(pieces)] - phi[len(pieces) - 1]),), pieces, (ends, phi))


@np.errstate(over="ignore", invalid="ignore")
def _mapped_point(kind: EstimatorKind, x, loc, se, a: float) -> np.ndarray:
    """The z at which the law `_mixture(kind, loc, se, a)` has cdf Phi(z) at each x, unwarned, with no law built.

    z is s*x + b of the `_pieces` piece holding x, the very float the walk passes to Phi (in hard's gap, the upper
    end of the piece below; from the atom on, at least the lower end of the piece above).  A law whose ends could
    miss by a mass past `_MASS_TOL` at a join off the atom is built, to check it.  The knot table (ROADMAP.md)
    grows from this: it is to make `cdf` itself Phi of the mapped point.
    """
    pieces, z = _pieces(kind, lambda c: loc + c * se if c else loc, se, a), np.full(np.shape(x), -math.inf)
    ends = [(s * lo + b, s * hi + b) for s, b, lo, hi in pieces]
    for (s, b, lo, _), (_, top) in zip(pieces, ends):
        np.copyto(z, np.minimum(s * x + b, top), where=x > lo)
    above = len(pieces) // 2  # the piece above the atom
    np.maximum(z, ends[above][0], out=z, where=x >= loc)
    gaps = [np.fmax(abs(top - bottom), 0.0) for (_, top), (bottom, _) in zip(ends, ends[1:])]  # NaN: one infinity
    if np.any(doubt := 0.4 * sum(gaps[:above - 1] + gaps[above:]) > _MASS_TOL):  # the normal density is below 0.4
        _mixture(kind, np.asarray(loc)[doubt], se, a)
    return z


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
