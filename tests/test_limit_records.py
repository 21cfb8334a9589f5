"""Every limit law's records, bit for bit, against the hand-built laws of `tests/oracles.py`."""

import math

import pytest
from oracles import conservative_limit_reference, consistent_limit_reference, rescaled_limit_reference

from shrinkdist.estimators import EstimatorKind
from shrinkdist.limits import conservative_limit, consistent_limit, rescaled_limit
from shrinkdist.selection import RegimeSpec

SCAD_AS = [2.0 + 1e-12, 2.5, 3.7, 50.0]
NUS = [-math.inf, -0.7, -0.0, 0.0, 2.0, math.inf]
ES = [0.0, -0.0, 1e-300, 0.5, 1.96, 1e300]
RS = [-math.inf, -40.0, -1.5, -0.0, 0.0, 0.25, 3.0, math.inf]
RS_AT_ONE = [-math.inf, -1.5, 0.0, math.inf]


def _hexes(law) -> tuple:
    """The atoms and the pieces, in order, each field as float.hex: -0.0 and 0.0 differ."""
    return tuple(tuple(map(float.hex, a)) for a in law.atoms), tuple(tuple(map(float.hex, p)) for p in law.pieces)


@pytest.mark.parametrize("a", SCAD_AS)
@pytest.mark.parametrize("kind", list(EstimatorKind))
def test_conservative_limit_records_equal_the_hand_built_laws(kind, a):
    for nu in NUS:
        for e in ES:
            got = _hexes(conservative_limit(kind, nu, e, a))
            assert got == _hexes(conservative_limit_reference(kind, nu, e, a)), (nu, e)


@pytest.mark.parametrize("a", SCAD_AS)
@pytest.mark.parametrize("kind", [EstimatorKind.HARD, EstimatorKind.SCAD])
def test_consistent_limit_records_equal_the_hand_built_laws(kind, a):
    boundary = 1.0 if kind is EstimatorKind.HARD else a
    for zeta in [s * z for z in (boundary, 1.5 * boundary, math.inf) for s in (1.0, -1.0)]:
        for r in RS:
            regime = RegimeSpec(math.inf, zeta=zeta, r=r)
            got = _hexes(consistent_limit(kind, regime, a))
            assert got == _hexes(consistent_limit_reference(kind, zeta, r, regime.nu, a)), (zeta, r)


def _around(z: float) -> tuple:
    """z and the floats one ulp on either side."""
    return math.nextafter(z, -math.inf), z, math.nextafter(z, math.inf)


@pytest.mark.parametrize("a", SCAD_AS)
@pytest.mark.parametrize("kind", list(EstimatorKind))
def test_rescaled_limit_records_equal_the_per_branch_laws(kind, a):
    magnitudes = (0.0, 1e-300, 0.4, *_around(1.0), *_around(2.0), 3.0, *_around(a), 6.0, math.inf)
    for zeta in [s * z for z in magnitudes for s in (1.0, -1.0)]:
        for r in RS_AT_ONE if abs(zeta) == 1.0 else (None,):
            got = _hexes(rescaled_limit(kind, RegimeSpec(math.inf, zeta=zeta, r=r), a))
            assert got == _hexes(rescaled_limit_reference(kind, zeta, r, a)), (zeta, r)
