"""`tools/domain_scan.py` on a two-cell grid: one law that meets the oracle's bound and one that misses it."""

import importlib.util
from pathlib import Path

from shrinkdist.estimators import EstimatorKind

_SPEC = importlib.util.spec_from_file_location("domain_scan", Path(__file__).parents[1] / "tools" / "domain_scan.py")
domain_scan = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(domain_scan)

MEET = (EstimatorKind.SOFT, "inv_eta", 40, 0.025, 0.05, 3.7)
MISS = (EstimatorKind.SCAD, "sqrt_n", 1, -3.7e150, 1e150, 3.7)  # the blend join at theta = -a*eta, knots past 1e150
RAISE = (EstimatorKind.HARD, "sqrt_n", 10**18, -5e299, 1e300, 3.7)  # sqrt(n)*eta overflows: loc + se is inf - inf


def test_scan_counts_meet_and_miss_and_names_the_worst_miss():
    result = domain_scan.scan([MEET, MISS])
    assert result["counts"] == {("soft", "inv_eta", "meet"): 1, ("scad", "sqrt_n", "miss"): 1}
    assert result["worst_miss"][1] == MISS and result["worst_miss"][0] > 1000.0
    assert result["raises"] == {}
    text = domain_scan.report(result)
    assert "total (meet, miss, raise) = (1, 1, 0)" in text and "> 1000x 1" in text


def test_probe_gives_a_raise_its_message():
    assert domain_scan.probe(*RAISE) == "atom weight must be finite and nonnegative"


def test_grid_is_the_declared_domain():
    assert len(list(domain_scan.cells())) == 10_710
