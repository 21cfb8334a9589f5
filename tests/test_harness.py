"""The tier-1 suite itself: a failing test must not hide the others."""

from pathlib import Path

TWO_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_given_test_lets_every_other_test_report(pytester):
    """Under the suite's `error::DeprecationWarning` filter, a failing `@given` test beside a passing one
    reports both, with no INTERNALERROR, given this suite's conftest.py."""
    pytester.makeconftest((Path(__file__).parent / "conftest.py").read_text())
    pytester.makepyfile(test_two=TWO_TESTS)
    result = pytester.runpytest_subprocess("-W", "error::DeprecationWarning")
    output = result.stdout.str() + result.stderr.str()
    assert "INTERNALERROR" not in output
    result.assert_outcomes(failed=1, passed=1)
