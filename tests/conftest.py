"""Suite-wide setup: every failing test is reported, a failing hypothesis test too.

When a `@given` test fails, hypothesis's pytest plugin imports
`hypothesis.extra._patching` inside its `pytest_runtest_makereport`
hookwrapper to suggest a patch.  That module imports libcst, which meets a
`DeprecationWarning` from mypy_extensions; under the
`error::DeprecationWarning` filter of pyproject.toml the warning is raised
in the hook, and the run ends with INTERNALERROR, leaving every later test
unrun and unreported.  The plain hook below runs inside that wrapper, before
its import: once a phase of a `@given` test (one with the `.hypothesis`
handle) has raised, it imports the module with that warning ignored,
leaving it cached for the plugin.  The filters stay as they are for every
test, and a run in which no hypothesis test fails never imports libcst.
`test_harness.py` checks it.
"""

import warnings

pytest_plugins = ["pytester"]


def pytest_runtest_makereport(item, call):
    """Pre-import hypothesis's patching module after a `@given` test raised; return None, so pytest makes the report."""
    if call.excinfo is not None and hasattr(getattr(item, "obj", None), "hypothesis"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            try:
                import hypothesis.extra._patching  # noqa: F401
            except ImportError:  # without libcst the plugin skips its patch, and nothing is raised
                pass
