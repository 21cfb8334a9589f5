"""Suite-wide setup: every failing test is reported, a failing hypothesis test too.

When a `@given` test fails, hypothesis's pytest plugin imports
`hypothesis.extra._patching` inside a pytest hook to suggest a patch.  That
module imports libcst, which meets a `DeprecationWarning` from
mypy_extensions; under the `error::DeprecationWarning` filter of
pyproject.toml the warning is raised in the hook, and the run ends with
INTERNALERROR, leaving every later test unrun and unreported.  Importing it
once here, with that warning ignored, leaves it cached for the plugin, and
the filters stay as they are for every test.  `test_harness.py` checks it.
"""

import warnings

pytest_plugins = ["pytester"]

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst the plugin skips its patch, and nothing is raised
        pass
