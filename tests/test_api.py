import ast
import importlib
import math
import pkgutil
import re
from pathlib import Path

import pytest

import shrinkdist
from shrinkdist.estimators import TuningPlan, estimate, penalized_objective
from shrinkdist.finite_dist import ModelPoint, finite_sample_dist
from shrinkdist.impossibility import OracleCheat, TwoPointProblem, estimator_worst_case, rescaled_lower_bound
from shrinkdist.limits import conservative_limit, consistent_limit, rescaled_limit
from shrinkdist.montecarlo import uniform_rate_experiment
from shrinkdist.selection import PowerTuningPath, RegimeSpec

MODULES = [importlib.import_module(f"shrinkdist.{m.name}") for m in pkgutil.iter_modules(shrinkdist.__path__)]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    # tools that wrap the public API call getattr on every __all__ entry
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing


def _defined_names(body):
    """The names a module or class body defines: its functions, classes and assigned names, and a class's own."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from _defined_names(node.body)
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name))


def test_every_private_name_in_src_is_loaded_in_src():
    # a helper that a change retires goes with it: every private name (one leading underscore) that a module or
    # class body of src/shrinkdist defines is loaded somewhere there, as a name or as an attribute
    trees = [ast.parse(path.read_text()) for path in sorted(Path(shrinkdist.__file__).parent.glob("*.py"))]
    private = {name for tree in trees for name in _defined_names(tree.body) if re.fullmatch(r"_[^_]\w*", name)}
    loaded = {node.id if isinstance(node, ast.Name) else node.attr for tree in trees for node in ast.walk(tree)
              if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    assert len(private) > 50 and private - loaded == set()


def test_readme_python_blocks_run():
    # every python block of the README, in order, in one namespace
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(), flags=re.M | re.S)
    assert len(blocks) >= 5
    namespace = {}
    for block in blocks:
        exec(compile(block, str(readme), "exec"), namespace)


# the estimators, the law builders, the uniform-rate experiment and the cdf-estimation problem, each given a kind;
# consistent_limit below and past the boundary; and takers whose other arguments are bad too (a NaN ybar, theta or
# nu, no zeta, n = 0), where the kind is named first
KIND_TAKERS = {
    "estimate": lambda kind: estimate(kind, 1.0, TuningPlan(0.5)),
    "estimate-nan-ybar": lambda kind: estimate(kind, math.nan, TuningPlan(0.5)),
    "penalized_objective": lambda kind: penalized_objective(kind, 0.1, 0.2, 10, TuningPlan(0.5)),
    "penalized_objective-nan-theta": lambda kind: penalized_objective(kind, math.nan, 0.2, 10, TuningPlan(0.5)),
    "TwoPointProblem-zero-n": lambda kind: TwoPointProblem(n=0, t=0.0, delta=0.1, tuning=TuningPlan(0.5), kind=kind),
    "rescaled_lower_bound-zero-n": lambda kind: rescaled_lower_bound(kind, 0, 0.5, TuningPlan(0.5)),
    "estimator_worst_case-zero-n": lambda kind: estimator_worst_case(OracleCheat(), kind, 0, 0.0, TuningPlan(0.5), 2.0,
                                                                     seed=1),
    "finite_sample_dist": lambda kind: finite_sample_dist(kind, ModelPoint(10, 0.1), TuningPlan(0.5)),
    "conservative_limit-finite-nu": lambda kind: conservative_limit(kind, 0.3, 1.0),
    "conservative_limit-infinite-nu": lambda kind: conservative_limit(kind, math.inf, 1.0),
    "conservative_limit-nan-nu": lambda kind: conservative_limit(kind, math.nan, 1.0),
    "consistent_limit-below-boundary": lambda kind: consistent_limit(kind, RegimeSpec(math.inf, zeta=0.5)),
    "consistent_limit-past-boundary": lambda kind: consistent_limit(kind, RegimeSpec(math.inf, zeta=5.0)),
    "rescaled_limit": lambda kind: rescaled_limit(kind, RegimeSpec(math.inf, zeta=5.0)),
    "rescaled_limit-no-zeta": lambda kind: rescaled_limit(kind, RegimeSpec(math.inf)),
    "uniform_rate_experiment": lambda kind: uniform_rate_experiment(kind, PowerTuningPath(1.0, 0.25), 6.0, [100]),
}


@pytest.mark.parametrize("kind", ["hard", None])
@pytest.mark.parametrize("taker", KIND_TAKERS)
def test_a_kind_that_is_not_an_estimator_kind_is_rejected_by_name(taker, kind):
    with pytest.raises(ValueError) as err:
        KIND_TAKERS[taker](kind)
    assert str(err.value) == f"unknown estimator kind {kind!r}"
