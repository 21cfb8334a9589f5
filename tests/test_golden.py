"""Output bytes of the CLI pinned by sha256 digests.

Refactors of the law core must leave every figure, dist and experiment
file byte for byte as it is.  The dist configuration (n, theta, eta, a) =
(25, -0.3, 0.08, 2.5) is one where rescaling the interval ends by x / s
instead of x * (1 / s) changes some ends by an ulp, and the limits
experiment writes laws with ends and atoms at +-inf.  The impossibility
experiment runs at a fixed seed, once with the default pretest and once
with the bootstrap, whose configuration is written as a JSON file.  Both
of those write error probabilities of only 0 and 1, so a third run, the
bootstrap for scad under conservative tuning at n = 100, pins an error
curve that runs from 0.0005 to 0.83.

After a deliberate change of the outputs, rewrite the digests with
`PYTHONPATH=src python tests/test_golden.py`.
"""

import hashlib
import json
from pathlib import Path

import pytest

from shrinkdist.cli import main

DIGESTS = Path(__file__).with_name("golden_digests.json")
GOLDEN = json.loads(DIGESTS.read_text())
DIST_CONFIG = ["--n", "25", "--theta", "-0.3", "--eta", "0.08", "--a", "2.5"]
IMPOSSIBILITY = ["experiment", "impossibility", "--reps", "2000", "--seed", "20090301"]
CONFIGS = {
    "experiment_impossibility_bootstrap": {"estimator": "bootstrap"},
    "experiment_impossibility_scad_conservative": {"kind": "scad", "gamma": 0.5, "estimator": "bootstrap", "n": 100},
}

COMMANDS = {
    **{f"figure{k}": ["figure", str(k)] for k in (1, 2, 3)},
    **{f"dist_{kind}_{scaling}": ["dist", "--kind", kind, "--scaling", scaling, *DIST_CONFIG]
       for kind in ("hard", "soft", "scad") for scaling in ("sqrt_n", "inv_eta")},
    **{f"experiment_{name}": ["experiment", name] for name in ("selection", "limits", "uniform-rate")},
    "experiment_impossibility": IMPOSSIBILITY,
    "experiment_impossibility_bootstrap": IMPOSSIBILITY,
    "experiment_impossibility_scad_conservative": IMPOSSIBILITY,
}


def output_digests(root: Path) -> dict:
    """{'<command>/<file>': sha256} for every data file the commands write."""
    digests = {}
    for label, argv in COMMANDS.items():
        out = root / label
        if label in CONFIGS:
            config = root / f"{label}.json"
            config.write_text(json.dumps(CONFIGS[label]))
            argv = [*argv, "--config", str(config)]
        assert main([*argv, "--out", str(out)]) == 0, label
        for path in sorted(out.iterdir()):
            if path.name != "manifest.json":
                digests[f"{label}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return output_digests(tmp_path_factory.mktemp("golden"))


def test_output_files_match_golden_list(digests):
    assert sorted(digests) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_match_golden(digests, name):
    assert digests.get(name) == GOLDEN[name], f"{name} differs from its golden digest"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        DIGESTS.write_text(json.dumps(output_digests(Path(tmp)), indent=2, sort_keys=True) + "\n")
