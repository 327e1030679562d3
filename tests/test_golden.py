"""Golden replay: every recorded seed (0-29) of every benchmark workload, sent
through `cli.main`, must write the bytes recorded in perfbench/golden.json."""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

import latticeic.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_workloads()
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())


def replay(tmp_path, workload, seed):
    """The SHA-256 of each output file of one seed's requests."""
    reqs = WORKLOADS.generate(workload, seed)
    for req in reqs:
        for name, text in req.files.items():
            (tmp_path / name).write_text(text)
    digests = []
    for req in reqs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert latticeic.cli.main([a.replace("{work}", str(tmp_path)) for a in req.argv]) == 0, req.name
        digests.append(hashlib.sha256((tmp_path / req.output).read_bytes()).hexdigest())
    return digests


@pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
def test_seed_zero_matches_golden(tmp_path, workload):
    assert replay(tmp_path, workload, 0) == GOLDEN[workload]["0"]


# the closed-form workload is cheap enough to replay every recorded seed
@pytest.mark.parametrize("seed", range(1, 30))
def test_closed_form_seed_matches_golden(tmp_path, seed):
    assert replay(tmp_path, "closed-form", seed) == GOLDEN["closed-form"][str(seed)]


# the other recorded seeds of the Monte Carlo workloads, for the restricted and full-lattice decoders
@pytest.mark.parametrize("workload, seed", [(w, seed) for w in ("mc-shape", "mc-decode") for seed in range(1, 30)])
def test_monte_carlo_seed_matches_golden(tmp_path, workload, seed):
    assert replay(tmp_path, workload, seed) == GOLDEN[workload][str(seed)]
