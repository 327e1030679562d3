"""The package's public names and the hooks the benchmark's tracer wraps."""

import importlib.util
from pathlib import Path

import latticeic
import latticeic.cli

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_exported_name_resolves():
    missing = [name for name in latticeic.__all__ if not hasattr(latticeic, name)]
    assert missing == []


def test_tracer_installs_and_uninstalls(tmp_path):
    tracer = load_tracer()
    homes = {layer: getattr(latticeic, layer) for layer in tracer.WRAPPED}
    originals = {(layer, name): getattr(homes[layer], name) for layer in homes for name in tracer.WRAPPED[layer]}
    t = tracer.Tracer()
    uninstall = t.install()
    try:
        for (layer, name), fn in originals.items():
            assert getattr(homes[layer], name).__wrapped__ is fn
        argv = ["dof-curve", "--a2-min", "2", "--a2-max", "3", "--steps", "2", "--out", str(tmp_path / "dof.csv")]
        assert latticeic.cli.main(argv) == 0
    finally:
        uninstall()
    assert [s["name"] for s in t.spans] == ["cli.main", "rates.dof_symmetric", "rates.dof_symmetric"]
    for (layer, name), fn in originals.items():
        assert getattr(homes[layer], name) is fn
