"""The package's public names and the hooks the benchmark's tracer wraps."""

import importlib.util
import json
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


def tiny_requests(tmp_path):
    """Two p2p simulations (lattice, simulate), the second so noisy that every row passes the Voronoi
    test's cap and reaches the full-lattice decoder, and one band rate sweep (the HK baseline)."""
    p2p = dict(scheme="p2p", n=4, trials=100, master_seed=1, rates=[0.25], power=3.0, search_budget=2, shift_trials=1)
    for name, sigma2 in (("p2p", 1.0), ("p2p-noisy", 1000.0)):
        (tmp_path / f"{name}.json").write_text(json.dumps(dict(p2p, sigma2=sigma2)))
    return [
        *(["simulate", "--config", str(tmp_path / f"{name}.json"), "--out", str(tmp_path / f"{name}.jsonl")]
          for name in ("p2p", "p2p-noisy")),
        ["sym-rate-compare", "--a", "1.0", "--p-min", "1", "--p-max", "10", "--steps", "2", "--grid-size", "11",
         "--out", str(tmp_path / "band.csv")],
    ]


def test_tracer_counters_read_their_arguments(tmp_path, monkeypatch):
    # the counters read argument names (cfg, lat, ys, shift, shift_trials, grid_size) and meta["candidates_run"]
    tracer = load_tracer()
    t = tracer.Tracer()
    uninstall = t.install()
    try:
        for argv in tiny_requests(tmp_path):
            assert latticeic.cli.main(argv) == 0
    finally:
        uninstall()
    plain = {"name", "start", "end", "parent", "request"}
    for name in tracer.COUNTERS:
        spans = [s for s in t.spans if s["name"] == name]
        assert spans and all(set(s) > plain for s in spans), name
    traced = tracer.layer_metrics(t.spans, 0)
    assert traced["simulate.candidates_run"] >= 1 and traced["lattice.nearest_points_batch.rows"] >= 100
    assert traced["rates.hk_sym_rate.grid_evals"] == 11 * traced["rates.hk_sym_rate.calls"] > 0
    # untraced passes count blocks from what cli.run_simulation returns, as the benchmark's worker does
    blocks = []
    run_simulation = latticeic.cli.run_simulation

    def capture(cfg):
        stats = run_simulation(cfg)
        blocks.append(cfg.trials * stats.meta["candidates_run"])
        return stats

    monkeypatch.setattr(latticeic.cli, "run_simulation", capture)
    for argv in tiny_requests(tmp_path)[:2]:
        assert latticeic.cli.main(argv) == 0
    assert len(blocks) == 2 and sum(blocks) == traced["simulate.blocks"]
