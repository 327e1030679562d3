"""Workload generators for the latticeic benchmark.

A workload is a list of requests, each one `latticeic` CLI invocation. The
generator takes only the benchmark seed; the program sees only the argv and
the config files written here. The seed moves master seeds and jitters
parameters inside ranges where no request fails, while the amount of work
per pass stays close to constant, so that passes of different seeds are
comparable.

Why each workload exists:

- mc-decode: the full-lattice coset search (`lattice.nearest_points_batch`)
  dominates. Point-to-point best-of-K runs walk candidates up to 13^4 =
  28 561 cosets; the above-capacity very-strong run has codebooks too large
  for the restricted sumset decoder, so it falls back to the full lattice at
  up to 5^6 = 15 625 cosets.
- mc-shape: the full-lattice decoder is never called. Shaping enumeration
  (`lattice.build_codebook`) and the restricted decoders inside `simulate`
  do the work across every scheme driver, and hundreds of lattices are
  built per pass.
- closed-form: only `rates` and `cli` work; `lattice` and `simulate` are
  idle. `rates.hk_sym_rate` is the bulk of it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

WORKLOADS = ("mc-decode", "mc-shape", "closed-form")

# sigma2 at or below this is the noiseless test hook: zero errors expected
NOISELESS_SIGMA2 = 1e-3
# master seeds per mc-shape config, and requests per closed-form sweep
SHAPE_REPEATS = 8
COMPARE_SEGMENTS = 5


@dataclass
class Request:
    """One CLI call. `argv` names files relative to the work directory via
    the `{work}` placeholder; `files` are written there before the first
    request is sent."""

    name: str
    argv: list[str]
    output: str
    kind: str  # "simulate" | "csv" | "json"
    files: dict[str, str] = field(default_factory=dict)
    noiseless: bool = False


def _seed31(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def _simulate(name: str, cfg: dict) -> Request:
    return Request(
        name=name,
        argv=["simulate", "--config", "{work}/" + name + ".json", "--out", "{work}/" + name + ".jsonl"],
        output=name + ".jsonl",
        kind="simulate",
        files={name + ".json": json.dumps(cfg, sort_keys=True)},
        noiseless=cfg.get("sigma2", 1.0) <= NOISELESS_SIGMA2,
    )


def mc_decode(seed: int) -> list[Request]:
    rng = random.Random(f"mc-decode/{seed}")
    p2p = dict(scheme="p2p", n=8, rates=[1.0], power=15.0)
    reqs = [
        # best-of-12 walks every candidate up to 13^4 = 28 561 cosets. Three
        # shift trials instead of the default eight keep the coset search,
        # not the shaping enumeration, the larger part of each candidate.
        _simulate("p2p-best-of-12", dict(
            p2p, trials=250, sigma2=1.0, search_budget=12, shift_trials=3, master_seed=_seed31(rng),
        )),
    ]
    # The requests below keep the default eight shift trials: with them
    # every candidate meets its codebook size, so no request fails and the
    # decoded-block count hardly moves with the seed.
    for s2 in (2.0, 0.5):
        reqs.append(_simulate(f"p2p-sigma2-{s2}", dict(
            p2p, trials=2000, sigma2=s2, search_budget=2, master_seed=_seed31(rng),
        )))
    reqs.append(_simulate("p2p-noiseless", dict(
        p2p, trials=300, sigma2=1e-6, search_budget=2, master_seed=_seed31(rng),
    )))
    # above capacity (R = 1.5 > 1 bit/dim): 4000-word codebooks are too large
    # for the restricted sumset decoder, so interference goes to the full
    # lattice (up to 5^6 = 15 625 cosets)
    reqs.append(_simulate("vs-above-capacity", dict(
        scheme="very-strong-sym", n=8, trials=500, rates=[1.5], power=3.0, a=2.0,
        search_budget=2, master_seed=_seed31(rng),
    )))
    return reqs


def mc_shape(seed: int) -> list[Request]:
    rng = random.Random(f"mc-shape/{seed}")
    configs = {
        "vs-sym": dict(scheme="very-strong-sym", n=8, rates=[0.6], power=3.0, a=2.0),
        "vs-sym-noiseless": dict(scheme="very-strong-sym", n=8, rates=[0.6], power=3.0, a=20.0, sigma2=1e-6),
        "layered-strong-a5": dict(scheme="layered-sym", n=6, rates=[0.3, 0.3], a=5.0, N=2),
        "layered-strong-a2": dict(scheme="layered-sym", n=6, rates=[0.3, 0.3, 0.3], a=2.0, N=3),
        "layered-weak": dict(scheme="layered-sym", n=6, rates=[0.2, 0.2], a=0.5, N=2),
        "vs-general": dict(scheme="very-strong-general", n=6, rates=[0.3] * 3,
                           powers=[3.0] * 3, h=[[1, 9, 9], [9, 1, 9], [9, 9, 1]]),
    }
    # Many short requests (20-150 ms each) rather than a few long ones, so
    # that each request is timed many times in a run; every master seed
    # builds its own four candidate lattices per layer.
    return [
        _simulate(f"{name}-{i}", dict(cfg, trials=200, search_budget=4, master_seed=_seed31(rng)))
        for i in range(SHAPE_REPEATS)
        for name, cfg in configs.items()
    ]


def closed_form(seed: int) -> list[Request]:
    rng = random.Random(f"closed-form/{seed}")
    reqs = []
    for tag, a in (("strong", 2.5), ("weak", 0.5), ("band", 1.0)):
        # one power sweep, sent as five consecutive 5-point requests so that
        # each request is short; neighbouring requests share an end point
        p_min = rng.uniform(0.8, 1.25)
        p_max = rng.uniform(0.8e6, 1.25e6)
        ratio = (p_max / p_min) ** (1.0 / COMPARE_SEGMENTS)
        for i in range(COMPARE_SEGMENTS):
            name = f"compare-{tag}-{i}"
            reqs.append(Request(
                name=name,
                argv=["sym-rate-compare", "--a", repr(a), "--p-min", repr(p_min * ratio**i),
                      "--p-max", repr(p_min * ratio ** (i + 1)), "--steps", "5",
                      "--out", f"{{work}}/{name}.csv"],
                output=f"{name}.csv",
                kind="csv",
            ))
    reqs.append(Request(
        name="dof-curve",
        argv=["dof-curve", "--a2-min", repr(rng.uniform(0.008, 0.012)),
              "--a2-max", repr(rng.uniform(80.0, 120.0)), "--steps", "200", "--log-axis",
              "--out", "{work}/dof-curve.csv"],
        output="dof-curve.csv",
        kind="csv",
    ))
    reqs.append(Request(
        name="dof-nonsym",
        argv=["dof-nonsym", "--a1", repr(rng.uniform(3.5, 4.5)), "--a2", repr(rng.uniform(5.5, 6.5)),
              "--a3", repr(rng.uniform(7.5, 8.5)), "--n-max", "40", "--out", "{work}/dof-nonsym.csv"],
        output="dof-nonsym.csv",
        kind="csv",
    ))
    # integer cross gains keep the cyclic ratio rational with a small
    # denominator, so a witness always exists
    off = [rng.randint(8, 12) for _ in range(6)]
    h = [[1, off[0], off[1]], [off[2], 1, off[3]], [off[4], off[5], 1]]
    reqs.append(Request(
        name="align-check",
        argv=["align-check", "--matrix-file", "{work}/h.json", "--powers", "3,3,3",
              "--noises", "1,1,1", "--out", "{work}/align.json"],
        output="align.json",
        kind="json",
        files={"h.json": json.dumps({"h": h})},
    ))
    return reqs


GENERATORS = {"mc-decode": mc_decode, "mc-shape": mc_shape, "closed-form": closed_form}


def generate(workload: str, seed: int) -> list[Request]:
    return GENERATORS[workload](seed)
