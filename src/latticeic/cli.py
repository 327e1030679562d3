"""Command-line front end: curve sweeps, scheme comparison, alignment
checks and Monte Carlo runs. Outputs are plotter-agnostic CSV/JSON and
every command writes a manifest that reproduces it byte-identically.

Each command except `replay` returns (text, params, seed): the output
file's content, the manifest's params and its master seed. `main` writes
both files.

Exit codes: 0 success, 2 validation error, 3 runtime/convergence error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .channel import alignment_factors, channel_from_json
from .rates import (
    AllocationError,
    dof_symmetric,
    hk_sym_rate,
    nonsym_sweep,
    sweep_dof,
    sym_rate_lattice,
    very_strong_general,
)
from .simulate import ConfigError, SimConfig, run_simulation, squared_gain

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3

# points of a sweep (--steps) or of the baseline's grid (--grid-size); one
# baseline call at the cap takes about 3 s on 2 cores
MAX_GRID_SIZE = 1_000_000
# layer counts of dof-nonsym (--n-max): at the smallest gains, a^2 = 2, the
# layer powers leave the float range from N = 397
MAX_N_MAX = 400


def _csv(header: list[str], rows) -> str:
    if not all(math.isfinite(x) for row in rows for x in row):
        raise FloatingPointError("a computed value is not finite; inputs are outside the numeric range")
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows([repr(x) if isinstance(x, float) else x for x in row] for row in rows)
    return buf.getvalue()


def _flags(args) -> dict:
    """The command's own flags, in declaration order."""
    return {k: v for k, v in vars(args).items() if k not in ("command", "func", "seed", "out")}


def _check_numeric_flags(args) -> None:
    """Every float flag is a gain, a power or a bound on a^2, so each must be
    positive and finite; checked before any work is done."""
    for name, value in vars(args).items():
        if isinstance(value, float) and not 0.0 < value < math.inf:
            raise ConfigError(f"--{name.replace('_', '-')} must be a positive finite number, got {value!r}")


def cmd_dof_curve(args) -> tuple[str, dict, int]:
    if not args.a2_min < args.a2_max:
        raise ConfigError("need a2-min < a2-max")
    if not 2 <= args.steps <= MAX_GRID_SIZE:
        raise ConfigError(f"steps must lie in 2 to {MAX_GRID_SIZE}")
    if args.log_axis:
        with np.errstate(over="ignore"):  # an end point may round up to inf, which dof_symmetric refuses
            grid = np.logspace(math.log10(args.a2_min), math.log10(args.a2_max), args.steps)
    else:
        grid = np.linspace(args.a2_min, args.a2_max, args.steps)
    rows = [(float(a2), dof_symmetric(float(a2))) for a2 in grid]
    return _csv(["a2", "dof"], rows), _flags(args), args.seed


def cmd_sym_rate_compare(args) -> tuple[str, dict, int]:
    if (
        not args.p_min <= args.p_max
        or not 1 <= args.steps <= MAX_GRID_SIZE
        or not 2 <= args.grid_size <= MAX_GRID_SIZE
    ):
        raise ConfigError(
            f"need p-min <= p-max, 1 <= steps <= {MAX_GRID_SIZE} and 2 <= grid-size <= {MAX_GRID_SIZE}"
        )
    a2 = squared_gain("--a", args.a)
    # every power sum of the baseline, also in the weak regime's residual layer, is <= 1 + (1 + 2a^2) P
    if not 2.0 * (1.0 + 2.0 * a2) * args.p_max < math.inf:
        raise ConfigError(f"(1 + 2a^2) * p-max must stay below half the float maximum, got p-max {args.p_max!r}")
    if args.p_min == args.p_max or args.steps == 1:
        grid = np.array([args.p_min])
    else:
        grid = np.logspace(math.log10(args.p_min), math.log10(args.p_max), args.steps)
    # one cache serves the lattice column's baseline calls and the R_HK column
    oracle = functools.lru_cache(maxsize=None)(
        lambda P, s2, g: hk_sym_rate(P, s2, g, grid_size=args.grid_size)
    )
    rows = []
    for P in grid:
        report = sym_rate_lattice(a2, float(P), hk_oracle=oracle)
        rows.append((float(P), report.per_user_rates[0], oracle(float(P), 1.0, args.a)))
    text = _csv(["P", "R_lattice", "R_HK"], rows)
    warnings = (
        ["cross gain in the unsupported band 1/3 < a^2 < 2; lattice column equals the baseline"]
        if report.binding_constraint == "band-fallback"
        else []
    )
    if warnings:
        print(warnings[0], file=sys.stderr)
    return text, {**_flags(args), "warnings": warnings}, args.seed


def _triple(name: str, text: str) -> list[float]:
    values = [float(x) for x in text.split(",")]
    if len(values) != 3 or not all(0.0 < v < math.inf for v in values):
        raise ConfigError(f"--{name} needs exactly 3 comma-separated positive finite values, got {text!r}")
    return values


def cmd_align_check(args) -> tuple[str, dict, int]:
    powers = None if args.powers is None else _triple("powers", args.powers)
    noises = _triple("noises", args.noises or "1,1,1")
    text = Path(args.matrix_file).read_text()
    try:
        ch = channel_from_json(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed matrix file: {exc}") from exc
    report: dict = {"member": ch.h1_witness is not None, "witness": None}
    if ch.h1_witness is not None:
        report["witness"] = list(ch.h1_witness)
        report["scale_factors"] = list(alignment_factors(ch))
        if powers is not None:
            res = very_strong_general(ch, powers, noises)
            if res is None:
                report["condition_set"] = None
            else:
                rr, idx = res
                report["condition_set"] = idx
                report["rates_bits_per_dim"] = list(rr.per_user_rates)
    return json.dumps(report, indent=2, allow_nan=False) + "\n", _flags(args), args.seed


def cmd_simulate(args) -> tuple[str, dict, int]:
    try:
        doc = json.loads(Path(args.config).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config file: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    known = set(SimConfig.__dataclass_fields__)
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    doc.setdefault("master_seed", args.seed)
    try:
        cfg = SimConfig(**doc)
    except TypeError as exc:  # a required field is missing
        raise ConfigError(f"incomplete config: {exc}") from exc
    stats = run_simulation(cfg)
    return stats.to_json_line(cfg) + "\n", {"config": cfg.to_json_dict()}, cfg.master_seed


def cmd_dof_nonsym(args) -> tuple[str, dict, int]:
    g2 = [squared_gain("--" + flag, getattr(args, flag)) for flag in ("a1", "a2", "a3")]
    if any(x < 2.0 for x in g2):
        raise ConfigError("all squared gains must be >= 2")
    if not 1 <= args.n_max <= MAX_N_MAX:
        raise ConfigError(f"n-max must lie in 1 to {MAX_N_MAX}")
    rows = nonsym_sweep(args.a1, args.a2, args.a3, args.n_max)
    final = sweep_dof(rows)
    text = _csv(["N", "sum_rate", "total_power", "dof_estimate"], [row + (sweep_dof([row]),) for row in rows])
    print(repr(final))
    return text, {**_flags(args), "dof": final}, args.seed


def cmd_replay(args) -> int:
    try:
        argv = json.loads(Path(args.manifest).read_text())["argv"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ConfigError(f"malformed manifest: {exc!r}") from exc
    if not isinstance(argv, list) or not all(isinstance(a, str) for a in argv):
        raise ConfigError("manifest argv must be a list of strings")
    if argv[:1] == ["replay"]:
        raise ConfigError("a manifest whose command is itself a replay cannot be replayed")
    return main(argv)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="latticeic",
        description="Layered lattice coding calculators and simulators for the "
        "three-user Gaussian interference channel.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="master RNG seed")
        p.add_argument("--out", required=True, help="output path")

    p = sub.add_parser("dof-curve", help="degrees-of-freedom curve over a^2")
    common(p)
    p.add_argument("--a2-min", type=float, required=True)
    p.add_argument("--a2-max", type=float, required=True)
    p.add_argument("--steps", type=int, default=200, help=f"grid points over a^2, 2 to {MAX_GRID_SIZE} (default 200)")
    p.add_argument("--log-axis", action="store_true")
    p.set_defaults(func=cmd_dof_curve)

    p = sub.add_parser("sym-rate-compare", help="lattice vs baseline symmetric rate sweep")
    common(p)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--p-min", type=float, default=1.0)
    p.add_argument("--p-max", type=float, default=1e6)
    p.add_argument("--steps", type=int, default=25, help=f"powers in the sweep, 1 to {MAX_GRID_SIZE} (default 25)")
    p.add_argument(
        "--grid-size", type=int, default=201,
        help=f"common-power fractions searched by the baseline, 2 to {MAX_GRID_SIZE} (default 201)",
    )
    p.set_defaults(func=cmd_sym_rate_compare)

    p = sub.add_parser("align-check", help="rational-ratio membership and alignment report")
    common(p)
    p.add_argument("--matrix-file", required=True)
    p.add_argument("--powers", default=None, help="comma-separated per-user powers")
    p.add_argument("--noises", default=None, help="comma-separated noise variances")
    p.set_defaults(func=cmd_align_check)

    p = sub.add_parser("simulate", help="Monte Carlo run from a JSON config")
    common(p)
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("dof-nonsym", help="numeric DoF for a nonsymmetric gain triple")
    common(p)
    p.add_argument("--a1", type=float, required=True)
    p.add_argument("--a2", type=float, required=True)
    p.add_argument("--a3", type=float, required=True)
    p.add_argument("--n-max", type=int, default=40, help=f"largest layer count N swept, 1 to {MAX_N_MAX} (default 40)")
    p.set_defaults(func=cmd_dof_nonsym)

    p = sub.add_parser("replay", help="re-run a command from its manifest")
    p.add_argument("manifest")

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first `main` call (not at import)."""
    return build_parser()


def main(argv=None) -> int:
    argv = list(argv) if argv is not None else sys.argv[1:]
    args = _parser().parse_args(argv)
    try:
        _check_numeric_flags(args)
        if args.command == "replay":
            return cmd_replay(args)
        text, params, seed = args.func(args)
        out = Path(args.out)
        out.write_text(text, newline="")
        manifest = {
            "command": args.command,
            "params": params,
            "version": __version__,
            "master_seed": seed,
            "outputs": [str(out)],
            "argv": argv,
        }
        Path(str(out) + ".manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
        return EXIT_OK
    except (ValueError, OSError) as exc:  # ConfigError and AllocationError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME if isinstance(exc, AllocationError) else EXIT_VALIDATION
    except ArithmeticError as exc:  # the FloatingPointError of `_csv` on a non-finite value
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
