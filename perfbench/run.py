"""latticeic benchmark: one command, run from the root of a checkout.

    python3 perfbench/run.py --workload mc-decode --seed 0 --seconds 30 --trace 0

Each client is a fresh interpreter (worker.py) that imports latticeic from
`src/`, generates the workload from the seed and sends its requests one
after another through `latticeic.cli.main`. With `--trace 0` the run reports
end-to-end metrics from untraced clients; with `--trace 1` it reports
per-layer metrics from two traced clients and checks that every count repeats
exactly between them. A traced client alternates traced and untraced passes,
and the tracing overhead is the median difference within those pairs. The
last stdout line is the JSON result; the full record, the environment and
the spans go to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
GOLDEN = HERE / "golden.json"

sys.path.insert(0, str(HERE))
from tracer import COUNT_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 20
# each run must end within this many seconds, builds aside
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Layers each workload must use (count > 0) and must leave idle (count == 0).
# A miss means a wrapper lost coverage or the workload no longer exercises
# what it was designed for.
MUST_USE = {
    "mc-decode": ("lattice.nearest_points_batch.calls", "lattice.build_codebook.calls",
                  "lattice.make_linear_code.calls", "simulate.candidates_run"),
    "mc-shape": ("lattice.build_codebook.calls", "lattice.make_linear_code.calls",
                 "simulate.candidates_run", "channel.class_h1_membership.calls"),
    "closed-form": ("rates.hk_sym_rate.calls", "rates.sym_rate_lattice.calls",
                    "rates.nonsym_layered_allocation.calls", "channel.class_h1_membership.calls",
                    "cli.bytes_written"),
}
MUST_IDLE = {
    "mc-decode": ("rates.hk_sym_rate.calls",),
    "mc-shape": ("lattice.nearest_points_batch.calls", "rates.hk_sym_rate.calls"),
    "closed-form": ("lattice.nearest_points_batch.calls", "lattice.build_codebook.calls",
                    "lattice.make_linear_code.calls", "simulate.candidates_attempted"),
}


class BenchError(Exception):
    """The benchmark could not measure (as opposed to a failed request)."""


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def spawn(workload: str, seed: int, mode: str, seconds: float, deadline: float, tag: str,
          untraced_first: bool = False) -> dict:
    """Run one worker to completion; returns its report plus `setup_s`."""
    work = OUT / f"work-{os.getpid():010d}-{tag}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--seconds", repr(seconds), "--work", str(work.relative_to(ROOT))]
    if mode == "trace":
        cmd += ["--spans", str(OUT / f"spans-{workload}-{seed}-{tag}.jsonl")]
    if untraced_first:
        cmd.append("--untraced-first")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker overran the deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"{mode} worker printed no report") from exc
    # perf_counter is CLOCK_MONOTONIC on Linux, shared by parent and child
    report["setup_s"] = report["ready_t"] - t0
    return report


def check_results(reports: list[dict], reference: list[str] | None) -> tuple[int, int, list[str]]:
    """Count attempted and failed requests over every pass of every report.
    A request fails on an error, a failed invariant, or a digest that differs
    from the recorded one (or, without a record, from the first pass)."""
    attempted = failed = 0
    errors = []
    for report in reports:
        for p, entry in enumerate(report["passes"]):
            results = entry["results"]
            if reference is None:
                reference = [r["digest"] for r in results]
            if len(results) != len(reference):
                raise BenchError("workload size differs from the recorded digests")
            for r, want in zip(results, reference):
                attempted += 1
                error = r["error"]
                if error is None and r["digest"] != want:
                    error = "result digest differs from the reference"
                if error is not None:
                    failed += 1
                    errors.append(f"pass {p} {r['name']}: {error}")
    return attempted, failed, errors


def work_per_pass(workload: str, report: dict) -> float:
    """Decoded blocks (Monte Carlo) or output rows (closed form) per pass."""
    if workload.startswith("mc-"):
        return float(report["passes"][0]["blocks"])
    return float(report["rows"])


def end_to_end(workload, seed, seconds, deadline):
    # On a shared machine the speed changes by up to 2x with the
    # neighbours' load, from one millisecond to the next and over minutes.
    # Set-up time is the median of 21 clients spread over the run (ten set
    # up before the measuring client and ten after it). The pass time is the
    # sum over the requests of each request's median time in the run: the
    # requests are short and each is timed many times, so a slow stretch
    # moves the median of only the requests it overlaps.
    setups = [spawn(workload, seed, "setup", 0, deadline, f"s{i}")["setup_s"] for i in range(SETUP_REPEATS // 2)]
    run = spawn(workload, seed, "run", seconds, deadline, "run")
    setups.append(run["setup_s"])
    setups += [spawn(workload, seed, "setup", 0, deadline, f"s{i}")["setup_s"]
               for i in range(SETUP_REPEATS // 2, SETUP_REPEATS)]
    walls = [p["wall_s"] for p in run["passes"]]
    request_walls = {r["name"]: [p["results"][i]["wall_s"] for p in run["passes"]]
                     for i, r in enumerate(run["passes"][0]["results"])}
    wall = sum(statistics.median(v) for v in request_walls.values())
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "throughput_per_s": work_per_pass(workload, run) / wall,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    detail = {"setup_samples_s": setups, "pass_walls_s": walls, "request_walls_s": request_walls}
    return [run], metrics, {k: END_TO_END_UNITS[k] for k in metrics}, detail


def per_layer(workload, seed, seconds, deadline):
    # the two clients start their pairs in opposite orders
    traced = [spawn(workload, seed, "trace", seconds / 2.0, deadline, f"t{i}", untraced_first=i == 1)
              for i in range(2)]
    passes = [p for t in traced for p in t["passes"] if p["traced"]]
    errors = []
    first = passes[0]["layers"]
    for i, p in enumerate(passes[1:], start=1):
        for key in COUNT_METRICS:
            if p["layers"][key] != first[key]:
                errors.append(f"count {key} did not repeat: {first[key]} then {p['layers'][key]} (traced pass {i})")
    metrics = {}
    for key in first:
        if key in COUNT_METRICS:
            metrics[key] = first[key]
        else:
            metrics[key] = statistics.median(p["layers"][key] for p in passes)
    # a ratio of medians, so numerator and denominator come from one reading
    npb = "lattice.nearest_points_batch"
    s = metrics[f"{npb}.self_s"]
    metrics[f"{npb}.coset_evals_per_s"] = metrics[f"{npb}.coset_evals"] / s if s else 0.0
    # each client alternates traced and untraced passes in pairs
    pairs = [(t["passes"][i], t["passes"][i + 1]) for t in traced for i in range(0, len(t["passes"]) - 1, 2)]
    diffs = [a["wall_s"] - b["wall_s"] if a["traced"] else b["wall_s"] - a["wall_s"] for a, b in pairs]
    metrics["trace.overhead_s"] = statistics.median(diffs)
    for key in MUST_USE[workload]:
        if not metrics[key] > 0:
            errors.append(f"self-check: {key} is {metrics[key]}, expected > 0")
    for key in MUST_IDLE[workload]:
        if metrics[key] != 0:
            errors.append(f"self-check: {key} is {metrics[key]}, expected 0")
    units = {k: unit_of(k) for k in metrics}
    shares = {}
    for p in passes:
        for name, t in p["shares"].items():
            shares.setdefault(name, []).append(t)
    detail = {
        "traced_wall_s": statistics.median(p["wall_s"] for p in passes),
        "untraced_wall_s": statistics.median(p["wall_s"] for t in traced for p in t["passes"] if not p["traced"]),
        "overhead_pairs_s": diffs,
        "self_s_by_span": {k: statistics.median(v) for k, v in sorted(shares.items())},
        "errors": errors,
    }
    return traced, metrics, units, detail


def unit_of(key: str) -> str:
    q = key.rsplit(".", 1)[1]
    if q in ("self_s", "overhead_s"):
        return "s"
    if q == "coset_evals_per_s":
        return "1/s"
    if q == "bytes_computed" or q == "bytes_written":
        return "bytes"
    if q in ("target_met_ratio", "candidate_yield"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "latticeic" / "__init__.py").is_file():
        print(f"error: no latticeic sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    # BLAS thread cap for the workers, set in this process's environment only
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    OUT.mkdir(exist_ok=True)

    reference = json.loads(GOLDEN.read_text()).get(args.workload, {}).get(str(args.seed))
    measure = per_layer if args.trace else end_to_end
    try:
        reports, metrics, units, detail = measure(args.workload, args.seed, args.seconds, deadline)
        attempted, failed, errors = check_results(reports, reference)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    errors += detail.get("errors", [])
    correct = failed == 0 and not errors

    env = dict(reports[0]["env"], nproc=nproc, cpu=cpu_model(), seed=args.seed,
               workload=args.workload, digests_checked_against="golden" if reference else "first pass")
    record = {"env": env, "metrics": metrics, "detail": detail, "errors": errors,
              "passes": [[{k: v for k, v in p.items() if k != "results"} for p in r["passes"]] for r in reports]}
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
