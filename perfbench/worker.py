"""One benchmark client: a fresh interpreter that imports latticeic from the
checkout, generates its workload and sends the requests one after another
(closed loop, one client) through `latticeic.cli.main`.

Prints one JSON report as its last stdout line. Started by run.py; not meant
to be run by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

import latticeic
from latticeic import cli

from tracer import Tracer, layer_metrics, layer_shares
from workloads import generate

if Path(latticeic.__file__).resolve().parent != ROOT / "src" / "latticeic":
    raise SystemExit(f"imported latticeic from {latticeic.__file__}, not from the checkout")


def _finite_numbers(obj) -> bool:
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return True
    if isinstance(obj, (int, float)):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_finite_numbers(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite_numbers(v) for v in obj)
    return False


def check_output(req, data: bytes) -> str | None:
    """Seed-independent invariants of one result; None when they hold."""
    text = data.decode()
    if req.kind == "simulate":
        doc = json.loads(text)
        if not _finite_numbers(doc):
            return "non-finite number in result line"
        if req.noiseless:
            errs = doc["stage_errors"]
            if any(errs["interference"]) or any(errs["message"]) or doc["block_error"] != 0:
                return "noiseless run had errors"
    elif req.kind == "csv":
        rows = [line.split(",") for line in text.splitlines()[1:]]
        if not rows:
            return "no output rows"
        if not all(math.isfinite(float(x)) for row in rows for x in row):
            return "non-finite output row"
    else:
        doc = json.loads(text)
        if not _finite_numbers(doc):
            return "non-finite number in report"
        if doc.get("member") is not True:
            return "witnessed channel reported as non-member"
    return None


def run_pass(reqs, work: Path, tracer: Tracer | None, tag: str):
    """Send every request once. Returns (wall_s, per-request results)."""
    results = []
    t0 = time.perf_counter()
    for req in reqs:
        argv = [a.replace("{work}", str(work)) for a in req.argv]
        if tracer is not None:
            tracer.request_id = f"{tag}/{req.name}"
        sink = io.StringIO()
        error = None
        t_req = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.main(argv)
            if rc != 0:
                error = f"exit code {rc}: {sink.getvalue().strip()}"
        except Exception as exc:  # a crashing request is a failed request
            error = f"{type(exc).__name__}: {exc}"
        results.append((req, error, time.perf_counter() - t_req))
    wall = time.perf_counter() - t0

    out = []
    for req, error, req_wall in results:
        digest, nbytes = None, 0
        out_path = work / req.output
        if error is None:
            try:
                data = out_path.read_bytes()
                digest = hashlib.sha256(data).hexdigest()
                error = check_output(req, data)
                manifest = Path(str(out_path) + ".manifest.json")
                nbytes = len(data) + manifest.stat().st_size
            except (OSError, ValueError, KeyError, TypeError) as exc:
                error = f"output unreadable: {type(exc).__name__}: {exc}"
        out.append({"name": req.name, "digest": digest, "error": error, "bytes": nbytes, "wall_s": req_wall})
    return wall, out


def environment() -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--work", required=True, help="scratch directory for configs and outputs")
    ap.add_argument("--spans", default=None, help="where the trace mode writes its spans")
    ap.add_argument("--untraced-first", action="store_true", help="trace mode: start with an untraced pass")
    args = ap.parse_args()

    work = Path(args.work)
    reqs = generate(args.workload, args.seed)
    work.mkdir(parents=True, exist_ok=True)
    for req in reqs:
        for name, text in req.files.items():
            (work / name).write_text(text)
    ready = time.perf_counter()

    report = {"ready_t": ready, "env": environment(), "passes": []}
    if args.mode != "setup":
        # untraced passes still need candidates_run, which the result line
        # omits: capture it from the one call per request into the simulator
        blocks = []
        run_simulation = cli.run_simulation

        def capture(cfg):
            stats = run_simulation(cfg)
            blocks.append(cfg.trials * stats.meta["candidates_run"])
            return stats

        tracer = Tracer()
        all_spans = []
        # A traced client alternates traced and untraced passes in pairs whose
        # order flips each time (T U U T T U ...; U T T U ... with
        # --untraced-first), so that the tracing overhead compares passes
        # taken side by side and warm-up falls on both sides.
        step = 2 if args.mode == "trace" else 1
        t_begin = time.perf_counter()
        n = 0
        # start another pass (pair) only if it should end before the time is
        # up plus half of it, so the count is round(seconds / pass); a client
        # makes at least two passes, so one slow pass is not the result
        while n < 2 or n % step or (time.perf_counter() - t_begin) * (1 + 0.5 * step / n) < args.seconds:
            traced = step == 2 and (n % 2 == 0) != ((n // 2 + args.untraced_first) % 2 == 1)
            blocks.clear()
            if traced:
                uninstall = tracer.install()
            else:
                cli.run_simulation = capture
            try:
                wall, results = run_pass(reqs, work, tracer if traced else None, f"pass{n}")
            finally:
                if traced:
                    uninstall()
                else:
                    cli.run_simulation = run_simulation
            entry = {"wall_s": wall, "traced": traced, "results": results, "blocks": sum(blocks)}
            if traced:
                spans = list(tracer.spans)
                tracer.spans.clear()
                all_spans.append((n, spans))
                entry["layers"] = layer_metrics(spans, sum(r["bytes"] for r in results))
                entry["shares"] = layer_shares(spans)
                entry["blocks"] = entry["layers"]["simulate.blocks"]
            report["passes"].append(entry)
            n += 1
        if args.spans:
            with open(args.spans, "w") as fh:
                for i, spans in all_spans:
                    for j, span in enumerate(spans):
                        fh.write(json.dumps({**span, "pass": i, "id": j}) + "\n")
    report["rows"] = sum(_rows(work / r.output) for r in reqs if r.kind == "csv")
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report))
    return 0


def _rows(path: Path) -> int:
    try:
        return max(0, len(path.read_text().splitlines()) - 1)
    except OSError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
