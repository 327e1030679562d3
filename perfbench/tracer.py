"""In-memory span tracer that wraps latticeic's public functions from outside.

Each wrapped call records a span: name, start, end, parent span and request
id, plus counts read from the call's arguments and result. Wrapping replaces
the function in every latticeic namespace that binds it, because `simulate`
and `cli` use from-imports; functions that look a name up at call time (for
example `sym_rate_lattice` reaching `rates.hk_sym_rate`) then see the wrapper
too. Nothing inside the program is changed.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# Public functions wrapped per layer. Some get no metric of their own
# (`dof_symmetric`, `channel_from_json`, ...): they are wrapped so that their
# time is not booked as their caller's self time.
WRAPPED = {
    "lattice": ("nearest_points_batch", "build_codebook", "make_linear_code"),
    "simulate": ("run_simulation",),
    "channel": ("transmit", "class_h1_membership", "channel_from_json"),
    "rates": (
        "hk_sym_rate",
        "sym_rate_lattice",
        "nonsym_layered_allocation",
        "dof_nonsym_numeric",
        "dof_symmetric",
        "layered_allocation_symmetric",
        "stage_constraints_strong",
        "very_strong_general",
    ),
    "cli": ("main",),
}


def _bound(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        return b.arguments

    return bind


def _count_nearest(bind):
    def count(args, kwargs, out):
        a = bind(args, kwargs)
        lat, rows = a["lat"], len(a["ys"])
        cosets = lat.p ** lat.code.k
        n = lat.n
        return {
            "rows": rows,
            "coset_evals": rows * cosets,
            # float64 inputs plus one (rows, cosets, n) candidate tensor
            "bytes_computed": 8 * n * (rows + cosets + rows * cosets),
        }

    return count


def _count_codebook(bind):
    def count(args, kwargs, out):
        a = bind(args, kwargs)
        return {
            "enumerations": 1 if a["shift"] is not None else a["shift_trials"],
            "words": len(out),
            "target_met": int(bool(out.target_met)),
        }

    return count


def _count_simulation(bind):
    def count(args, kwargs, out):
        cfg = bind(args, kwargs)["cfg"]
        run = int(out.meta["candidates_run"])
        return {
            "candidates_attempted": cfg.search_budget,
            "candidates_run": run,
            "blocks": cfg.trials * run,
        }

    return count


def _count_hk(bind):
    def count(args, kwargs, out):
        return {"grid_evals": bind(args, kwargs)["grid_size"]}

    return count


COUNTERS = {
    "lattice.nearest_points_batch": _count_nearest,
    "lattice.build_codebook": _count_codebook,
    "simulate.run_simulation": _count_simulation,
    "rates.hk_sym_rate": _count_hk,
}


class Tracer:
    """Records spans of wrapped calls. Single-threaded: the open-span stack
    gives each span its parent."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.request_id: str | None = None

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        count = counter(_bound(fn)) if counter else None
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = {
                "name": name,
                "start": 0.0,
                "end": 0.0,
                "parent": stack[-1] if stack else None,
                "request": self.request_id,
            }
            spans.append(span)
            stack.append(idx)
            span["start"] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = clock()
                stack.pop()
            if count is not None:
                span.update(count(args, kwargs, out))
            return out

        return wrapper

    def install(self):
        """Wrap every function in WRAPPED in every loaded latticeic module
        that binds it. Returns a callable that undoes the patch."""
        modules = [m for k, m in sorted(sys.modules.items()) if k == "latticeic" or k.startswith("latticeic.")]
        undo = []
        for layer, names in WRAPPED.items():
            home = sys.modules[f"latticeic.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            undo.append((mod, attr, original))
        # no namespace may still hand out an unwrapped function
        for mod in modules:
            for layer, names in WRAPPED.items():
                for fname in names:
                    value = getattr(mod, fname, None)
                    if value is not None and not hasattr(value, "__wrapped__") and callable(value):
                        raise RuntimeError(f"{mod.__name__}.{fname} escaped wrapping")

        def uninstall():
            for mod, attr, original in reversed(undo):
                setattr(mod, attr, original)

        return uninstall


def _self_times(spans: list[dict]) -> list[float]:
    """Span duration minus the time its direct children cover. Children of
    one span never overlap (one thread), so their durations add up."""
    self_t = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            self_t[s["parent"]] -= s["end"] - s["start"]
    return self_t


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict], bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of one pass, from that pass's spans."""
    self_t = _self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s["name"], []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(name):
        return sum(self_t[i] for i in by_name.get(name, ()))

    def total(name, key):
        return sum(spans[i][key] for i in by_name.get(name, ()))

    npb = "lattice.nearest_points_batch"
    bc = "lattice.build_codebook"
    sim = "simulate.run_simulation"
    m = {
        f"{npb}.self_s": self_s(npb),
        f"{npb}.calls": calls(npb),
        f"{npb}.rows": total(npb, "rows"),
        f"{npb}.coset_evals": total(npb, "coset_evals"),
        f"{npb}.bytes_computed": total(npb, "bytes_computed"),
        f"{bc}.self_s": self_s(bc),
        f"{bc}.calls": calls(bc),
        f"{bc}.enumerations": total(bc, "enumerations"),
        f"{bc}.words": total(bc, "words"),
        f"{bc}.target_met_ratio": _ratio(total(bc, "target_met"), calls(bc)),
        "lattice.make_linear_code.self_s": self_s("lattice.make_linear_code"),
        "lattice.make_linear_code.calls": calls("lattice.make_linear_code"),
        "simulate.self_s": self_s(sim),
        "simulate.candidates_attempted": total(sim, "candidates_attempted"),
        "simulate.candidates_run": total(sim, "candidates_run"),
        "simulate.candidate_yield": _ratio(total(sim, "candidates_run"), total(sim, "candidates_attempted")),
        "simulate.blocks": total(sim, "blocks"),
    }
    for name in ("channel.transmit", "channel.class_h1_membership"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    m["rates.hk_sym_rate.self_s"] = self_s("rates.hk_sym_rate")
    m["rates.hk_sym_rate.calls"] = calls("rates.hk_sym_rate")
    m["rates.hk_sym_rate.grid_evals"] = total("rates.hk_sym_rate", "grid_evals")
    for name in ("rates.sym_rate_lattice", "rates.nonsym_layered_allocation"):
        m[f"{name}.self_s"] = self_s(name)
        m[f"{name}.calls"] = calls(name)
    m["cli.self_s"] = self_s("cli.main")
    m["cli.bytes_written"] = bytes_written
    return m


# Metrics that are counts of work; they must repeat exactly for one seed.
COUNT_METRICS = tuple(
    k
    for k in layer_metrics([], 0)
    if k.rsplit(".", 1)[1]
    in ("calls", "rows", "coset_evals", "bytes_computed", "enumerations", "words",
        "candidates_attempted", "candidates_run", "blocks", "grid_evals", "bytes_written")
)


def layer_shares(spans: list[dict]) -> dict[str, float]:
    """Self time per span name, summed, for the breakdown in the baseline."""
    self_t = _self_times(spans)
    out: dict[str, float] = {}
    for s, t in zip(spans, self_t):
        out[s["name"]] = out.get(s["name"], 0.0) + t
    return out
