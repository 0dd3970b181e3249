"""Span tracing of the library's modules from outside the program.

Every function and method defined in the eight library modules is replaced,
wherever it is looked up (module globals, names imported into other modules,
the package namespace, class dictionaries), by a wrapper that times the call
and charges its duration to the calling span. A layer's self time is the
time spent in its functions minus the time of the wrapped calls they make.

Functions called millions of times per round (group products, path lookups,
the memoized chain recursion, chain arithmetic) are aggregated into per-name
counts and times only. Every other call that crosses a layer boundary is
also kept as a span record (id, name, start, end, parent span id, item id)
in memory and written out once the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("groups", "cayley", "bicombing", "chains", "flowers", "cocycle", "analysis", "cli")

# Qualified names (without the layer prefix) that are aggregated, not kept as
# spans. A layer mapped to None is hot as a whole.
_HOT = {
    "groups": None,
    "chains": None,
    "cayley": {"distance", "_distance", "gromov_product", "sphere",
               "CayleyBall.layer", "CayleyBall.layer_sizes", "CayleyBall.distance"},
    "bicombing": {"Bicombing.point_from_identity", "Bicombing.path_from_identity",
                  "Bicombing.greedy_path_from_identity"},
    "flowers": {"ChainEngine._f_basepoint", "ChainEngine._f_point_basepoint",
                "ChainEngine._flower_members_from_identity", "ChainEngine.h_chain",
                "ChainEngine._require_margin", "ChainEngine.flower", "ChainEngine.project",
                "NormalizedChain.coefficients", "NormalizedChain.norm_key", "normalize"},
    "cocycle": {"Cocycle._diff_pow", "Cocycle.diff_norm_pow", "Cocycle.b_at", "Cocycle.eta_at"},
    "analysis": {"_h_diff_norm", "tail_bound", "DecayFit.envelope_ok", "DecayFit.bound_at"},
    "cli": set(),
}

_PRODUCTS = ("multiply", "_mul", "_mul_letter_left", "_mul_letter_right")

# at most this many span records are kept per run; later calls are still timed
SPAN_CAP = 100_000


def _is_hot(layer: str, name: str) -> bool:
    hot = _HOT[layer]
    return hot is None or name in hot


class Tracer:
    """Installs timing wrappers on the library and aggregates them per round.

    ``item_fn`` is the qualified name of the call that starts a new item;
    span records carry the item id current when they were opened.
    """

    def __init__(self, item_fn: str):
        self.item_fn = item_fn
        self.item = 0
        self.stats: dict[str, list] = {}  # name -> [calls, entry calls, inclusive s, self s]
        self.counters: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self._stack: list[list] = []  # frames: [layer, child seconds, span id]
        self._next_id = 0
        self._fit_dicts: list[dict] = []
        self._undo: list[tuple] = []
        self._hooks = {
            "cayley.build_ball": self._on_ball,
            "flowers.ChainEngine.f_chain": self._on_chain,
            "flowers.ChainEngine.f_chain_literal": self._on_chain,
            "flowers.ChainEngine._f_basepoint": self._on_chain,
            "flowers.ChainEngine.h_chain": self._on_normalized,
            "flowers.ChainEngine._f_point_basepoint": self._on_point,
            "cocycle.Cocycle.verify_identity": self._on_identity,
            "cocycle.Cocycle.norm": self._on_norm,
            "analysis.rho_fitter": self._on_rho_fitter,
        }
        self.reset_round()

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        import importlib

        modules = {layer: importlib.import_module(f"hypaction.{layer}") for layer in LAYERS}
        replaced: dict[int, object] = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replaced[id(obj)] = self.wrap(f"{layer}.{name}", layer, obj,
                                                  record=not _is_hot(layer, name))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._install_class(layer, obj)
        # patch each function where it is looked up, not only where it is defined
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "hypaction" or modname.startswith("hypaction.")):
                continue
            for name, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    self._undo.append((mod, name, obj))
                    setattr(mod, name, wrapper)

    def _install_class(self, layer: str, cls: type) -> None:
        for name, obj in list(vars(cls).items()):
            if name.startswith("__") or not inspect.isfunction(obj):
                continue
            if inspect.isgeneratorfunction(obj):
                continue  # a wrapper would only time the generator's creation
            qual = f"{cls.__name__}.{name}"
            self._undo.append((cls, name, obj))
            setattr(cls, name, self.wrap(f"{layer}.{qual}", layer, obj,
                                         record=not _is_hot(layer, qual)))

    def uninstall(self) -> None:
        for target, name, obj in reversed(self._undo):
            setattr(target, name, obj)
        self._undo.clear()

    def wrap(self, qual: str, layer: str, fn, record: bool):
        stat = self.stats.setdefault(qual, [0, 0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        hook = self._hooks.get(qual)
        marks_item = qual == self.item_fn
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            entry = parent is None or parent[0] != layer
            if marks_item:
                tracer.item += 1
            if record and entry:
                tracer._next_id += 1
                frame = [layer, 0.0, tracer._next_id]
            else:
                frame = [layer, 0.0, parent[2] if parent is not None else 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stat[0] += 1
                stat[1] += entry
                stat[2] += dur
                stat[3] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if record and entry:
                    if len(spans) < SPAN_CAP:
                        spans.append((frame[2], qual, start, end,
                                      parent[2] if parent is not None else 0, tracer.item))
                    else:
                        tracer.dropped += 1
            if hook is not None:
                result = hook(result, entry)
            return result

        return wrapper

    # -- counters read from returned objects ----------------------------------

    def _count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def _on_ball(self, ball, entry):
        self._count("ball_vertices", len(ball))
        return ball

    def _returned(self, support_size: int) -> None:
        self._count("returned_chains")
        if support_size >= 2:
            self._count("spread_chains")

    def _on_chain(self, chain, entry):
        if entry:
            self._returned(len(chain))
        return chain

    def _on_normalized(self, h, entry):
        if entry:
            self._returned(len(h.f))
        return h

    def _on_point(self, point, entry):
        # a point-mass answer is a returned chain with one support point; on
        # None the caller fetches the full chain, which is counted there
        if entry and point is not None:
            self._returned(1)
        return point

    def _on_identity(self, rep, entry):
        self._count("identity_vertices", rep.vertices)
        self._count("audits", rep.audited)
        return rep

    def _on_norm(self, res, entry):
        self._count("exact_window_vertices" if res.exact else "window_vertices", res.window_size)
        return res

    def _on_rho_fitter(self, result, entry):
        rho_of_p, fits = result
        self._fit_dicts.append(fits)
        return self.wrap("analysis.rho_of_p", "analysis", rho_of_p, record=True), fits

    # -- per-round aggregation -------------------------------------------------

    def reset_round(self) -> None:
        for stat in self.stats.values():
            stat[:] = [0, 0, 0.0, 0.0]
        self.counters = {}
        self._fit_dicts = []

    def _calls(self, qual: str) -> int:
        stat = self.stats.get(qual)
        return 0 if stat is None else stat[0]

    def _incl(self, qual: str) -> float:
        stat = self.stats.get(qual)
        return 0.0 if stat is None else stat[2]

    def layer_self(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for qual, stat in self.stats.items():
            out[qual.partition(".")[0]] += stat[3]
        return out

    def snapshot(self) -> tuple[dict, dict]:
        """(counts, seconds) of the round so far, keyed by per-layer metric name."""
        c = self.counters
        mul_calls = sum(
            stat[1] for qual, stat in self.stats.items()
            if qual.startswith("groups.") and qual.rpartition(".")[2] in _PRODUCTS
        )
        returned = c.get("returned_chains", 0)
        counts = {
            "groups.mul_calls": mul_calls,
            "cayley.build_ball_calls": self._calls("cayley.build_ball"),
            "cayley.ball_vertices": c.get("ball_vertices", 0),
            "bicombing.path_calls": self._calls("bicombing.Bicombing.path_from_identity"),
            "flowers.f_chain_calls": self._calls("flowers.ChainEngine.f_chain"),
            "flowers.h_chain_calls": self._calls("flowers.ChainEngine.h_chain"),
            "flowers.literal_calls": self._calls("flowers.ChainEngine.f_chain_literal"),
            "flowers.returned_chains": returned,
            "flowers.spread_chains": c.get("spread_chains", 0),
            "cocycle.identity_vertices": c.get("identity_vertices", 0),
            "cocycle.audits": c.get("audits", 0),
            "cocycle.exact_window_vertices": c.get("exact_window_vertices", 0),
            "cocycle.window_vertices": c.get("window_vertices", 0),
            "analysis.select_p_calls": self._calls("analysis.select_p"),
            "analysis.grid_points": sum(len(fits) for fits in self._fit_dicts),
        }
        seconds = {f"{layer}.self_s": s for layer, s in self.layer_self().items()}
        seconds.update({
            "cayley.build_ball_s": self._incl("cayley.build_ball"),
            "flowers.literal_s": self._incl("flowers.ChainEngine.f_chain_literal"),
            "cocycle.identity_s": self._incl("cocycle.Cocycle.verify_identity"),
            "cocycle.exact_norm_s": self._incl("cocycle.Cocycle._exact_tree_norm"),
            "cocycle.properness_s": self._incl("cocycle.Cocycle.properness_count"),
            "cocycle.window_norm_s": self._incl("cocycle.Cocycle._windowed_norm"),
            "analysis.select_p_s": self._incl("analysis.select_p"),
            "analysis.rho_fitter_s": self._incl("analysis.rho_fitter"),
            "cli.report_s": self._incl("cli.cmd_report"),
        })
        return counts, seconds

    def write_spans(self, path, origin: float) -> None:
        """One JSON array per line: id, name, start s, end s, parent id, item id."""
        with open(path, "w") as fh:
            for sid, name, start, end, parent, item in self.spans:
                fh.write(json.dumps([sid, name, round(start - origin, 9),
                                     round(end - origin, 9), parent, item]) + "\n")
