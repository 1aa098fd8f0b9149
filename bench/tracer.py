"""Span tracing of kkcliques layer calls, done entirely from the benchmark.

install() wraps every public function of each layer module (and the CLI's
private _dispatch) and rebinds the wrapper at every lookup site: each
kkcliques module whose globals hold the function, including the package's
re-exports.  Internal calls such as k_colex -> cascade_of therefore show up
as child spans.  uninstall() restores the originals, so untraced passes run
the program exactly as shipped.

A span is (idx, name_id, parent idx, start, end, flags); flags bit 0 marks a
span that let a new exception escape its layer, bit 1 an escaping
InternalCheckError, bit 2 any span that ended by an exception.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
from time import perf_counter

LAYERS = ("cascade", "families", "bounds", "designs", "uniqueness", "oracle", "cli")
PRIVATE_TRACED = {"cli": ("_dispatch",)}

# function name -> sub-layer metric prefix
SUBLAYER = {
    "colex_segment": "families.segment",
    "retlex_segment": "families.segment",
    "cliques": "families.cliques",
    "clique_graph": "families.cliques",
    "to_text": "families.io",
    "from_text": "families.io",
    "to_json_obj": "families.io",
    "from_json_obj": "families.io",
    "recognize_packing_shadow": "designs.recognize",
    "verify_kkt": "oracle.sweep",
    "verify_uniqueness": "oracle.sweep",
    "exhaustive_search": "oracle.search",
    "canonical_form": "oracle.canonical",
    "build_parser": "cli.parse",
    "parse_args": "cli.parse",
    "_dispatch": "cli.dispatch",
    "render": "cli.render",
}

ERROR = 1
INTERNAL = 2
RAISED = 4


class Tracer:
    """Spans in memory.  Open spans sit on a small stack; a closed span becomes
    a tuple of numbers (which the garbage collector stops tracking), so holding
    many spans does not slow the program's own collections."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple] = []  # (idx, name_id, parent idx, start, end, flags)
        self.tags: list[tuple[int, str, float]] = []
        self.count = 0
        self._stack: list[tuple] = []  # (idx, name_id, parent idx, start)
        self._last_exc: dict[str, BaseException] = {}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = self.count
        self.count = idx + 1
        self._stack.append((idx, nid, self._stack[-1][0] if self._stack else -1, perf_counter()))
        return idx

    def close(self, idx: int, exc: BaseException | None = None) -> None:
        end = perf_counter()
        stack = self._stack
        for pos in range(len(stack) - 1, -1, -1):
            if stack[pos][0] == idx:
                _, nid, parent, start = stack[pos]
                del stack[pos:]
                break
        else:
            return  # lost to an interrupt between open and its try block
        flags = 0 if exc is None else RAISED
        if exc is not None and not isinstance(exc, SystemExit):
            layer = self.names[nid].split(".", 1)[0]
            if self._last_exc.get(layer) is not exc:
                self._last_exc[layer] = exc
                flags |= ERROR
            if type(exc).__name__ == "InternalCheckError" and self._last_exc.get("*") is not exc:
                self._last_exc["*"] = exc
                flags |= INTERNAL
        self.spans.append((idx, nid, parent, start, end, flags))

    def tag(self, idx: int, key: str, value: float) -> None:
        self.tags.append((idx, key, value))

    def wrap(self, layer: str, name: str, fn):
        nid = self.name_id(f"{layer}.{name}")
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(idx, exc)
                raise
            self.close(idx)
            if hook is not None:
                hook(self, idx, out)
            return out

        return traced

    def merge(self, names: list[str], spans: list, tags: list) -> None:
        """Add spans recorded in another process under the currently open span."""
        base, parent = self.count, self._stack[-1][0] if self._stack else -1
        ids = [self.name_id(n) for n in names]
        for idx, nid, par, start, end, flags in spans:
            self.spans.append((base + idx, ids[nid], base + par if par >= 0 else parent,
                               start, end, flags))
            self.count = max(self.count, base + idx + 1)
        self.tags.extend((base + i, k, v) for i, k, v in tags)

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans, "tags": self.tags}


def _tag_bound(tr: Tracer, idx: int, rep) -> None:
    if isinstance(rep.x, float):
        tr.tag(idx, "bounds.irrational", 1)


def _tag_sweep(tr: Tracer, idx: int, rep) -> None:
    tr.tag(idx, "oracle.sweep.families", rep.families)
    tr.tag(idx, "oracle.sweep.checks", len(rep.checks))


def _tag_search(tr: Tracer, idx: int, res) -> None:
    tr.tag(idx, "oracle.search.families_scanned", res.families_scanned)


def _tag_parser(tr: Tracer, idx: int, parser) -> None:
    parser.parse_args = tr.wrap("cli", "parse_args", parser.parse_args)


_HOOKS = {
    "vertex_bound": _tag_bound,
    "edge_bound": _tag_bound,
    "clique_bound": _tag_bound,
    "graph_clique_bound": _tag_bound,
    "verify_kkt": _tag_sweep,
    "verify_uniqueness": _tag_sweep,
    "exhaustive_search": _tag_search,
    "build_parser": _tag_parser,
}


def install(tr: Tracer):
    """Wrap layer functions at every lookup site; returns an uninstall callable."""
    wrappers = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"kkcliques.{layer}")
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and (not name.startswith("_") or name in PRIVATE_TRACED.get(layer, ()))):
                wrappers[obj] = tr.wrap(layer, name, obj)
    restore = []
    for modname, mod in list(sys.modules.items()):
        if modname != "kkcliques" and not modname.startswith("kkcliques."):
            continue
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                restore.append((mod, name, obj))
                setattr(mod, name, wrappers[obj])

    def uninstall() -> None:
        for mod, name, obj in restore:
            setattr(mod, name, obj)

    return uninstall


# --- aggregation ---------------------------------------------------------

def _layer_of(name: str) -> tuple[str, str]:
    layer, func = name.split(".", 1)
    return layer, SUBLAYER.get(func, "")


def pass_metrics(names: list[str], spans: list, tags: list,
                 cli_startups: list[float]) -> dict[str, float]:
    """Per-layer metrics of the spans and tags of one traced pass."""
    child: dict[int, float] = {}
    for _, _, par, start, end, _ in spans:
        child[par] = child.get(par, 0.0) + max(0.0, end - start)
    out: dict[str, float] = {}

    def add(key: str, v: float) -> None:
        out[key] = out.get(key, 0.0) + v

    cli_invocations = 0
    irr = set()
    for idx, key, value in tags:
        if key == "bounds.irrational":
            irr.add(idx)
        else:
            add(key, value)
    search_s = 0.0
    max_cascade = 0.0
    for k, nid, _, start, end, flags in spans:
        name = names[nid]
        layer, sub = _layer_of(name)
        if layer not in LAYERS:
            continue
        dur = max(0.0, end - start)
        self_s = max(0.0, dur - child.get(k, 0.0))
        add(f"{layer}.calls", 1)
        add(f"{layer}.self_s", self_s)
        add(f"{layer}.errors", flags & ERROR)
        add("internal_check_errors", (flags & INTERNAL) >> 1)
        if sub:
            add(f"{sub}.self_s", self_s)
            add(f"{sub}.calls", 1)
            add(f"{sub}.total_s", dur)
        if k in irr:
            add("bounds.irrational.calls", 1)
            add("bounds.irrational.self_s", self_s)
        if name == "oracle.exhaustive_search":
            search_s += dur
        if layer == "cascade" and not flags & RAISED:
            max_cascade = max(max_cascade, dur)
        if name == "cli.main":
            cli_invocations += 1
    out["cascade.max_call_ms"] = 1e3 * max_cascade
    scanned = out.get("oracle.search.families_scanned", 0.0)
    out["oracle.search.families_per_s"] = scanned / search_s if search_s > 0 else 0.0
    per = max(1, cli_invocations)
    out["cli.startup_ms"] = 1e3 * statistics.fmean(cli_startups) if cli_startups else 0.0
    out["cli.parse_ms"] = 1e3 * out.get("cli.parse.total_s", 0.0) / per
    out["cli.dispatch_ms"] = 1e3 * out.get("cli.dispatch.total_s", 0.0) / per
    out["cli.render_ms"] = 1e3 * out.get("cli.render.total_s", 0.0) / per
    return out
