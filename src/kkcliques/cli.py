"""Command-line surface: every library operation behind one argv grammar.

Subcommands:
    cascade M S
    colex count M S [LEVEL]        (LEVEL >= s: clique count; LEVEL < s: shadow)
    colex segment M S
    bound vertex N I S T DELTA
    bound edge M I S T DELTA
    bound clique P I S U T DELTA
    bound graph P U T R
    jumping shadow M S Q
    jumping clique M S T N
    unique colex M S Q N
    unique clique M S T N
    jung S T MMAX
    construct NAME [--shadow S]
    recognize FILE I R
    search N S T [--edges M] [--degree I DELTA] [--cliques U P]
    verify kkt N S
    verify uniqueness N S
    verify equality

Each leaf is declared once, in _LEAVES.  Output is the payload JSON object
(default), a plain key/value table, or CSV (--format), written to stdout or,
by both run() and main(), to --out FILE.  Computed scalars that may exceed
2^53 are serialized as decimal strings; structural parameters stay JSON
numbers.  Exit codes: 0 success, 1 domain error (invalid parameters,
unsupported case), 2 usage error, 3 internal cross-check failure.

Library functions are called as attributes of their home module, looked up
when the leaf runs, so a wrapper or stub bound there is the one called.
Importing this module loads only the closed-form core (cascade, bounds,
uniqueness, errors), which is all the leaves cascade, colex count, bound *,
jumping *, unique * and jung use.  colex segment, construct, recognize,
search and verify * import families, designs or oracle in their handlers.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from decimal import Decimal
from functools import cache, partial
from importlib import import_module
from typing import Any, Callable, Optional

from . import bounds, cascade, uniqueness
from .errors import InternalCheckError, UnsupportedError


@dataclass
class CommandResult:
    payload: dict[str, Any]
    exit_status: int
    text: str = ""      # the rendering, unless it went to --out


def _s(v) -> Optional[str]:
    """Decimal-string serialization for possibly-big exact scalars; a Decimal
    is written in positional form, never with an exponent."""
    if v is None:
        return None
    return format(v, "f") if isinstance(v, Decimal) else str(v)


def _bound_payload(rep: bounds.BoundReport) -> dict[str, Any]:
    return {"value": _s(rep.value), "integer_value": _s(rep.integer_value),
            "source": rep.source, "x": _s(rep.x),
            "equality_possible": rep.equality_possible, "notes": list(rep.notes)}


def _verdict_payload(v: uniqueness.UniquenessVerdict) -> dict[str, Any]:
    return {"predicate": v.predicate, "m": _s(v.m), "s": v.s, "level": v.level, "n": v.n,
            "verdict": v.verdict, "triggered_condition": v.triggered_condition}


def _sweep_payload(rep) -> dict[str, Any]:
    return {
        "kind": rep.kind, "n": rep.n, "s": rep.s, "ok": rep.ok,
        "families": rep.families, "checks": rep.checks,
        "failures": [
            {k: (v if isinstance(v, (int, bool, list, type(None))) else _s(v))
             for k, v in f.items()}
            for f in rep.failures
        ],
    }


def _cascade(args) -> dict[str, Any]:
    c = cascade.cascade_of(args.m, args.s)
    return {"entries": list(c.entries), "level": c.level}


def _colex_count(args) -> dict[str, Any]:
    level = args.s if args.level is None else args.level
    if level >= args.s:
        value, kind = cascade.k_colex(args.m, args.s, level), "cliques"
    else:
        value, kind = cascade.shadow_colex(args.m, args.s, level), "shadow"
    return {"m": _s(args.m), "s": args.s, "level": level, "kind": kind, "value": _s(value)}


def _colex_segment(args) -> dict[str, Any]:
    from . import families
    H = families.colex_segment(args.m, args.s)
    return {"m": _s(args.m), "family": families.to_json_obj(H)}


def _jung(args) -> dict[str, Any]:
    ms = bounds.jung_scan(args.s, args.t, args.m_max)
    return {"s": args.s, "t": args.t, "m_max": _s(args.m_max),
            "qualifying": [_s(m) for m in ms]}


def _construct(args) -> dict[str, Any]:
    from . import designs, families
    d = designs.builtin_design(args.name)
    H = d.blocks if args.shadow is None else designs.shadow_of_design(d, args.shadow)
    return {"design": args.name, "n": d.n, "r": d.r, "blocks": len(d.blocks.edges),
            "shadow_level": args.shadow, "family": families.to_json_obj(H)}


def _recognize(args) -> dict[str, Any]:
    from . import designs, families
    with open(args.file, "r", encoding="utf-8") as fh:
        H = families.from_text(fh.read())
    res = designs.recognize_packing_shadow(H, args.i, args.r)
    return {
        "ok": res.ok, "i": args.i, "r": args.r,
        "blocks": res.design.blocks.edge_lists() if res.ok else None,
        "certificate": designs.verify_design(res.design, args.i).kind if res.ok else None,
        "witness": None if res.ok else list(res.witness),
    }


def _search(args) -> dict[str, Any]:
    from . import families, oracle
    i, max_degree = args.degree or (None, None)
    u, p = args.cliques or (None, None)
    spec = oracle.SearchSpec(n=args.n, s=args.s, t=args.t, m=args.edges,
                             i=i, max_degree=max_degree, u=u, p=p)
    res = oracle.exhaustive_search(spec)
    return {"status": res.status, "optimum": _s(res.optimum), "class_count": res.class_count,
            "families_scanned": res.families_scanned,
            "witnesses": [families.to_json_obj(w) for w in res.witnesses]}


def _verify_equality(args) -> dict[str, Any]:
    from . import oracle
    rep = oracle.verify_equality_theorems()
    return {
        "kind": "equality", "ok": rep.ok,
        "rows": [{"name": r["name"], "expected": _s(r["expected"]),
                  "got": _s(r["got"]), "ok": r["ok"]} for r in rep.rows],
    }


def _call(fn: str, payload: Callable, ints: list[str], args) -> dict[str, Any]:
    home, name = fn.split(".")
    f = getattr(import_module(f".{home}", __package__), name)
    return payload(f(*(getattr(args, a) for a in ints)))


def _arg(*flags: str, **kw) -> tuple:
    return flags, kw


# Subcommand groups: name -> (dest, help).
_GROUPS = {
    "colex": ("colex_op", "colex initial segment counts and edges"),
    "bound": ("bound_kind", "signpost upper bounds on clique counts"),
    "jumping": ("jumping_kind", "does the extremal count strictly increase at m+1?"),
    "unique": ("unique_kind", "is the colex segment the unique extremal family?"),
    "verify": ("verify_kind", "whole-space verification sweeps"),
}

# Every leaf, in help order: (path, help, arguments, run).  A bare name in
# the arguments is an int positional; an _arg(...) is any other argument.
# run is a handler of the parsed Namespace, or ("module.function", payload
# builder) for a leaf that passes its int positionals, in order, to one
# library function and wraps the result.
_LEAVES = (
    ("cascade", "strict cascade representation of m at level s", "m s", _cascade),
    ("colex count", "clique/shadow count of the colex segment",
     ("m", "s", _arg("level", type=int, nargs="?", default=None,
                     help="target level (>= s: cliques, < s: shadow); default s")),
     _colex_count),
    ("colex segment", "the first m s-sets in colex order", "m s", _colex_segment),
    ("bound vertex", "n vertices, max i-degree Delta", "n i s t delta",
     ("bounds.vertex_bound", _bound_payload)),
    ("bound edge", "m edges, max i-degree Delta", "m i s t delta",
     ("bounds.edge_bound", _bound_payload)),
    ("bound clique", "p u-cliques, max i-degree Delta", "p i s u t delta",
     ("bounds.clique_bound", _bound_payload)),
    ("bound graph", "graph case: p u-cliques, clique number <= r", "p u t r",
     ("bounds.graph_clique_bound", _bound_payload)),
    ("jumping shadow", None, "m s q", ("uniqueness.is_jumping", _verdict_payload)),
    ("jumping clique", None, "m s t n", ("uniqueness.is_clique_jumping", _verdict_payload)),
    ("unique colex", None, "m s q n", ("uniqueness.is_colex_unique", _verdict_payload)),
    ("unique clique", None, "m s t n", ("uniqueness.is_clique_unique", _verdict_payload)),
    ("jung", "edge counts where the Lovász ratio k^t/m peaks", "s t m_max", _jung),
    ("construct", "emit a built-in design or its shadow",
     (_arg("name", help="fano | s348 | pg23 | ag23 | disjoint(a,r)"),
      _arg("--shadow", type=int, default=None, metavar="S",
           help="emit the s-shadow of the blocks instead of the blocks")),
     _construct),
    ("recognize", "recover packing blocks from a shadow file",
     (_arg("file", help="family in text format ('n s' header, one edge per line)"), "i", "r"),
     _recognize),
    ("search", "exhaustive maximization of k^t under constraints",
     ("n", "s", "t", _arg("--edges", type=int, default=None, metavar="M"),
      _arg("--degree", type=int, nargs=2, default=None, metavar=("I", "DELTA")),
      _arg("--cliques", type=int, nargs=2, default=None, metavar=("U", "P"))),
     _search),
    ("verify kkt", None, "n s", ("oracle.verify_kkt", _sweep_payload)),
    ("verify uniqueness", None, "n s", ("oracle.verify_uniqueness", _sweep_payload)),
    ("verify equality", None, (), _verify_equality),
)


def _add_common_flags(p: argparse.ArgumentParser, leaf: bool) -> None:
    # Leaf subparsers get SUPPRESS defaults so flags work both before and
    # after the subcommand without the leaf default clobbering the global one.
    d = {"default": argparse.SUPPRESS} if leaf else {}
    p.add_argument("--format", choices=("json", "table", "csv"),
                   **(d or {"default": "json"}))
    p.add_argument("--out", metavar="FILE",
                   help="write output to FILE instead of stdout",
                   **(d or {"default": None}))
    p.add_argument("--threads", type=int,
                   help="accepted for compatibility; has no effect",
                   **(d or {"default": 1}))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kkcliques",
        description="Exact clique-counting bounds for bounded-degree uniform hypergraphs.",
    )
    _add_common_flags(ap, leaf=False)
    sub = ap.add_subparsers(dest="command", required=True)
    groups: dict[str, Any] = {}
    for path, summary, arguments, run in _LEAVES:
        *group, name = path.split()
        parent = sub
        if group:
            if group[0] not in groups:
                dest, ghelp = _GROUPS[group[0]]
                gp = sub.add_parser(group[0], help=ghelp)
                groups[group[0]] = gp.add_subparsers(dest=dest, required=True)
            parent = groups[group[0]]
        p = parent.add_parser(name, **({"help": summary} if summary else {}))
        if isinstance(arguments, str):
            arguments = arguments.split()
        for a in arguments:
            if isinstance(a, str):
                p.add_argument(a, type=int)
            else:
                p.add_argument(*a[0], **a[1])
        _add_common_flags(p, leaf=True)
        if isinstance(run, tuple):
            run = partial(_call, *run, [a for a in arguments if isinstance(a, str)])
        p.set_defaults(run=run)
    return ap


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser run() uses: one per process, since a parse leaves the tree
    as it was.  build_parser() still returns a fresh tree on every call."""
    return build_parser()


def _dispatch(args: argparse.Namespace) -> dict[str, Any]:
    return args.run(args)


def _flatten(prefix: str, obj: Any, rows: list[tuple[str, str]]) -> None:
    if isinstance(obj, dict):
        for k in obj:
            _flatten(f"{prefix}.{k}" if prefix else str(k), obj[k], rows)
    elif isinstance(obj, list):
        if all(not isinstance(v, (dict, list)) for v in obj):
            rows.append((prefix, " ".join("-" if v is None else str(v) for v in obj)))
        else:
            for idx, v in enumerate(obj):
                _flatten(f"{prefix}[{idx}]", v, rows)
    else:
        rows.append((prefix, "-" if obj is None else str(obj)))


def render(payload: dict[str, Any], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    rows: list[tuple[str, str]] = []
    _flatten("", payload, rows)
    if fmt == "csv":
        out = ["key,value"]
        for k, v in rows:
            vq = '"' + v.replace('"', '""') + '"' if ("," in v or '"' in v) else v
            out.append(f"{k},{vq}")
        return "\n".join(out) + "\n"
    width = max((len(k) for k, _ in rows), default=0)
    return "".join(f"{k.ljust(width)}  {v}\n" for k, v in rows)


def _execute(args: argparse.Namespace) -> CommandResult:
    try:
        payload = _dispatch(args)
        status = 0
    except InternalCheckError as e:
        payload = {"error": "InternalCheckError", "message": str(e)}
        status = 3
    except (UnsupportedError, ValueError, OSError, OverflowError) as e:
        payload = {"error": type(e).__name__, "message": str(e)}
        status = 1
    return CommandResult(payload, status)


def run(argv: Optional[list[str]] = None) -> CommandResult:
    """Parse argv and execute it, writing the rendered payload to --out if given.

    Nothing is printed: ``text`` holds the rendering that was not written to
    a file.  An unwritable --out replaces the payload with an OSError one.
    """
    args = _parser().parse_args(argv)
    res = _execute(args)
    res.text = render(res.payload, args.format)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(res.text)
            res.text = ""
        except OSError as e:
            res = CommandResult({"error": "OSError", "message": str(e)}, 1)
            res.text = render(res.payload, args.format)
    return res


def main(argv: Optional[list[str]] = None) -> int:
    res = run(argv)
    sys.stdout.write(res.text)
    return res.exit_status


if __name__ == "__main__":
    sys.exit(main())
