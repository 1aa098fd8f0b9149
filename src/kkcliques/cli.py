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

Output is the payload JSON object (default), a plain key/value table, or CSV
(--format).  Computed scalars that may exceed 2^53 are serialized as decimal
strings; structural parameters stay JSON numbers.  Exit codes: 0 success,
1 domain error (invalid parameters, unsupported case), 2 usage error,
3 internal cross-check failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Any, Optional

from .bounds import BoundReport, clique_bound, edge_bound, graph_clique_bound, jung_scan, vertex_bound
from .cascade import cascade_of, k_colex, shadow_colex
from .designs import builtin_design, recognize_packing_shadow, shadow_of_design, verify_design
from .errors import InternalCheckError, UnsupportedError
from .families import colex_segment, from_text, to_json_obj
from .oracle import (
    SearchSpec,
    exhaustive_search,
    verify_equality_theorems,
    verify_kkt,
    verify_uniqueness,
)
from .uniqueness import (
    UniquenessVerdict,
    is_clique_jumping,
    is_clique_unique,
    is_colex_unique,
    is_jumping,
)


@dataclass
class CommandResult:
    payload: dict[str, Any]
    exit_status: int


def _s(v) -> Optional[str]:
    """Decimal-string serialization for possibly-big exact scalars."""
    if v is None:
        return None
    return str(v)


def _bound_payload(rep: BoundReport) -> dict[str, Any]:
    return {
        "value": _s(rep.value),
        "integer_value": _s(rep.integer_value),
        "source": rep.source,
        "x": _s(rep.x),
        "equality_possible": rep.equality_possible,
        "notes": list(rep.notes),
    }


def _verdict_payload(v: UniquenessVerdict) -> dict[str, Any]:
    return {
        "predicate": v.predicate,
        "m": _s(v.m),
        "s": v.s,
        "level": v.level,
        "n": v.n,
        "verdict": v.verdict,
        "triggered_condition": v.triggered_condition,
    }


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
    leaves: list[argparse.ArgumentParser] = []

    def leaf(parent, name: str, **kw) -> argparse.ArgumentParser:
        p = parent.add_parser(name, **kw)
        leaves.append(p)
        return p

    p = leaf(sub, "cascade", help="strict cascade representation of m at level s")
    p.add_argument("m", type=int)
    p.add_argument("s", type=int)

    p = sub.add_parser("colex", help="colex initial segment counts and edges")
    csub = p.add_subparsers(dest="colex_op", required=True)
    c = leaf(csub, "count", help="clique/shadow count of the colex segment")
    c.add_argument("m", type=int)
    c.add_argument("s", type=int)
    c.add_argument("level", type=int, nargs="?", default=None,
                   help="target level (>= s: cliques, < s: shadow); default s")
    c = leaf(csub, "segment", help="the first m s-sets in colex order")
    c.add_argument("m", type=int)
    c.add_argument("s", type=int)

    p = sub.add_parser("bound", help="signpost upper bounds on clique counts")
    bsub = p.add_subparsers(dest="bound_kind", required=True)
    b = leaf(bsub, "vertex", help="n vertices, max i-degree Delta")
    for name in ("n", "i", "s", "t", "delta"):
        b.add_argument(name, type=int)
    b = leaf(bsub, "edge", help="m edges, max i-degree Delta")
    for name in ("m", "i", "s", "t", "delta"):
        b.add_argument(name, type=int)
    b = leaf(bsub, "clique", help="p u-cliques, max i-degree Delta")
    for name in ("p", "i", "s", "u", "t", "delta"):
        b.add_argument(name, type=int)
    b = leaf(bsub, "graph", help="graph case: p u-cliques, clique number <= r")
    for name in ("p", "u", "t", "r"):
        b.add_argument(name, type=int)

    p = sub.add_parser("jumping", help="does the extremal count strictly increase at m+1?")
    jsub = p.add_subparsers(dest="jumping_kind", required=True)
    j = leaf(jsub, "shadow")
    for name in ("m", "s", "q"):
        j.add_argument(name, type=int)
    j = leaf(jsub, "clique")
    for name in ("m", "s", "t", "n"):
        j.add_argument(name, type=int)

    p = sub.add_parser("unique", help="is the colex segment the unique extremal family?")
    usub = p.add_subparsers(dest="unique_kind", required=True)
    u = leaf(usub, "colex")
    for name in ("m", "s", "q", "n"):
        u.add_argument(name, type=int)
    u = leaf(usub, "clique")
    for name in ("m", "s", "t", "n"):
        u.add_argument(name, type=int)

    p = leaf(sub, "jung", help="edge counts where the Lovász ratio k^t/m peaks")
    for name in ("s", "t", "m_max"):
        p.add_argument(name, type=int)

    p = leaf(sub, "construct", help="emit a built-in design or its shadow")
    p.add_argument("name", help="fano | s348 | pg23 | ag23 | disjoint(a,r)")
    p.add_argument("--shadow", type=int, default=None, metavar="S",
                   help="emit the s-shadow of the blocks instead of the blocks")

    p = leaf(sub, "recognize", help="recover packing blocks from a shadow file")
    p.add_argument("file", help="family in text format ('n s' header, one edge per line)")
    p.add_argument("i", type=int)
    p.add_argument("r", type=int)

    p = leaf(sub, "search", help="exhaustive maximization of k^t under constraints")
    for name in ("n", "s", "t"):
        p.add_argument(name, type=int)
    p.add_argument("--edges", type=int, default=None, metavar="M")
    p.add_argument("--degree", type=int, nargs=2, default=None, metavar=("I", "DELTA"))
    p.add_argument("--cliques", type=int, nargs=2, default=None, metavar=("U", "P"))

    p = sub.add_parser("verify", help="whole-space verification sweeps")
    vsub = p.add_subparsers(dest="verify_kind", required=True)
    v = leaf(vsub, "kkt")
    v.add_argument("n", type=int)
    v.add_argument("s", type=int)
    v = leaf(vsub, "uniqueness")
    v.add_argument("n", type=int)
    v.add_argument("s", type=int)
    leaf(vsub, "equality")

    for lp in leaves:
        _add_common_flags(lp, leaf=True)
    return ap


def _dispatch(args: argparse.Namespace) -> dict[str, Any]:
    cmd = args.command
    if cmd == "cascade":
        c = cascade_of(args.m, args.s)
        return {"entries": list(c.entries), "level": c.level}

    if cmd == "colex":
        if args.colex_op == "count":
            level = args.s if args.level is None else args.level
            if level >= args.s:
                value, kind = k_colex(args.m, args.s, level), "cliques"
            else:
                value, kind = shadow_colex(args.m, args.s, level), "shadow"
            return {"m": _s(args.m), "s": args.s, "level": level,
                    "kind": kind, "value": _s(value)}
        H = colex_segment(args.m, args.s)
        return {"m": _s(args.m), "family": to_json_obj(H)}

    if cmd == "bound":
        kind = args.bound_kind
        if kind == "vertex":
            rep = vertex_bound(args.n, args.i, args.s, args.t, args.delta)
        elif kind == "edge":
            rep = edge_bound(args.m, args.i, args.s, args.t, args.delta)
        elif kind == "clique":
            rep = clique_bound(args.p, args.i, args.s, args.u, args.t, args.delta)
        else:
            rep = graph_clique_bound(args.p, args.u, args.t, args.r)
        return _bound_payload(rep)

    if cmd == "jumping":
        if args.jumping_kind == "shadow":
            return _verdict_payload(is_jumping(args.m, args.s, args.q))
        return _verdict_payload(is_clique_jumping(args.m, args.s, args.t, args.n))

    if cmd == "unique":
        if args.unique_kind == "colex":
            return _verdict_payload(is_colex_unique(args.m, args.s, args.q, args.n))
        return _verdict_payload(is_clique_unique(args.m, args.s, args.t, args.n))

    if cmd == "jung":
        ms = jung_scan(args.s, args.t, args.m_max)
        return {"s": args.s, "t": args.t, "m_max": _s(args.m_max),
                "qualifying": [_s(m) for m in ms]}

    if cmd == "construct":
        d = builtin_design(args.name)
        H = d.blocks if args.shadow is None else shadow_of_design(d, args.shadow)
        return {
            "design": args.name, "n": d.n, "r": d.r,
            "blocks": len(d.blocks.edges), "shadow_level": args.shadow,
            "family": to_json_obj(H),
        }

    if cmd == "recognize":
        with open(args.file, "r", encoding="utf-8") as fh:
            H = from_text(fh.read())
        res = recognize_packing_shadow(H, args.i, args.r)
        payload: dict[str, Any] = {"ok": res.ok, "i": args.i, "r": args.r}
        if res.ok:
            payload["blocks"] = res.design.blocks.edge_lists()
            payload["certificate"] = verify_design(res.design, args.i).kind
            payload["witness"] = None
        else:
            payload["blocks"] = None
            payload["certificate"] = None
            payload["witness"] = list(res.witness)
        return payload

    if cmd == "search":
        spec = SearchSpec(
            n=args.n, s=args.s, t=args.t, m=args.edges,
            i=args.degree[0] if args.degree else None,
            max_degree=args.degree[1] if args.degree else None,
            u=args.cliques[0] if args.cliques else None,
            p=args.cliques[1] if args.cliques else None,
        )
        res = exhaustive_search(spec)
        return {
            "status": res.status,
            "optimum": _s(res.optimum),
            "class_count": res.class_count,
            "families_scanned": res.families_scanned,
            "witnesses": [to_json_obj(w) for w in res.witnesses],
        }

    if cmd == "verify":
        if args.verify_kind == "equality":
            rep = verify_equality_theorems()
            return {
                "kind": "equality", "ok": rep.ok,
                "rows": [
                    {"name": r["name"], "expected": _s(r["expected"]),
                     "got": _s(r["got"]), "ok": r["ok"]}
                    for r in rep.rows
                ],
            }
        verify = verify_kkt if args.verify_kind == "kkt" else verify_uniqueness
        rep = verify(args.n, args.s)
        return {
            "kind": rep.kind, "n": rep.n, "s": rep.s, "ok": rep.ok,
            "families": rep.families, "checks": rep.checks,
            "failures": [
                {k: (v if isinstance(v, (int, bool, list, type(None))) else _s(v))
                 for k, v in f.items()}
                for f in rep.failures
            ],
        }

    raise AssertionError(f"unhandled command {cmd}")


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
    """Parse argv, execute, and capture payload + exit status without printing."""
    return _execute(build_parser().parse_args(argv))


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    res = _execute(args)
    text = render(res.payload, args.format)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            sys.stdout.write(render({"error": "OSError", "message": str(e)}, args.format))
            return 1
    else:
        sys.stdout.write(text)
    return res.exit_status


if __name__ == "__main__":
    sys.exit(main())
