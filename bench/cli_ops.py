"""The cli_process workload: one `python -m kkcliques.cli` subprocess per op.

An op is ("cli", band, (argv, accepted exit codes, schema, check, check args)).
Each cycle runs every subcommand once with small seeded arguments, the table
and CSV formats, a search on the process pool, a domain error (exit 1), a
usage error (exit 2) and the known-defect argv.  Outputs are validated with
jsonschema against src/kkcliques/schemas/ and then against refs.py.
"""

from __future__ import annotations

import json
import os
import random
from math import comb
from pathlib import Path

import refs

SCHEMAS = Path("src/kkcliques/schemas")
DEFECT_DELTA = str(10**400 + 1)


def cli_ops(seed: int, recognize_files: dict[str, str]) -> list:
    """One cycle of argv ops; recognize_files maps a label to a family file it may use."""
    rng = random.Random(f"cli_process:{seed}")
    r = rng.randrange
    threads = str(min(2, os.cpu_count() or 1))
    ops = []

    def op(argv, codes, schema, check, *cargs, band=""):
        ops.append(("cli", band, (tuple(str(a) for a in argv), codes, schema, check, cargs)))

    m, s = r(10, 10**6), r(2, 7)
    op(["cascade", m, s], (0,), "cascade", "cascade", m, s)
    m, s = r(10, 10**5), r(2, 5)
    t = s + r(1, 3)
    op(["colex", "count", m, s, t], (0,), "count", "count", m, s, t)
    q = r(0, s)
    op(["colex", "count", m, s, q], (0,), "count", "count", m, s, q)
    m, s = r(5, 60), r(2, 4)
    op(["colex", "segment", m, s], (0,), "segment", "segment", m, s)
    i, s = 1, r(2, 4)
    t, k = s + r(0, 2), r(s - 1, s + 3)
    delta, n = comb(k, s - i), r(8, 40)
    op(["bound", "vertex", n, i, s, t, delta], (0,), "bound", "vertex", n, i, s, t, delta)
    m, x = r(10, 10**6), r(s + 1, s + 5)
    op(["bound", "edge", m, i, s, s + 1, comb(x - i, s - i)], (0,), "bound", "edge", m, i, s, s + 1, x)
    p, x = r(10, 10**5), r(5, 9)
    op(["bound", "clique", p, 1, 2, 3, 4, x - 1], (0,), "bound", "clique", p, 1, 2, 3, 4, x)
    p, rr = r(10, 10**5), r(4, 9)
    op(["bound", "graph", p, 3, 4, rr], (0,), "bound", "graph", p, 3, 4, rr)
    m, s = r(10, 10**6), r(3, 6)
    q = r(1, s)
    op(["jumping", "shadow", m, s, q], (0,), "verdict", "jumping", m, s, q)
    s, n = r(2, 4), r(8, 12)
    m, t = r(1, comb(n, s)), s + 1
    op(["jumping", "clique", m, s, t, n], (0,), "verdict", "clique_jumping", m, s, t, n)
    m = r(0, comb(n, s) + 1)
    op(["unique", "colex", m, s, 1, n], (0,), "verdict", "colex_unique", m, s, 1, n)
    op(["unique", "clique", m, s, t, n], (0,), "verdict", "clique_unique", m, s, t, n)
    s = r(2, 4)
    mm = r(20, 80)
    op(["jung", s, s + 1, mm], (0,), "jung", "jung", s, s + 1, mm)
    name = rng.choice(("fano", "s348", "pg23", "ag23"))
    op(["construct", name, "--shadow", 2], (0,), "construct", "construct", name, 2)
    label = rng.choice(sorted(recognize_files))
    path, i, rr, blocks = recognize_files[label]
    op(["recognize", path, i, rr], (0,), "recognize", "recognize", blocks)
    n, s = 6, 2
    m = r(6, 10)
    op(["search", n, s, 3, "--edges", m, "--threads", threads], (0,), "search", "search", m, s, 3)
    n, s = rng.choice([(5, 2), (5, 3), (6, 4), (4, 2)])
    op(["verify", "kkt", n, s], (0,), "verify", "sweep", n, s)
    op(["verify", "uniqueness", 5, 3], (0,), "verify", "sweep", 5, 3)
    op(["verify", "equality"], (0,), "verify", "equality")
    m, s = r(10, 10**6), r(2, 7)
    op(["cascade", m, s, "--format", "table"], (0,), "table", "cascade_table", m, s)
    m, x = r(10, 10**6), r(4, 8)
    op(["bound", "edge", m, 1, 2, 3, x - 1, "--format", "csv"], (0,), "csv", "edge_csv", m, 1, 2, 3, x)
    op(["cascade", r(1, 100), 0], (1,), None, None)
    op(["cascade", "x", r(1, 5)], (2,), None, None)
    # A payload with the exact floor or a clean domain error are both accepted.
    op(["bound", "edge", 10, 1, 3, 4, DEFECT_DELTA], (0, 1), "bound", "edge_irr",
       10, 1, 3, 4, 10**400 + 1, band="defect")
    return ops


def write_recognize_files(out_dir: Path, seed: int) -> dict:
    """Family files for the recognize subcommand: packing shadows and damaged ones."""
    rng = random.Random(f"cli_files:{seed}")
    out = {}
    for label, (a, r, s) in {"disjoint3x4": (3, 4, 3), "disjoint2x5": (2, 5, 3)}.items():
        blocks = [refs.mask(range(j * r, j * r + r)) for j in range(a)]
        H = sorted(refs.brute_shadow(blocks, s))
        n = a * r
        gone = rng.choice(H)
        for kind in ("true", "removed"):
            edges = H if kind == "true" else [e for e in H if e != gone]
            path = out_dir / f"{label}-{kind}.txt"
            lines = [f"{n} {s}"] + [" ".join(str(v + 1) for v in refs.bits(e)) for e in edges]
            path.write_text("\n".join(lines) + "\n")
            out[f"{label}-{kind}"] = (str(path), 1, r, blocks if kind == "true" else None)
    return out


def _family_masks(obj) -> set[int]:
    return {refs.mask(v - 1 for v in e) for e in obj["edges"]}


def _bound_floor(kind, *a):
    if kind == "vertex":
        n, i, s, t, delta = a
        return refs.vertex(n, i, s, t, delta)[0]
    if kind == "edge":
        m, i, s, t, x = a
        return refs.edge_exact(m, i, s, t, x)[0]
    if kind == "clique":
        p, i, s, u, t, x = a
        return refs.clique_exact(p, i, s, u, t, x)[0]
    return refs.graph(*a)[0]


def check_payload(check: str, cargs: tuple, payload, text: str) -> bool:
    """True when the CLI's output agrees with the independent reference."""
    if check == "cascade":
        return payload["entries"] == list(refs.cascade(*cargs))
    if check == "count":
        m, s, lvl = cargs
        want = refs.k_colex(m, s, lvl) if lvl >= s else refs.shadow_colex(m, s, lvl)
        return payload["value"] == str(want)
    if check == "segment":
        m, s = cargs
        n, seg = refs.colex_first(m, s)
        return payload["family"]["n"] == n and _family_masks(payload["family"]) == set(seg)
    if check in ("vertex", "edge", "clique", "graph"):
        return payload["integer_value"] == str(_bound_floor(check, *cargs))
    if check == "jumping":
        return payload["verdict"] == refs.jumping(*cargs)
    if check == "clique_jumping":
        return payload["verdict"] == refs.clique_jumping(*cargs[:3])
    if check == "colex_unique":
        return payload["verdict"] == refs.colex_unique(*cargs)
    if check == "clique_unique":
        return payload["verdict"] == refs.clique_unique(*cargs)
    if check == "jung":
        return payload["qualifying"] == [str(m) for m in refs.jung(*cargs)]
    if check == "construct":
        name, s = cargs
        return _family_masks(payload["family"]) == refs.brute_shadow(refs.known_design(name)[2], s)
    if check == "recognize":
        (blocks,) = cargs
        if blocks is None:
            return payload["ok"] is False
        return payload["ok"] is True and {refs.mask(v - 1 for v in b) for b in payload["blocks"]} == set(blocks)
    if check == "search":
        m, s, t = cargs
        return payload["optimum"] == str(refs.k_colex(m, s, t))
    if check == "sweep":
        n, s = cargs
        return payload["ok"] is True and payload["families"] == 2 ** comb(n, s)
    if check == "equality":
        return payload["ok"] is True
    if check == "cascade_table":
        rows = dict(line.split(None, 1) for line in text.splitlines() if line.strip())
        return rows.get("entries", "").split() == [str(a) for a in refs.cascade(*cargs)]
    if check == "edge_csv":
        lines = text.splitlines()
        rows = dict(line.split(",", 1) for line in lines[1:])
        return lines[0] == "key,value" and rows.get("integer_value") == str(_bound_floor("edge", *cargs))
    if check == "edge_irr":
        m, i, s, t, delta = cargs
        return payload["integer_value"] == str(refs.ratio_floor_irrational(m, i, s, delta))
    raise ValueError(f"unknown check {check}")


_validators: dict[str, object] = {}


def schema_ok(schema: str, payload) -> bool:
    import jsonschema
    v = _validators.get(schema)
    if v is None:
        doc = json.loads((SCHEMAS / f"{schema}.schema.json").read_text())
        v = _validators[schema] = jsonschema.Draft7Validator(doc)
    return v.is_valid(payload)


def classify(args: tuple, code: int | None, out: str, err: str) -> str:
    """Outcome of one CLI op: "ok", or the first way it failed."""
    argv, codes, schema, check, cargs = args
    if code is None:
        return "deadline"
    if "Traceback (most recent call last)" in err:
        return "traceback"
    if code not in codes:
        return f"exit:{code}"
    if code == 2:
        return "ok" if "usage:" in err and not out else "schema"
    if code == 1:
        try:
            return "ok" if schema_ok("error", json.loads(out)) else "schema"
        except ValueError:
            return "schema"
    if schema in ("table", "csv"):
        payload = None
    else:
        try:
            payload = json.loads(out)
        except ValueError:
            return "schema"
        if not schema_ok(schema, payload):
            return "schema"
    try:
        good = check_payload(check, cargs, payload, out)
    except (KeyError, TypeError, ValueError):
        good = False
    return "ok" if good else "wrong"

