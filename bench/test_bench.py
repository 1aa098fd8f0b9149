"""Self-checks of the benchmark itself (not collected by the package's tests).

    python3 -m pytest bench/test_bench.py -q

They check that a seed fixes the op list, that different seeds do the same
amount of work, that every reference rejects a planted wrong answer, that the
hard-coded search optima match an independent brute force, and the spread
arithmetic of the repeat mode.
"""

from __future__ import annotations

import dataclasses
import sys
from collections import Counter
from decimal import Decimal, getcontext
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import cli_ops  # noqa: E402
import refs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _kind_histogram(ops):
    hist: dict[tuple, int] = {}
    for kind, band, _ in ops:
        key = (kind.split(".u=t")[0], band)
        hist[key] = hist.get(key, 0) + 1
    return hist


@pytest.mark.parametrize("name", ["closed_forms", "structures", "verification"])
def test_seed_fixes_op_list(name):
    make = workloads.WORKLOADS[name].make_ops
    assert workloads.ops_digest(make(7)) == workloads.ops_digest(make(7))
    assert workloads.ops_digest(make(7)) != workloads.ops_digest(make(8))


def test_seeds_do_the_same_work():
    for name in ("closed_forms", "verification"):
        make = workloads.WORKLOADS[name].make_ops
        assert _kind_histogram(make(1)) == _kind_histogram(make(2))
    a, b = (workloads.structures_ops(k) for k in (1, 2))
    assert abs(len(a) - len(b)) <= 0.02 * len(a)


def test_cli_seed_fixes_argv(tmp_path):
    files = cli_ops.write_recognize_files(tmp_path, 3)
    one, two = cli_ops.cli_ops(3, files), cli_ops.cli_ops(3, files)
    assert workloads.ops_digest(one) == workloads.ops_digest(two)
    shape = lambda ops: [(op[2][0][0], op[2][1], op[2][3]) for op in ops]  # noqa: E731
    assert shape(one) == shape(cli_ops.cli_ops(4, files))
    assert workloads.ops_digest(one) != workloads.ops_digest(cli_ops.cli_ops(4, files))


# --- references against planted wrong answers -----------------------------

def _check(kinds, op, patch=None, monkeypatch=None):
    """Run one op like the benchmark does and return True when it passes its check."""
    kind, _, args = op
    k = kinds[kind]
    if patch:
        module, attr, fn = patch
        monkeypatch.setattr(module, attr, fn(getattr(module, attr)))
    try:
        return k.norm(k.call(*k.prep(args))) == k.ref(args)
    finally:
        if patch:
            monkeypatch.undo()


def _first(ops, kind, pred=lambda a: True):
    return next(op for op in ops if op[0] == kind and pred(op[2]))


def _bump_cascade(fn):
    def wrong(*a):
        c = fn(*a)
        return dataclasses.replace(c, entries=c.entries[:-1] + (c.entries[-1] + 1,))
    return wrong


def _plus_one(fn):
    return lambda *a: fn(*a) + 1


def _floor_plus_one(fn):
    def wrong(*a):
        rep = fn(*a)
        return dataclasses.replace(rep, integer_value=rep.integer_value + 1)
    return wrong


def _flip_verdict(fn):
    def wrong(*a):
        v = fn(*a)
        return dataclasses.replace(v, verdict=not v.verdict)
    return wrong


def test_closed_form_references_reject_planted_errors(monkeypatch):
    import kkcliques.bounds as B
    import kkcliques.cascade as C
    import kkcliques.uniqueness as U
    kinds = workloads.kinds_for("closed_forms")
    ops = workloads.closed_forms_ops(5)
    small = lambda a: a[0] < 10**12  # noqa: E731  (the float path is right at small m)
    cases = [
        (_first(ops, "cascade_of", lambda a: a[0] > 100), (C, "cascade_of", _bump_cascade)),
        (_first(ops, "k_colex", lambda a: a[0] <= 60 and a[2] <= a[1] + 2), (C, "k_colex", _plus_one)),
        (_first(ops, "k_colex", lambda a: a[0] > 10**20), (C, "k_colex", _plus_one)),
        (_first(ops, "shadow_colex", lambda a: a[0] <= 60), (C, "shadow_colex", _plus_one)),
        (_first(ops, "k_via_complement"), (C, "k_via_complement", _plus_one)),
        (_first(ops, "complement_cascade", lambda a: 0 < a[0] < comb(a[2], a[1])),
         (C, "complement_cascade", _bump_cascade)),
        (_first(ops, "vertex_bound.irr"), (B, "vertex_bound", _floor_plus_one)),
        (_first(ops, "edge_bound.exact", lambda a: a[5] >= a[3]), (B, "edge_bound", _floor_plus_one)),
        (_first(ops, "edge_bound.irr", small), (B, "edge_bound", _floor_plus_one)),
        (_first(ops, "clique_bound.irr", small), (B, "clique_bound", _floor_plus_one)),
        (_first(ops, "clique_bound.exact"), (B, "clique_bound", _floor_plus_one)),
        (_first(ops, "graph_clique_bound"), (B, "graph_clique_bound", _floor_plus_one)),
        (_first(ops, "jung_scan"), (B, "jung_scan", lambda fn: lambda *a: fn(*a)[:-1])),
        (_first(ops, "is_jumping"), (U, "is_jumping", _flip_verdict)),
        (_first(ops, "is_colex_unique"), (U, "is_colex_unique", _flip_verdict)),
        (_first(ops, "is_clique_jumping"), (U, "is_clique_jumping", _flip_verdict)),
        (_first(ops, "is_clique_unique"), (U, "is_clique_unique", _flip_verdict)),
    ]
    for op, patch in cases:
        assert _check(kinds, op), op
        assert not _check(kinds, op, patch, monkeypatch), op


def _drop_edge(fn):
    def wrong(*a):
        H = fn(*a)
        return dataclasses.replace(H, edges=frozenset(sorted(H.edges)[1:]))
    return wrong


def _drop_block(fn):
    def wrong(*a):
        d = fn(*a)
        return dataclasses.replace(d, blocks=dataclasses.replace(
            d.blocks, edges=frozenset(sorted(d.blocks.edges)[1:])))
    return wrong


def test_structure_references_reject_planted_errors(monkeypatch):
    import kkcliques.designs as D
    import kkcliques.families as F
    kinds = workloads.kinds_for("structures")
    ops = workloads.structures_ops(5)
    nonempty = lambda a: len(refs.brute_cliques(a[2], a[0], a[1], a[3])) > 0  # noqa: E731
    cases = [
        (_first(ops, "colex_segment"), (F, "colex_segment", _drop_edge)),
        (_first(ops, "retlex_segment", lambda a: a[1] > 1), (F, "retlex_segment", _drop_edge)),
        (_first(ops, "cliques", nonempty), (F, "cliques", _drop_edge)),
        (_first(ops, "shadow"), (F, "shadow", _drop_edge)),
        (_first(ops, "upshadow"), (F, "upshadow", _drop_edge)),
        (_first(ops, "max_degree"), (F, "max_degree", _plus_one)),
        (_first(ops, "relabel"), (F, "relabel", _drop_edge)),
        (_first(ops, "complement_family"), (F, "complement_family", _drop_edge)),
        (_first(ops, "text_roundtrip"), (F, "from_text", _drop_edge)),
        (_first(ops, "json_roundtrip"), (F, "from_json_obj", _drop_edge)),
        (_first(ops, "shadow_of_design"), (D, "shadow_of_design", _drop_edge)),
        (_first(ops, "builtin_design"), (D, "builtin_design", _drop_block)),
        (_first(ops, "verify_design"),
         (D, "verify_design", lambda fn: lambda *a: dataclasses.replace(fn(*a), kind="bogus"))),
        (_first(ops, "recognize_packing_shadow", lambda a: a[-1] == "true"),
         (D, "recognize_packing_shadow", lambda fn: lambda *a: D.RecognitionResult(None, (1,)))),
        (_first(ops, "recognize_packing_shadow", lambda a: a[-1] == "removed"),
         (D, "recognize_packing_shadow",
          lambda fn: lambda H, i, r: D.RecognitionResult(D.BlockDesign(H.n, H.s, H), None))),
        (_first(ops, "check_neighborhood_clique_criterion"),
         (D, "check_neighborhood_clique_criterion", lambda fn: lambda *a: not fn(*a))),
    ]
    for op, patch in cases:
        assert _check(kinds, op), op
        assert not _check(kinds, op, patch, monkeypatch), op


def test_verification_references_reject_planted_errors(monkeypatch):
    import kkcliques.oracle as O
    kinds = workloads.kinds_for("verification")
    op = ("exhaustive_search", "", (5, 2, 4, None, None, None, 3, 4))
    assert _check(kinds, op)
    assert not _check(kinds, op, (O, "exhaustive_search", lambda fn: lambda *a, **k: dataclasses.replace(
        fn(*a, **k), optimum=fn(*a, **k).optimum + 1)), monkeypatch)
    op = ("verify_kkt", "", (4, 2))
    assert _check(kinds, op)
    assert not _check(kinds, op, (O, "verify_kkt", lambda fn: lambda *a: dataclasses.replace(
        fn(*a), families=fn(*a).families // 2)), monkeypatch)


def test_cli_classification_rejects_planted_errors():
    args = (("cascade", "7", "3"), (0,), "cascade", "cascade", (7, 3))
    assert cli_ops.classify(args, 0, '{"entries": [4, 3], "level": 3}', "") == "ok"
    assert cli_ops.classify(args, 0, '{"entries": [4, 2], "level": 3}', "") == "wrong"
    assert cli_ops.classify(args, 0, '{"entries": [4, 3]}', "") == "schema"
    assert cli_ops.classify(args, 3, '{"error": "X", "message": "m"}', "") == "exit:3"
    assert cli_ops.classify(args, 1, "", "Traceback (most recent call last):\n") == "traceback"
    assert cli_ops.classify(args, None, "", "") == "deadline"
    usage = (("cascade", "x", "3"), (2,), None, None, ())
    assert cli_ops.classify(usage, 2, "", "usage: kkcliques cascade") == "ok"
    assert cli_ops.classify(usage, 2, "{}", "usage: kkcliques cascade") == "schema"
    edge = (("bound",), (0, 1), "bound", "edge_irr", (10, 1, 3, 4, 5))
    floor = refs.ratio_floor_irrational(10, 1, 3, 5)
    payload = ('{"value": "1", "integer_value": "%d", "source": "edge", "x": null, '
               '"equality_possible": "unknown", "notes": []}')
    assert cli_ops.classify(edge, 0, payload % floor, "") == "ok"
    assert cli_ops.classify(edge, 0, payload % (floor + 1), "") == "wrong"
    assert cli_ops.classify(edge, 1, '{"error": "ValueError", "message": "too big"}', "") == "ok"


# --- the references themselves --------------------------------------------

def test_reference_cascade_against_brute_force():
    for s in (2, 3, 4):
        for m in range(1, 40):
            assert refs.is_greedy_cascade(m, s, refs.cascade(m, s))
            for t in (s, s + 1, s + 2):
                assert refs.small_counts_agree(m, s, t, s - 1)
    assert refs.cascade(7, 3) == (4, 3)
    assert not refs.is_greedy_cascade(7, 3, (4, 2, 1))


def test_reference_irrational_floor_against_decimal():
    for m in (7, 10**13, 10**40 + 3, 10**310 + 1):
        getcontext().prec = len(str(m)) + 60
        for i, s, delta in ((1, 3, 5), (2, 4, 11), (3, 5, 40)):
            x = i + (1 + (1 + 8 * Decimal(delta)).sqrt()) / 2
            exact = int((Decimal(m) * (x - s) / (s + 1)).to_integral_value(rounding="ROUND_FLOOR"))
            assert refs.ratio_floor_irrational(m, i, s, delta) == exact


def _brute_search(n, s, t, m, i, dmax, u, p):
    """Optimum and feasible-family count by enumerating every edge subset."""
    universe = [refs.mask(c) for c in combinations(range(n), s)]
    sizes = [m] if m is not None else range(len(universe) + 1)
    best, count = None, 0
    for size in sizes:
        for edges in combinations(universe, size):
            if i is not None and refs.brute_max_degree(edges, i) > dmax:
                continue
            if u is not None and len(refs.brute_cliques(edges, n, s, u)) != p:
                continue
            count += 1
            k = len(refs.brute_cliques(edges, n, s, t))
            best = k if best is None else max(best, k)
    return best, count


@pytest.mark.parametrize("spec", list(workloads.SEARCH_SPECS))
def test_search_table_against_brute_force(spec):
    optimum, scanned = workloads.SEARCH_SPECS[spec]
    n, s, t, m = spec[:4]
    if optimum is None:
        optimum = refs.k_colex(m, s, t)
    assert _brute_search(*spec) == (optimum, scanned)


def test_repeat_spread_arithmetic():
    assert run.spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    values = [9.0, 10.0, 10.0, 11.0, 12.0]
    q1, med, q3 = 9.5, 10.0, 11.5
    assert run.spread(values) == pytest.approx((q3 - q1) / med)


def test_failures_count_each_op_once():
    """However many passes an op failed in, it is one failed op."""
    ops = [("cascade_of", "defect", (10**65, 3)), ("k_colex", "machine", (5, 2, 3)),
           ("cascade_of", "defect", (10**66, 3))]
    failures = Counter({(0, "deadline"): 7, (2, "deadline"): 3})
    assert run.summarize_failures(ops, failures) == {("cascade_of", "defect", "deadline"): 2}


# --- tracing ---------------------------------------------------------------

def test_tracer_self_time_errors_and_restore():
    import kkcliques
    import kkcliques.cascade as C
    import kkcliques.uniqueness as U
    import tracer
    original = C.cascade_of
    tr = tracer.Tracer()
    uninstall = tracer.install(tr)
    try:
        assert C.cascade_of is not original and kkcliques.cascade_of is C.cascade_of
        assert U.cascade_of is C.cascade_of
        C.k_colex(10**6, 5, 6)
        with pytest.raises(ValueError):
            U.is_jumping(5, 3, 3)
    finally:
        uninstall()
    assert C.cascade_of is original and U.cascade_of is original
    names = [tr.names[nid] for _, nid, *_ in tr.spans]
    assert names[:3] == ["cascade.cascade_of", "cascade.cascade_eval", "cascade.k_colex"]
    by_idx = {s[0]: s for s in tr.spans}
    k_colex = next(s for s in tr.spans if tr.names[s[1]] == "cascade.k_colex")
    children = [s for s in tr.spans if s[2] == k_colex[0]]
    assert len(children) == 2 and all(by_idx[s[0]][2] == k_colex[0] for s in children)
    m = tracer.pass_metrics(tr.names, tr.spans, tr.tags, [])
    total = sum(s[4] - s[3] for s in tr.spans if s[2] == -1)
    assert m["cascade.calls"] == 3 and m["uniqueness.calls"] == 1
    assert m["cascade.self_s"] + m["uniqueness.self_s"] == pytest.approx(total)
    assert m["uniqueness.errors"] == 1 and m["cascade.errors"] == 0
