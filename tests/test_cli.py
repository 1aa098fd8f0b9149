"""CLI grammar, payload schemas, rendering, and exit codes."""

import argparse
import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
from math import comb, isqrt
from pathlib import Path
from types import ModuleType

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kkcliques
import kkcliques.cli as cli
from kkcliques.cascade import Cascade, cascade_eval
from kkcliques.cli import main, render, run
from kkcliques.designs import builtin_design, shadow_of_design
from kkcliques.errors import InternalCheckError
from kkcliques.families import from_json_obj, to_text
from conftest import modules_loaded_by

SCHEMA_DIR = Path(cli.__file__).parent / "schemas"
DATA = Path(__file__).parent / "data"


def check_schema(payload, name):
    schema = json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())
    jsonschema.validate(payload, schema)


def _leaves(parser, path=()):
    """(path, parser) of every leaf subcommand below parser, in help order."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [(" ".join(path), parser)]
    return [leaf for name, p in subs[0].choices.items() for leaf in _leaves(p, path + (name,))]


LEAVES = dict(_leaves(cli.build_parser()))


def schema_of(leaf):
    """Success schema of a leaf: its own, its group's, or the shared verdict one."""
    for name in (leaf, leaf.split()[0], leaf.split()[-1]):
        name = {"jumping": "verdict", "unique": "verdict"}.get(name, name)
        if (SCHEMA_DIR / f"{name}.schema.json").exists():
            return name
    raise AssertionError(f"no payload schema for leaf {leaf!r}")


@pytest.fixture(scope="module")
def family_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("families")
    files = {"shadow.txt": to_text(shadow_of_design(builtin_design("disjoint(2,4)"), 3)),
             "fano.txt": to_text(shadow_of_design(builtin_design("fano"), 2)),
             "colex.txt": to_text(from_json_obj(run(["colex", "segment", "7", "3"]).payload["family"])),
             "junk.txt": "not a family\n"}
    for name, text in files.items():
        (d / name).write_text(text)
    return [str(d / name) for name in files] + [str(d / "missing.txt")]


def test_cascade_examples():
    r = run(["cascade", "7", "3"])
    assert r.exit_status == 0
    assert r.payload == {"entries": [4, 3], "level": 3}
    check_schema(r.payload, "cascade")
    r = run(["cascade", "0", "3"])
    assert r.payload == {"entries": [], "level": 3}
    r = run(["cascade", str(10**100), "4"])
    assert r.exit_status == 0
    assert cascade_eval(Cascade(4, tuple(r.payload["entries"])), 4) == 10**100
    check_schema(r.payload, "cascade")


def test_bound_edge_example():
    r = run(["bound", "edge", "12", "1", "2", "3", "3"])
    assert r.exit_status == 0
    assert r.payload["value"] == "8"
    assert r.payload["x"] == "4"
    assert r.payload["equality_possible"] == "yes"
    check_schema(r.payload, "bound")


def test_bound_variants_validate():
    for argv in (["bound", "vertex", "13", "2", "3", "4", "2"],
                 ["bound", "clique", "8", "1", "2", "3", "4", "3"],
                 ["bound", "graph", "8", "3", "4", "4"]):
        r = run(argv)
        assert r.exit_status == 0
        check_schema(r.payload, "bound")


def _isqrt_floor(m, i, lo, delta):
    """floor(m (x - lo) / (lo + 1)) at x = i + (1 + sqrt(1 + 8 Delta)) / 2."""
    return (m * (2 * i - 2 * lo + 1) + isqrt(m * m * (1 + 8 * delta))) // (2 * (lo + 1))


def test_bound_irrational_x_payloads():
    r = run(["bound", "edge", "1", "1", "3", "4", "4"])
    assert r.exit_status == 0
    assert (r.payload["value"], r.payload["integer_value"]) == ("0.34307033081725358", "0")
    assert r.payload["x"] == "4.372281323269014"
    check_schema(r.payload, "bound")
    r = run(["bound", "clique", "5", "1", "3", "4", "5", "7"])
    assert r.exit_status == 0
    assert (r.payload["value"], r.payload["integer_value"]) == ("1.27491721763537484", "1")
    check_schema(r.payload, "bound")
    # a value below 1e-6 is still written positionally (str() would give 2.6054034611E-7)
    r = run(["bound", "edge", "1", "1", "6", "40", str(comb(39, 5) + 1)])
    assert r.exit_status == 0
    assert r.payload["value"] == "0.00000026054034611"
    check_schema(r.payload, "bound")


def test_bound_irrational_x_at_any_size():
    # x beyond the double range or m beyond it: exact floors, not an OverflowError
    delta = 10**400 + 1
    r = run(["bound", "edge", "10", "1", "3", "4", str(delta)])
    assert r.exit_status == 0
    assert r.payload["integer_value"] == str(_isqrt_floor(10, 1, 3, delta))
    assert r.payload["x"] == "1.414213562373095e+200"
    check_schema(r.payload, "bound")
    r = run(["bound", "edge", str(10**309), "1", "3", "4", "5"])
    assert r.exit_status == 0
    assert r.payload["integer_value"] == str(_isqrt_floor(10**309, 1, 3, 5))
    check_schema(r.payload, "bound")
    r = run(["bound", "vertex", str(10**400), "1", "3", "4", "5"])
    assert r.exit_status == 0
    check_schema(r.payload, "bound")
    r = run(["bound", "edge", "1", "1", "3", "4", str(10**700)])
    assert r.exit_status == 0 and r.payload["x"] == "inf"
    check_schema(r.payload, "bound")


def test_colex_count_levels():
    r = run(["colex", "count", "9", "3"])       # default level = s: edge identity
    assert r.payload["kind"] == "cliques" and r.payload["value"] == "9"
    check_schema(r.payload, "count")
    r = run(["colex", "count", "9", "3", "4"])
    assert r.payload["kind"] == "cliques" and r.payload["value"] == "3"
    r = run(["colex", "count", "9", "3", "2"])
    assert r.payload["kind"] == "shadow" and r.payload["value"] == "10"


def test_colex_segment_payload():
    r = run(["colex", "segment", "7", "3"])
    assert r.exit_status == 0
    check_schema(r.payload, "segment")
    H = from_json_obj(r.payload["family"])
    assert len(H.edges) == 7 and H.s == 3


def test_verdict_payloads():
    for argv in (["jumping", "shadow", "10", "3", "2"],
                 ["jumping", "clique", "6", "3", "4", "9"],
                 ["unique", "colex", "9", "3", "2", "9"],
                 ["unique", "clique", "7", "3", "4", "5"]):
        r = run(argv)
        assert r.exit_status == 0
        assert r.payload["verdict"] is True
        check_schema(r.payload, "verdict")


def test_jung_payload():
    r = run(["jung", "2", "3", "10"])
    assert r.payload["qualifying"] == ["1", "2", "3", "5", "6", "9", "10"]
    check_schema(r.payload, "jung")


def test_construct_and_round_trip(tmp_path):
    out = tmp_path / "shadow.json"
    status = main(["construct", "disjoint(2,4)", "--shadow", "3", "--out", str(out)])
    assert status == 0
    payload = json.loads(out.read_text())
    check_schema(payload, "construct")
    H = from_json_obj(payload["family"])
    assert H.edges == shadow_of_design(builtin_design("disjoint(2,4)"), 3).edges


def test_recognize_round_trip(tmp_path):
    H = shadow_of_design(builtin_design("disjoint(2,4)"), 3)
    f = tmp_path / "family.txt"
    f.write_text(to_text(H))
    r = run(["recognize", str(f), "1", "4"])
    assert r.exit_status == 0 and r.payload["ok"] is True
    assert r.payload["blocks"] == [(1, 2, 3, 4), (5, 6, 7, 8)]
    assert r.payload["certificate"] == "steiner"
    check_schema(json.loads(json.dumps(r.payload)), "recognize")


def test_recognize_packing_at_r_equal_s(tmp_path):
    # two disjoint 4-blocks read as a 4-uniform family are their own 4-shadow
    f = tmp_path / "blocks.txt"
    f.write_text(to_text(builtin_design("disjoint(2,4)").blocks))
    r = run(["recognize", str(f), "1", "4"])
    assert r.exit_status == 0 and r.payload["ok"] is True
    assert r.payload["blocks"] == [(1, 2, 3, 4), (5, 6, 7, 8)]
    check_schema(json.loads(json.dumps(r.payload)), "recognize")


def test_recognize_failure_witness(tmp_path):
    r = run(["colex", "segment", "7", "3"])
    f = tmp_path / "c7.txt"
    f.write_text(to_text(from_json_obj(r.payload["family"])))
    r = run(["recognize", str(f), "1", "4"])
    assert r.exit_status == 0 and r.payload["ok"] is False
    assert r.payload["witness"] == [1]
    assert r.payload["blocks"] is None


def test_search_payload():
    r = run(["search", "5", "2", "3", "--edges", "7"])
    assert r.exit_status == 0
    assert r.payload["optimum"] == "4" and r.payload["class_count"] == 1
    check_schema(json.loads(json.dumps(r.payload)), "search")


def test_search_witnesses_pinned(capsys):
    # eight classes: the witness of each is its least labelling, in
    # canonical order
    assert main(["search", "6", "3", "4", "--edges", "6", "--degree", "1", "5"]) == 0
    out = capsys.readouterr().out
    assert out == (DATA / "search_6_3_4_edges6_degree1_5.json").read_text()
    assert json.loads(out)["class_count"] == 8


def test_verify_payloads():
    r = run(["verify", "kkt", "4", "2"])
    assert r.exit_status == 0 and r.payload["ok"] is True
    check_schema(r.payload, "verify")
    r = run(["verify", "uniqueness", "4", "2"])
    assert r.payload["ok"] is True
    r = run(["verify", "equality"])
    assert r.payload["ok"] is True and len(r.payload["rows"]) == 23


def test_verify_kkt_sweeps_every_graph_on_7_vertices():
    # C(7,2) = 21 edges: past the old 20-edge sweep cap, inside the shared cap
    r = run(["verify", "kkt", "7", "2"])
    assert r.exit_status == 0 and r.payload["ok"] is True
    assert r.payload["families"] == 2 ** 21
    check_schema(r.payload, "verify")
    r = run(["verify", "kkt", "9", "2"])           # C(9,2) = 36 > 24
    assert r.exit_status == 1 and "exceeds sweep cap 24" in r.payload["message"]


def test_verify_kkt_sweeps_18_singletons():
    # C(18,9) = 48,620 9-sets: counting them one numpy pass each took about 55 s
    r = run(["verify", "kkt", "18", "1"])
    assert r.exit_status == 0 and r.payload["ok"] is True
    assert r.payload["families"] == 2 ** 18


def test_domain_error_exit_1(tmp_path):
    r = run(["bound", "edge", "5", "1", "2", "2", "3"])  # t = s
    assert r.exit_status == 1
    assert r.payload["error"] == "ValueError"
    check_schema(r.payload, "error")
    r = run(["recognize", str(tmp_path / "missing.txt"), "1", "4"])
    assert r.exit_status == 1
    assert r.payload["error"] == "FileNotFoundError"
    r = run(["recognize", __file__, "2", "3"])  # unparseable family file
    assert r.exit_status == 1


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["cascade", "7"])           # missing S
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["unknown-command"])
    assert exc.value.code == 2
    capsys.readouterr()


# One argv per leaf and the library function it calls; FILE is a family file.
INTERNAL_CALLS = {
    "cascade": ("cascade_of", "cascade 7 3"),
    "colex count": ("k_colex", "colex count 9 3 4"),
    "colex segment": ("colex_segment", "colex segment 7 3"),
    "bound vertex": ("vertex_bound", "bound vertex 13 2 3 4 2"),
    "bound edge": ("edge_bound", "bound edge 12 1 2 3 3"),
    "bound clique": ("clique_bound", "bound clique 8 1 2 3 4 3"),
    "bound graph": ("graph_clique_bound", "bound graph 8 3 4 4"),
    "jumping shadow": ("is_jumping", "jumping shadow 10 3 2"),
    "jumping clique": ("is_clique_jumping", "jumping clique 6 3 4 9"),
    "unique colex": ("is_colex_unique", "unique colex 9 3 2 9"),
    "unique clique": ("is_clique_unique", "unique clique 7 3 4 5"),
    "jung": ("jung_scan", "jung 2 3 10"),
    "construct": ("builtin_design", "construct fano"),
    "recognize": ("recognize_packing_shadow", "recognize FILE 1 4"),
    "search": ("exhaustive_search", "search 5 2 3 --edges 7"),
    "verify kkt": ("verify_kkt", "verify kkt 4 2"),
    "verify uniqueness": ("verify_uniqueness", "verify uniqueness 4 2"),
    "verify equality": ("verify_equality_theorems", "verify equality"),
}


@pytest.mark.parametrize("leaf", LEAVES)
def test_internal_check_exit_3(leaf, monkeypatch, family_files):
    # the library function is looked up on its home module when the leaf
    # runs, so a stub bound there is the one called
    def boom(*args, **kwargs):
        raise InternalCheckError("forced for testing")
    fn, argv = INTERNAL_CALLS[leaf]
    home = importlib.import_module(getattr(kkcliques, fn).__module__)
    monkeypatch.setattr(home, fn, boom)
    r = run([family_files[0] if a == "FILE" else a for a in argv.split()])
    assert r.exit_status == 3
    assert r.payload["error"] == "InternalCheckError"
    check_schema(r.payload, "error")


DESIGN_NAMES = ("fano", "pg23", "disjoint(2,4)", "disjoint(0,2)", "bogus")


@pytest.mark.parametrize("leaf", LEAVES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_every_leaf_keeps_the_exit_code_contract(leaf, data, family_files):
    # every argv ends in a schema-valid payload with exit 0, 1 or 3, or, when
    # a required positional is missing, in a usage error (SystemExit(2))
    words, options, required = leaf.split(), [], 0
    for a in LEAVES[leaf]._actions:
        if a.default is argparse.SUPPRESS:
            continue                            # -h, --format, --out, --threads
        if a.option_strings:
            if a.type is int and data.draw(st.booleans()):
                options += [a.option_strings[0]] + [str(data.draw(st.integers(-2, 8)))
                                                    for _ in range(a.nargs or 1)]
        elif a.nargs != "?" or data.draw(st.booleans()):
            values = (st.integers(-2, 8) if a.type is int else
                      st.sampled_from(DESIGN_NAMES if a.dest == "name" else family_files))
            words.append(str(data.draw(values)))
            required += a.nargs != "?"
    short = required > 0 and data.draw(st.booleans())
    if short:
        words = words[:len(leaf.split()) + required - 1]
    argv = words + options
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            r = run(argv)
    except SystemExit as e:
        assert short and e.code == 2, argv
        return
    assert not short, argv
    assert r.exit_status in (0, 1, 3), argv
    check_schema(json.loads(json.dumps(r.payload)), "error" if r.exit_status else schema_of(leaf))


def test_main_renders_formats(capsys):
    assert main(["cascade", "7", "3"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out) == {"entries": [4, 3], "level": 3}
    assert main(["cascade", "7", "3", "--format", "table"]) == 0
    out = capsys.readouterr().out
    assert "entries" in out and "4 3" in out
    assert main(["--format", "csv", "cascade", "7", "3"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "key,value"


def test_unwritable_out_is_a_domain_error(tmp_path, capsys):
    # the error payload goes to stdout in the chosen format, not a traceback
    target = tmp_path / "missing" / "x.json"
    assert main(["--out", str(target), "cascade", "7", "3"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "OSError" and str(target) in payload["message"]
    check_schema(payload, "error")
    assert main(["cascade", "7", "3", "--out", str(target), "--format", "csv"]) == 1
    assert capsys.readouterr().out.splitlines()[:2] == ["key,value", "error,OSError"]
    assert not target.parent.exists()


def test_run_writes_out_like_main(tmp_path, capsys):
    by_run, by_main = tmp_path / "run.csv", tmp_path / "main.csv"
    r = run(["--out", str(by_run), "--format", "csv", "cascade", "7", "3"])
    assert r.exit_status == 0 and r.text == ""
    assert main(["--out", str(by_main), "--format", "csv", "cascade", "7", "3"]) == 0
    assert capsys.readouterr().out == ""
    assert by_run.read_bytes() == by_main.read_bytes() == render(r.payload, "csv").encode()
    target = tmp_path / "missing" / "x.json"
    r = run(["--out", str(target), "cascade", "7", "3"])
    assert r.exit_status == 1
    assert r.payload["error"] == "OSError" and str(target) in r.payload["message"]
    check_schema(r.payload, "error")
    assert r.text == render(r.payload, "json")


def test_run_reuses_one_parser(monkeypatch):
    # run() parses with one tree per process, and a parse, even a failed one,
    # leaves it as a fresh tree would parse
    assert cli.build_parser() is not cli.build_parser()
    parser = cli._parser()
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda real=cli.build_parser: built.append(1) or real())
    argvs = [["cascade", "7", "3"], ["--format", "table", "bound", "edge", "12", "1", "2", "3", "3"],
             ["search", "5", "2", "3", "--edges", "6"], ["cascade", "7"], ["cascade", "7", "3"]]
    for argv in argvs:
        fresh = cli.build_parser()
        try:
            want = cli._execute(fresh.parse_args(argv)).payload
        except SystemExit:
            with pytest.raises(SystemExit), contextlib.redirect_stderr(io.StringIO()):
                run(argv)
            continue
        assert run(argv).payload == want
    assert cli._parser() is parser and len(built) == len(argvs)     # the fresh trees only


def test_docstring_grammar_matches_parser():
    # each "Subcommands:" line of the module docstring names one leaf and its
    # required positionals, in parser order
    lines = cli.__doc__.split("Subcommands:\n")[1].split("\n\n")[0].splitlines()
    documented = []
    for line in lines:
        words = line.split("(")[0].split("[")[0].split()
        path = [w for w in words if w.islower()]
        documented.append((" ".join(path), len(words) - len(path)))
    parsed = [(leaf, sum(1 for a in p._actions if not a.option_strings and a.nargs != "?"))
              for leaf, p in LEAVES.items()]
    assert documented == parsed


def test_flag_position_equivalent(capsys):
    main(["cascade", "9", "4", "--format", "json"])
    after = capsys.readouterr().out
    main(["--format", "json", "cascade", "9", "4"])
    before = capsys.readouterr().out
    assert after == before


def test_json_output_deterministic(capsys):
    main(["bound", "vertex", "13", "2", "3", "4", "2"])
    first = capsys.readouterr().out
    main(["bound", "vertex", "13", "2", "3", "4", "2"])
    assert capsys.readouterr().out == first
    keys = list(json.loads(first))
    assert keys == sorted(keys)


def test_closed_form_commands_leave_numpy_unloaded():
    # numpy is imported only where the kernel runs, so start-up and the
    # closed-form commands stay light
    code = (
        "import sys, kkcliques, kkcliques.cli as cli\n"
        "cli.build_parser()\n"
        "for argv in (['cascade', '7', '3'], ['bound', 'edge', '12', '1', '2', '3', '3']):\n"
        "    assert cli.run(argv).exit_status == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    src = str(Path(kkcliques.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


CLOSED_FORM_LEAVES = ("cascade", "colex count", "bound vertex", "bound edge", "bound clique",
                      "bound graph", "jumping shadow", "jumping clique", "unique colex",
                      "unique clique", "jung")


def test_closed_form_leaves_load_only_the_core():
    # families, designs and oracle load only for the leaves that use them
    argvs = [INTERNAL_CALLS[leaf][1].split() for leaf in CLOSED_FORM_LEAVES]
    code = ("import kkcliques.cli as cli\n"
            f"for argv in {argvs!r}:\n"
            "    assert cli.run(argv).exit_status == 0, argv\n")
    assert modules_loaded_by(code) == ["kkcliques", "kkcliques.bounds", "kkcliques.cascade",
                                       "kkcliques.cli", "kkcliques.errors",
                                       "kkcliques.uniqueness"]


# What each leaf beyond the closed-form core loads, as README's Start-up
# table lists it.
LEAF_LOADS = {
    "colex segment": ("families",),
    "construct": ("designs", "families"),
    "recognize": ("designs", "families"),
    "search": ("designs", "families", "oracle", "numpy"),
    "verify kkt": ("designs", "families", "oracle", "numpy"),
    "verify uniqueness": ("designs", "families", "oracle", "numpy"),
    "verify equality": ("designs", "families", "oracle", "numpy"),
}


@pytest.mark.parametrize("leaf", LEAF_LOADS)
def test_leaf_loads_only_its_modules(leaf, family_files):
    # each handler imports the modules it needs, and no others
    argv = [family_files[0] if a == "FILE" else a for a in INTERNAL_CALLS[leaf][1].split()]
    code = ("import kkcliques.cli as cli\n"
            f"assert cli.run({argv!r}).exit_status == 0\n")
    loaded = modules_loaded_by(code)
    extra = [m for m in LEAF_LOADS[leaf] if m != "numpy"]
    assert [m for m in loaded if m.startswith("kkcliques")] == sorted(
        ["kkcliques", "kkcliques.bounds", "kkcliques.cascade", "kkcliques.cli",
         "kkcliques.errors", "kkcliques.uniqueness"] + [f"kkcliques.{m}" for m in extra])
    assert ("numpy" in loaded) == ("numpy" in LEAF_LOADS[leaf])
    assert "numpy.ma" not in loaded


def test_cli_calls_the_library_through_its_modules():
    # cli binds library modules, never their objects (errors aside), and every
    # "module.function" leaf names a callable defined in that module
    for name, obj in vars(cli).items():
        home = getattr(obj, "__module__", None)
        if isinstance(obj, ModuleType) or not isinstance(home, str):
            continue
        assert home.split(".")[0] != "kkcliques" or home in (
            "kkcliques.cli", "kkcliques.errors"), name
    for path, _, _, leaf_run in cli._LEAVES:
        if isinstance(leaf_run, tuple):
            home, fn = leaf_run[0].split(".")
            f = getattr(importlib.import_module(f"kkcliques.{home}"), fn)
            assert callable(f) and f.__module__ == f"kkcliques.{home}", path
