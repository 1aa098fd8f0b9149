"""The package namespace: what `import kkcliques` loads and what its names are."""

import doctest
import sys

import pytest

import kkcliques
import kkcliques.bounds
import kkcliques.cascade
import kkcliques.designs
import kkcliques.families
import kkcliques.oracle
from conftest import modules_loaded_by

CORE = ["kkcliques", "kkcliques.bounds", "kkcliques.cascade", "kkcliques.errors",
        "kkcliques.uniqueness"]


def test_import_loads_only_the_closed_form_core():
    # families, designs and oracle (and numpy with it) load on first use
    assert modules_loaded_by("import kkcliques") == CORE


def test_star_import_binds_every_exported_name_to_its_home_object():
    ns = {}
    exec("from kkcliques import *", ns)
    for name in kkcliques.__all__:
        home = sys.modules[ns[name].__module__]
        assert getattr(home, name) is ns[name], name
    assert set(kkcliques.__all__) <= set(dir(kkcliques))
    assert kkcliques.__all__ == sorted(set(kkcliques.__all__))  # sorted, each name once


def test_steiner_divisibility_has_one_definition():
    assert not hasattr(kkcliques.designs, "steiner_divisibility")
    assert kkcliques.steiner_divisibility is kkcliques.bounds.steiner_divisibility


def test_deferred_names_follow_their_home_module(monkeypatch):
    # nothing is cached in the package: a stub on the home module is what it
    # returns, and the original again once the stub is gone
    original = kkcliques.oracle.verify_kkt
    monkeypatch.setattr(kkcliques.oracle, "verify_kkt", len)
    assert kkcliques.verify_kkt is len
    monkeypatch.undo()
    assert kkcliques.verify_kkt is original
    assert "verify_kkt" not in vars(kkcliques)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        kkcliques.no_such_name


def test_usage_examples_in_docstrings_run():
    # the usage blocks of the two modules that have them
    for module in (kkcliques.cascade, kkcliques.families):
        result = doctest.testmod(module)
        assert result.attempted > 0 and result.failed == 0, module.__name__
