"""Shared helpers: seeded random families, data paths, fresh interpreters and
stubs of the oracle's seams."""

import json
import os
import random
import subprocess
import sys
from contextlib import contextmanager
from itertools import combinations
from pathlib import Path

import pytest

import kkcliques
import kkcliques.oracle as oracle
from kkcliques.families import SetFamily

DATA_DIR = Path(__file__).parent / "data"


def random_family(rng: random.Random, n: int, s: int, density: float = 0.3) -> SetFamily:
    """Each s-subset of [n] included independently with the given density."""
    edges = [
        sum(1 << (v - 1) for v in c)
        for c in combinations(range(1, n + 1), s)
        if rng.random() < density
    ]
    return SetFamily(n, s, frozenset(edges))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0)


def modules_loaded_by(code: str) -> list[str]:
    """The kkcliques and numpy modules loaded after running code in a new
    interpreter that imports the package from this checkout."""
    code += ("\nimport json, sys\n"
             "print(json.dumps(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('kkcliques', 'numpy'))))\n")
    src = str(Path(kkcliques.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=60, check=True)
    return json.loads(out.stdout)


@contextmanager
def stubbed():
    """A MonkeyPatch context for stubbing an oracle seam or a _Kernel method.
    The per-shape records (oracle._shape) and the equality counts keep
    whatever they were built from, so _shape.cache_clear() and
    _equality_counts.cache_clear() run before a stub is bound, and again
    after the stub is undone."""
    clear()
    try:
        with pytest.MonkeyPatch.context() as mp:
            yield mp
    finally:
        clear()


def clear() -> None:
    """The oracle's reset: _shape.cache_clear(), which drops every per-shape
    record, and _equality_counts.cache_clear()."""
    oracle._shape.cache_clear()
    oracle._equality_counts.cache_clear()


@pytest.fixture
def oracle_patch():
    """stubbed() for a whole test."""
    with stubbed() as mp:
        yield mp
