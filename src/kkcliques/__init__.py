"""Exact clique-counting machinery for bounded-degree uniform hypergraphs.

Kruskal-Katona shadow/clique extremal functions via cascade representations,
three signpost upper bounds on clique counts (vertex / edge / clique-count
constrained), jumping and uniqueness predicates, Steiner and packing shadow
constructions with recognition, and a brute-force oracle that re-derives all
of it at desk scale.

Importing the package loads only the closed-form core: errors, cascade,
bounds and uniqueness.  The families, designs and oracle modules load on first
use of one of their names, so code that needs only closed forms never
compiles the set-family layers or the sweep engine.
"""

import importlib as _importlib
from types import ModuleType as _ModuleType

from .bounds import (
    BoundReport,
    clique_bound,
    edge_bound,
    graph_clique_bound,
    jung_scan,
    neighborhood_ratio_bound,
    steiner_divisibility,
    vertex_bound,
)
from .cascade import (
    Cascade,
    binom_exact,
    binom_inverse,
    binom_real,
    cascade_eval,
    cascade_of,
    complement_cascade,
    k_colex,
    k_via_complement,
    lovasz_clique_bound,
    shadow_colex,
)
from .errors import InternalCheckError, KKError, UnsupportedError
from .uniqueness import (
    UniquenessVerdict,
    is_clique_jumping,
    is_clique_unique,
    is_colex_unique,
    is_jumping,
)

# Home module of every exported name outside the closed-form core; each
# module loads on first use of one of its names (PEP 562).
_LAZY = {
    name: home
    for home, names in (
        ("families", "SetFamily cliques colex_compare colex_segment complement_family degree "
                     "from_text mask_of max_degree neighborhood relabel retlex_compare "
                     "retlex_segment shadow support to_text upshadow vertices_of"),
        ("designs", "BlockDesign DesignCertificate RecognitionResult builtin_design "
                    "check_neighborhood_clique_criterion recognize_packing_shadow "
                    "shadow_of_design verify_design"),
        ("oracle", "SearchResult SearchSpec canonical_form exhaustive_search tightness_sweep "
                   "verify_equality_theorems verify_kkt verify_uniqueness"),
    )
    for name in names.split()
}


def __getattr__(name: str):
    # Not cached here: the home module's current binding (a tracer's wrapper,
    # a test's stub) is what every lookup returns.
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_importlib.import_module(f"{__name__}.{home}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


# Every public name once: the core names the imports above bind, and _LAZY.
__all__ = sorted([name for name, value in globals().items()
                  if not name.startswith("_") and not isinstance(value, _ModuleType)] + list(_LAZY))

__version__ = "0.1.0"
