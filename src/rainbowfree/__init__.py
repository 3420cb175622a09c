"""Rainbow-free triangle families: constructions, search, certification.

A family is a multiset of triangles on vertices 0..n-1, each copy acting
as its own color. A rainbow triangle is a vertex triple whose three
edges can be charged to three distinct member copies. This package
builds the known extremal families, searches exhaustively for maximum
rainbow-free families, certifies the structural properties that force
the n^2/8 bound in set mode, and checks the decomposition consequences
for doubled multiset families that beat it.

Importing the package loads none of its modules: each name in __all__,
and each module named in _EXPORTS, loads its module on first use
(PEP 562), so a process that needs one module pays for that one alone.
"""

import importlib

__version__ = "0.1.0"

# the public names, by the module that defines them
_EXPORTS: dict[str, tuple[str, ...]] = {
    "canon": ("are_isomorphic", "canonical_form", "canonical_relabeling", "is_canonical"),
    "certifier": (
        "CertifierError", "CertifierReport", "MISLimitError", "RainbowFamilyError",
        "bipartition", "certify", "max_independent_set", "render_report",
    ),
    "cli": (),
    "constructions": (
        "DOUBLED_9_SUPPORT", "double", "doubled_nine", "doubled_nine_support",
        "is_tstar_family", "pair_family", "t_star",
    ),
    "family": (
        "MULTISET", "SET", "Edge", "MemberRef", "Triangle", "TriangleFamily",
        "TrifamError", "UnionGraph", "family_from_triangles", "parse_family",
        "serialize_family", "triangle", "triangle_edges", "union_graph",
    ),
    "rainbow": (
        "RainbowCertificate", "edge_owners", "find_rainbow", "has_rainbow",
        "render_certificate", "shared_edge_count", "verify_certificate",
    ),
    "rs": (
        "MultisetDecomposition", "bound_report", "check_t2_constraints", "decompose",
        "unique_triangle_property",
    ),
    "search": (
        "SearchConfig", "SearchError", "SearchResult", "enumerate_extremal", "extend_ok",
        "load_checkpoint", "max_family", "prove_size", "resume_search", "run_search",
    ),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name in _EXPORTS:
        # importing a submodule also binds it here, so this runs once
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
