"""Rainbow-free triangle families: constructions, search, certification.

A family is a multiset of triangles on vertices 0..n-1, each copy acting
as its own color. A rainbow triangle is a vertex triple whose three
edges can be charged to three distinct member copies. This package
builds the known extremal families, searches exhaustively for maximum
rainbow-free families, certifies the structural properties that force
the n^2/8 bound in set mode, and checks the decomposition consequences
for doubled multiset families that beat it.
"""

from .canon import (
    are_isomorphic,
    canonical_form,
    canonical_relabeling,
    is_canonical,
)
from .certifier import (
    CertifierError,
    CertifierReport,
    MISLimitError,
    RainbowFamilyError,
    bipartition,
    certify,
    max_independent_set,
    render_report,
)
from .constructions import (
    DOUBLED_9_SUPPORT,
    double,
    doubled_nine,
    doubled_nine_support,
    is_tstar_family,
    pair_family,
    t_star,
)
from .family import (
    MULTISET,
    SET,
    Edge,
    MemberRef,
    Triangle,
    TriangleFamily,
    TrifamError,
    UnionGraph,
    edge,
    family_from_triangles,
    parse_family,
    serialize_family,
    triangle,
    triangle_edges,
    union_graph,
)
from .rainbow import (
    RainbowCertificate,
    edge_owners,
    find_rainbow,
    has_rainbow,
    render_certificate,
    shared_edge_count,
    verify_certificate,
)
from .rs import (
    MultisetDecomposition,
    bound_report,
    check_t2_constraints,
    decompose,
    unique_triangle_property,
)
from .search import (
    SearchConfig,
    SearchError,
    SearchResult,
    enumerate_extremal,
    extend_ok,
    load_checkpoint,
    max_family,
    prove_size,
    resume_search,
    run_search,
)

__version__ = "0.1.0"

__all__ = [
    "DOUBLED_9_SUPPORT",
    "CertifierError",
    "CertifierReport",
    "Edge",
    "MISLimitError",
    "MULTISET",
    "MemberRef",
    "MultisetDecomposition",
    "RainbowCertificate",
    "RainbowFamilyError",
    "SET",
    "SearchConfig",
    "SearchError",
    "SearchResult",
    "Triangle",
    "TriangleFamily",
    "TrifamError",
    "UnionGraph",
    "are_isomorphic",
    "bipartition",
    "bound_report",
    "canonical_form",
    "canonical_relabeling",
    "certify",
    "check_t2_constraints",
    "decompose",
    "double",
    "doubled_nine",
    "doubled_nine_support",
    "edge",
    "edge_owners",
    "enumerate_extremal",
    "extend_ok",
    "family_from_triangles",
    "find_rainbow",
    "has_rainbow",
    "is_canonical",
    "is_tstar_family",
    "load_checkpoint",
    "max_family",
    "max_independent_set",
    "pair_family",
    "parse_family",
    "prove_size",
    "render_certificate",
    "render_report",
    "resume_search",
    "run_search",
    "serialize_family",
    "shared_edge_count",
    "triangle",
    "triangle_edges",
    "t_star",
    "union_graph",
    "unique_triangle_property",
    "verify_certificate",
]
