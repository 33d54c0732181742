"""Quantum graphs over finite quantum sets.

Construction, verification and deformation of quantum graphs: the Frobenius
calculus of finite quantum sets, the equivalent edge-projection / adjacency
/ operator-space pictures, bicharacter twists of abelian Cayley graphs
(quantum rook's graphs, anticommutative cube-like graphs), and the Schur
noncommutativity obstruction to quantum isomorphism with classical graphs.

The names imported below are the public API, declared here and nowhere else;
the README's "Library API" list says what each one is for.
"""

from .algebra import (
    AlgebraElement,
    Check,
    Operator,
    QuantumSet,
    Report,
    algebra_multiply,
    algebra_star,
    build_quantum_set,
    check_star_homomorphism,
    element_from_block_matrices,
    element_to_block_matrices,
    is_positive_element,
    left_mult_matrix,
    verify_frobenius,
)
from .catalog import (
    IOTA_2,
    LAMBDA_8,
    SIGMA_1,
    SIGMA_2,
    SIGMA_3,
    anticommutative_square,
    classify_m2,
    gell_mann_graph,
    m2_graph,
    m2_partial_family,
    pauli_edge,
)
from .clifford import (
    clifford_bicharacter,
    clifford_set,
    cube_like_graph,
    folded_embedding,
    folded_generators,
    folded_quotient_check,
    halved_square_check,
    hypercube_generators,
    squared_generators,
)
from .constructions import (
    check_isomorphism,
    conjugation_map,
    edge_subgraph,
    induced_subgraph,
    quotient_graph,
)
from .errors import InvalidInput, ResourceLimit
from .graphs import (
    EdgeProjection,
    GraphReport,
    QuantumGraph,
    adjacency_to_projection,
    check_bimodule,
    edge_spectrum,
    graph_from_subspace,
    graph_report,
    is_quantum_graph,
    projection_to_adjacency,
    quantum_edge,
    schur_product,
    schur_star,
    schur_unit,
    selfadjoint_basis,
    subspace_from_graph,
)
from .groups import (
    AbelianGroup,
    Bicharacter,
    cayley_spectrum,
    classical_cayley,
    twist_quantum_set,
    twisted_cayley,
)
from .kernels import hermitian_eigs, unit_root
from .obstruction import Certificate, Inconclusive, classical_obstruction, schur_closure
from .weyl import phi_isomorphism, quantum_rook, weyl_bicharacter

__version__ = "0.1.0"
