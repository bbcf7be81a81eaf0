"""Connection analysis for signed multigraphs.

Balance, switching, and Harary bipartitions; sign connection with its
components, isthmi, articulation vertices, and blocks; frame and lift
matroids (circuits, rank, components, coloops); block structure, necklaces,
contrabalanced cactus recognition, and hypercyclic chains; parity and
positive/negative connection.  The `oracle` module holds independent
brute-force references, and `sweep` checks the two against each other on
every small signed graph.
"""

from .balance import (
    HararyBipartition,
    balancing_edges,
    balancing_vertices,
    component_balance,
    harary_bipartition,
    is_balanced,
)
from .core import (
    Edge,
    Sign,
    SignedGraph,
    Walk,
    chain_with_sign,
    connected_components,
    is_connected,
    sign_reachability,
    switch,
    walk_sign,
)
from .errors import (
    CycleBudgetExceeded,
    EdgeOutOfRange,
    GraphSyntaxError,
    InvalidWalk,
    NotABlock,
    NotSignConnected,
    PreconditionError,
    SignedGraphError,
    VertexOutOfRange,
)
from .io import emit, fixture, fixtures, parse
from .matroid import (
    CircuitClassification,
    CircuitVerdict,
    classify_circuit,
    frame_components,
    frame_isthmi,
    frame_rank,
    is_frame_connected,
    is_lift_connected,
    is_quasibalanced,
    lift_components,
    lift_isthmi,
    lift_rank,
)
from .sign_connectivity import (
    ComponentPartition,
    WitnessPair,
    graph_components,
    is_parity_connected,
    is_sign_block,
    is_sign_connected,
    negative_components,
    positive_components,
    sign_articulation_vertices,
    sign_components,
    sign_isthmi,
    witness_chains,
)
from .structure import (
    Block,
    BlockDecomposition,
    HypercyclicKind,
    HypercyclicVerdict,
    Theta,
    block_decomposition,
    classify_hypercyclic,
    contains_theta,
    detect_necklace,
    is_cactus_forest,
    is_contrabalanced,
)

__version__ = "1.0.0"
