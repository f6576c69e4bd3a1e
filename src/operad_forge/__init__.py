"""Computer algebra for differential graded operads and modular operads
over the rationals: free constructions indexed by trees and stable
graphs, truncation functors, principal extensions, minimal models,
weight decompositions and formality certificates, plus a cubical-chains
layer with the symmetrized cross product.

Everything is exact: the scalars are ``fractions.Fraction`` throughout.
"""

from .qlinalg import (
    EigenSplit,
    Matrix,
    Subspace,
    char_poly,
    image,
    kernel,
    rank,
    rational_eigen_split,
    rref,
    solve,
)
from .chain import (
    ChainComplex,
    ChainMap,
    HomologyRecord,
    canonical_truncation,
    check_homotopy,
    homology,
    homology_dims,
    homotopy_solve,
    induced_map,
    is_weak_equivalence,
    mapping_cone,
    shift,
    subcomplex,
    tensor,
)
from .sigma import (
    Coinvariants,
    GroupAction,
    ModularSigmaModule,
    Permutation,
    SigmaModule,
    coinvariants,
    is_stable,
    modular_dimension,
    stable_pairs_up_to,
    stable_pairs_with_dimension,
    validate_action,
)
from .trees import (
    StableGraph,
    Tree,
    enumerate_stable_graphs,
    enumerate_trees,
    graph_automorphisms,
    graph_isomorphisms,
)
from .operad import (
    DGOperad,
    ModularOperad,
    OperadIdeal,
    OperadMorphism,
    extend_by_zero,
    homology_operad,
    ideal_closure,
    quotient,
    truncate,
    validate,
    validate_ideal,
    weak_equivalence_test,
)
from .free import (
    endomorphism_modular_operad,
    extend_freely,
    free_modular_operad,
    free_operad,
    morphism_from_generators,
)
from .minimal import (
    MinimalModel,
    NotIsomorphicError,
    ObstructionError,
    PrincipalExtension,
    is_minimal,
    iso_between_minimal,
    lift,
    minimal_model,
    principal_extension,
)
from .weight import (
    FormalityWitness,
    PureEndomorphism,
    PurityError,
    WeightFunction,
    formality_check,
    formality_witness_from_pure,
    grading_automorphism,
    purity_check,
    t_functor,
    weight_decompose,
)
from .cubical import (
    CubicChain,
    FiniteCubicalSet,
    ProductCubicalSet,
    alt,
    boundary,
    chain_complex,
    cross,
    interval,
    interval_power,
    kappa,
    point,
    sigma_tau_r_i,
    torus,
)

__version__ = "0.1.0"
