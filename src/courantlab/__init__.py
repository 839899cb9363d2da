"""Exact and numerical calculus for quadratic Lie algebras, Lagrangian
relations, and the bivectors induced by Lagrangian splittings of
anchored algebroids over matrix groups."""

from .exactlin import BilinearForm, ExactSubspace, frac
from .quadlie import (
    ManinTriple,
    QuadraticLieAlgebra,
    build_double,
    validate_algebra,
    validate_manin_triple,
)
from .lagrel import (
    Bivector,
    LinearRelation,
    SplitSpace,
    Splitting,
    backward_image,
    pair_groupoid_relation,
    related_lagrangian,
    related_splitting,
    splitting_bivector,
)
from .anchored import (
    AnchoredPoint,
    bivector_at,
    diagonal_backward,
    drinfeld_lagrangian,
    leaf_condition,
    pullback_point,
    rank_formula,
)

__version__ = "0.1.0"
