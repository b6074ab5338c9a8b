"""Geometric concept representation over domain-structured similarity spaces.

Concepts are fuzzy regions built from intersecting axis-parallel cuboids:
a crisp star-shaped core plus an exponentially decaying membership around
it, weighted per domain and dimension.  The package provides the metric
layer, the crisp and fuzzy set operations (intersection with repair, union,
subspace projection), the numeric kernels behind them, and a persistent
knowledge base with a CLI (``cspaces``).

All public types are immutable and all operations are pure functions, so
values can be shared freely across threads.
"""

from .concept import (ALPHA_FLOOR, CombinationParams, Concept,
                      SubsethoodReport, combine_adjective_noun,
                      subsethood_check)
from .errors import (ConceptSpaceError, KbFormatError, LatticeSizeError,
                     UnknownNameError, UnrelatedConceptsError, ValidationError)
from .geometry import Core, Cuboid, cores_intersect, repair
from .kb import Defaults, KnowledgeBase, concept_from_dict, concept_to_dict
from .optimize import (HeightResult, alpha_cut_bbox, distance_to_cuboid,
                       grid_oracle_max_min, height_of_intersection,
                       oracle_bounds)
from .space import (Point, Space, Weights, between, combined_distance,
                    domain_distance, similarity)

__version__ = "0.1.0"

__all__ = [
    "ALPHA_FLOOR",
    "CombinationParams",
    "Concept",
    "ConceptSpaceError",
    "Core",
    "Cuboid",
    "Defaults",
    "HeightResult",
    "KbFormatError",
    "KnowledgeBase",
    "LatticeSizeError",
    "Point",
    "Space",
    "SubsethoodReport",
    "UnknownNameError",
    "UnrelatedConceptsError",
    "ValidationError",
    "Weights",
    "alpha_cut_bbox",
    "between",
    "combine_adjective_noun",
    "combined_distance",
    "concept_from_dict",
    "concept_to_dict",
    "cores_intersect",
    "distance_to_cuboid",
    "domain_distance",
    "grid_oracle_max_min",
    "height_of_intersection",
    "oracle_bounds",
    "repair",
    "similarity",
    "subsethood_check",
    "__version__",
]
