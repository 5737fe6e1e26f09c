"""Exact invariants of simple 3-polytopes and unimodular fans in Z^3.

The layers, from combinatorics to certificates:

* :mod:`toriclab.combinatorics` — simple 3-polytopes as facet cycles and
  oriented simplicial 2-spheres, with duality both ways.
* :mod:`toriclab.charfunc` — proper 4-colorings and the characteristic
  functions they induce.
* :mod:`toriclab.fan` — unimodular simplicial fans: wall coefficients,
  curvature, the Gauss-Bonnet sum, and completeness certification.
* :mod:`toriclab.cohomology` — degree-3 intersection integrals, Chern
  number, volume polynomials, and the signed extension to general pairs.
* :mod:`toriclab.cone` — effective-cone grouping, extremality by exact LP,
  strict-convexity witnesses, and the small-face obstruction witness.
* :mod:`toriclab.corpus` — built-in example documents.
* :mod:`toriclab.cli` — the ``toriclab`` command.

All arithmetic is exact (integers and fractions); nothing here floats.
"""

from .charfunc import (
    CharacteristicFunction,
    CharacteristicPair,
    FacetColoring,
    check_star_condition,
    coloring_to_charfunc,
    four_color,
    parse_charfunc,
)
from .cohomology import (
    betti_numbers,
    certify_support,
    chern_number_c1c2,
    edge_functional,
    edge_functionals,
    evaluate_volume,
    linear_relation,
    serialize_volume_polynomial,
    signed_triple_intersection,
    triple_intersection,
    volume_polynomial,
)
from .combinatorics import (
    SimplePolytope3,
    SimplicialSphere2,
    dual_polytope,
    dual_sphere,
    face_histogram,
    is_fullerene,
    parse_polytope,
    serialize_polytope,
)
from .cone import (
    ConeAnalysis,
    ObstructionWitness,
    WallClass,
    delzant_obstruction_witness,
    extremal_walls,
    signed_wall_classes,
    strict_convexity_witness,
    wall_classes,
)
from .corpus import corpus_get, corpus_names, load_fan, load_polytope
from .errors import (
    CertificationFailure,
    IncompleteFan,
    InternalError,
    NotFound,
    NoWitness,
    NotUnimodular,
    OrientationError,
    ParseError,
    SupportInvalid,
    ToricLabError,
    ValidationError,
)
from .exactlp import cone_membership, positive_functional
from .fan import (
    Fan3,
    Wall,
    certify_fan,
    characteristic_pair,
    check_complete,
    check_unimodular,
    classify_wall,
    curvature,
    gauss_bonnet_sum,
    parse_fan,
    serialize_fan,
    wall_data,
)

__version__ = "0.1.0"
