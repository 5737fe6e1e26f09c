"""Exact invariants of simple 3-polytopes and unimodular fans in Z^3.

The layers, from input to certificates:

* :mod:`toriclab.read` — the one reader of outside input: the document
  line grammar and the check of every data argument.
* :mod:`toriclab.combinatorics` — oriented simplicial 2-spheres.
* :mod:`toriclab.polytope` — simple 3-polytopes as facet cycles, with
  duality both ways.
* :mod:`toriclab.charfunc` — characteristic functions and pairs, and the
  star condition.
* :mod:`toriclab.coloring` — proper 4-colorings and the characteristic
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

Arguments that are library objects (a ``Fan3``, a sphere, a polytope, a
characteristic function or pair, a coloring, a ``Wall``, a ``WallClass``
or a ``VolumePolynomial``) are trusted: anything else in their place is a
mistake in the calling code and may fail with any Python error.  Every
other argument is data, read by :mod:`toriclab.read`, and a bad value is
refused with a ``ToricLabError``.

Names resolve on first use: ``import toriclab`` loads no layer, and
``toriclab.X`` (or ``from toriclab import X``) imports only the module
that defines ``X``, as listed in ``_EXPORTS``.
"""

import importlib

_EXPORTS = {
    "charfunc": ("CharacteristicFunction", "CharacteristicPair", "check_star_condition",
                 "parse_charfunc"),
    "cohomology": ("WallClass", "certify_support", "chern_number_c1c2", "edge_functional",
                   "edge_functionals", "evaluate_volume", "linear_relation",
                   "serialize_volume_polynomial", "signed_triple_intersection",
                   "triple_intersection", "volume_polynomial"),
    "coloring": ("FacetColoring", "coloring_to_charfunc", "four_color"),
    "combinatorics": ("SimplicialSphere2", "betti_numbers"),
    "cone": ("ConeAnalysis", "ObstructionWitness", "delzant_obstruction_witness",
             "extremal_walls", "signed_wall_classes", "strict_convexity_witness",
             "wall_classes"),
    "corpus": ("corpus_get", "corpus_names", "load_fan", "load_polytope"),
    "errors": ("CertificationFailure", "IncompleteFan", "InternalError", "NotFound",
               "NoWitness", "NotUnimodular", "ParseError", "SupportInvalid",
               "ToricLabError", "ValidationError"),
    "exactlp": ("cone_membership", "positive_functional"),
    "fan": ("Fan3", "Wall", "certify_fan", "characteristic_pair", "check_complete",
            "check_unimodular", "classify_wall", "curvature", "gauss_bonnet_sum",
            "parse_fan", "serialize_fan", "wall_data"),
    "polytope": ("SimplePolytope3", "dual_polytope", "dual_sphere", "face_histogram",
                 "is_fullerene", "parse_polytope", "serialize_polytope"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _EXPORTS:  # a layer module, as in ``toriclab.corpus.ENTRIES``
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
