"""The value classes keep the semantics they had as frozen dataclasses: the
same ``repr`` text, field-wise equality and hashing that ignore the kept
caches, no assignment, and the same refusals from their constructors, which bind
the fields as a dataclass's would."""

import re
from fractions import Fraction

import pytest

from toriclab.charfunc import CharacteristicFunction, CharacteristicPair, StarVerdict
from toriclab.cohomology import (certify_support, edge_functionals, evaluate_volume,
                                 linear_relation, volume_polynomial)
from toriclab.coloring import FacetColoring
from toriclab.combinatorics import SimplicialSphere2
from toriclab.cone import (ConeAnalysis, WallClass, delzant_obstruction_witness,
                           strict_convexity_witness, wall_classes)
from toriclab.corpus import CorpusEntry
from toriclab.errors import ValidationError
from toriclab.exactlp import cone_membership, cone_sweep, positive_functional
from toriclab.fan import Fan3, check_complete, parse_fan, serialize_fan
from toriclab.polytope import (SimplePolytope3, dual_polytope, parse_polytope,
                               serialize_polytope)
from toriclab.value import _Value

TET = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]


def sphere():
    return SimplicialSphere2.from_triangles(4, TET)


def lam():
    return CharacteristicFunction(((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)))


def fan():
    return Fan3.from_data("cp3", [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)], TET,
                          support=[1, 1, 1, Fraction(1, 2)])


def wall_class():
    return WallClass((0, 1), ((0, 1), (1, 1), (2, 1), (3, 1)), 4)


# The texts below are what the classes printed as frozen dataclasses.
SPHERE = ("SimplicialSphere2(m=4, triangles=((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)), "
          "oriented=((0, 1, 2), (1, 0, 3), (0, 2, 3), (2, 1, 3)), "
          "walls=((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))")
LAM = "CharacteristicFunction(vectors=((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)))"
FAN = ("Fan3(name='cp3', rays=((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)), "
       "maximal_cones=((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)), "
       f"sphere={SPHERE}, support=(Fraction(1, 1), Fraction(1, 1), Fraction(1, 1), "
       "Fraction(1, 2)))")
WALL_CLASS = "WallClass(wall=(0, 1), entries=((0, 1), (1, 1), (2, 1), (3, 1)), m=4)"

# class -> (an instance, its fields in order, the parent's repr)
VALUES = {
    "FacetColoring": (lambda: FacetColoring(("a", "b", "c", "d")), ["colors"],
                      "FacetColoring(colors=('a', 'b', 'c', 'd'))"),
    "CharacteristicFunction": (lam, ["vectors"], LAM),
    "CharacteristicPair": (lambda: CharacteristicPair(sphere(), lam()), ["sphere", "lam"],
                           f"CharacteristicPair(sphere={SPHERE}, lam={LAM})"),
    "StarVerdict": (lambda: StarVerdict(False, (((0, 1, 2), 2),)), ["ok", "violations"],
                    "StarVerdict(ok=False, violations=(((0, 1, 2), 2),))"),
    "LinearRelation": (lambda: linear_relation(fan(), (1, 0, 0)), ["mu", "coeffs"],
                       "LinearRelation(mu=(1, 0, 0), coeffs=(1, 0, 0, -1))"),
    "VolumePolynomial": (lambda: volume_polynomial(fan()), ["fan"],
                         f"VolumePolynomial(fan={FAN})"),
    "SimplicialSphere2": (sphere, ["m", "triangles", "oriented", "walls"], SPHERE),
    "SimplePolytope3": (
        lambda: SimplePolytope3.from_facets("tetrahedron",
                                            [(0, 1, 2), (0, 3, 1), (0, 2, 3), (1, 3, 2)]),
        ["name", "facets"],
        "SimplePolytope3(name='tetrahedron', facets=((0, 1, 2), (0, 3, 1), (0, 2, 3), (1, 3, 2)))"),
    "WallClass": (wall_class, ["wall", "entries", "m"], WALL_CLASS),
    "ConeAnalysis": (
        lambda: ConeAnalysis((wall_class(),), (((0, 1),),), ((0, 1),), None, ""),
        ["classes", "groups", "extremal", "witness", "note"],
        f"ConeAnalysis(classes=({WALL_CLASS},), groups=(((0, 1),),), extremal=((0, 1),), "
        "witness=None, note='')"),
    "ObstructionWitness": (
        lambda: delzant_obstruction_witness(fan()),
        ["wall", "a", "curvature", "case", "vertex", "neighbors", "dual_face_size"],
        "ObstructionWitness(wall=(0, 1), a=(-1, -1), curvature=4, case='a1 < 0', vertex=1, "
        "neighbors=(0, 2, 3), dual_face_size=3)"),
    "CorpusEntry": (lambda: CorpusEntry("cp3", "fan", "fan3 cp3\n", "a note"),
                    ["name", "kind", "text", "note"],
                    "CorpusEntry(name='cp3', kind='fan', text='fan3 cp3\\n', note='a note')"),
    "ConeMembership": (
        lambda: cone_membership((1, -1), [(1, 0), (0, 1)]),
        ["member", "coefficients", "separator"],
        "ConeMembership(member=False, coefficients=None, "
        "separator=(Fraction(0, 1), Fraction(-1, 1)))"),
    "PositiveFunctional": (
        lambda: positive_functional([(1, 0), (-1, 0)]), ["found", "y", "farkas"],
        "PositiveFunctional(found=False, y=None, farkas=(Fraction(1, 2), Fraction(1, 2)))"),
    "Wall": (lambda: fan().walls[0], ["pair", "apexes", "a", "curvature", "classification"],
             "Wall(pair=(0, 1), apexes=(2, 3), a=(-1, -1), curvature=4, "
             "classification='convex')"),
    "CompletenessCertificate": (
        lambda: check_complete(fan(), 1), ["direction", "cone", "attempts"],
        "CompletenessCertificate(direction=(-722, 168, 738), cone=(1, 2, 3), attempts=1)"),
    "Fan3": (fan, ["name", "rays", "maximal_cones", "sphere", "support"], FAN),
}

# what to read to fill the caches an instance keeps besides its fields
CACHES = {
    "CharacteristicPair": ["integrals"],
    "VolumePolynomial": ["terms"],
    "SimplicialSphere2": ["_neighbours", "_index", "_apex_pairs"],
    "SimplePolytope3": ["_index"],
    "Fan3": ["certificate", "wall_table", "characteristic_pair", "cone_analysis"],
}

# the classes whose own ``__init__`` checks the fields; the others bind
# and store them with ``_Value.__init__``
VALIDATING = {"FacetColoring", "CharacteristicFunction", "CharacteristicPair", "WallClass"}


def test_every_value_class_is_pinned():
    assert len(VALUES) == 17


@pytest.mark.parametrize("name", VALUES)
def test_repr_is_the_dataclass_text(name):
    make, _, text = VALUES[name]
    value = make()
    assert type(value).__name__ == name
    assert repr(value) == text


@pytest.mark.parametrize("name", VALUES)
def test_equality_and_hash_are_field_wise(name):
    make, fields, _ = VALUES[name]
    value = make()
    for attr in CACHES.get(name, ()):
        getattr(value, attr)
    assert bool(set(vars(value)) - set(fields)) == (name in CACHES)
    values = tuple(getattr(value, f) for f in fields)
    copy = type(value)(*values)  # the constructor keeps no cache
    assert set(vars(copy)) == set(fields)
    assert copy == value and not copy != value
    assert hash(copy) == hash(value) == hash(values)
    assert value != values and values != value


@pytest.mark.parametrize("name", VALUES)
def test_the_constructor_binds_the_fields(name):
    make, fields, _ = VALUES[name]
    value = make()
    cls = type(value)
    assert ("__init__" in vars(cls)) == (name in VALIDATING)
    assert (cls.__init__ is _Value.__init__) == (name not in VALIDATING)
    values = [getattr(value, f) for f in fields]
    assert cls(**dict(zip(fields, values))) == value
    assert cls(*values[:1], **dict(zip(fields[1:], values[1:]))) == value
    with pytest.raises(TypeError, match=f"missing .*'{fields[0]}'"):
        cls(**dict(zip(fields[1:], values[1:])))
    with pytest.raises(TypeError, match="unexpected keyword argument 'extra'"):
        cls(*values, extra=1)
    with pytest.raises(TypeError, match=f"multiple values for argument '{fields[0]}'"):
        cls(*values, **{fields[0]: values[0]})
    with pytest.raises(TypeError, match="positional arguments"):
        cls(*values, None)


def test_a_differing_field_breaks_equality():
    w = fan().walls[0]
    other = type(w)(w.pair, w.apexes, w.a, w.curvature, "flat")
    assert w != other
    assert fan() != Fan3(*(getattr(fan(), f) for f in VALUES["Fan3"][1][:-1]), None)


@pytest.mark.parametrize("name", VALUES)
def test_fields_cannot_be_assigned_or_deleted(name):
    make, fields, _ = VALUES[name]
    value = make()
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{fields[0]}'$"):
        setattr(value, fields[0], None)
    with pytest.raises(AttributeError, match="^cannot assign to field 'extra'$"):
        value.extra = 1
    with pytest.raises(AttributeError, match=f"^cannot delete field '{fields[-1]}'$"):
        delattr(value, fields[-1])
    assert repr(value) == VALUES[name][2]


@pytest.mark.parametrize("make, message", [
    (lambda: FacetColoring(("a", "e")), "unknown color 'e'"),
    (lambda: CharacteristicFunction(((1, 0),)),
     r"lambda\(0\) = \(1, 0\) is not an integer 3-vector"),
    (lambda: CharacteristicFunction(((2, 0, 0),)), r"lambda\(0\) = \(2, 0, 0\) is not primitive"),
    (lambda: CharacteristicFunction([[1, 0, 0], [1, 0]]),
     r"lambda\(1\) = \(1, 0\) is not an integer 3-vector"),
    (lambda: CharacteristicPair(sphere(), CharacteristicFunction(((1, 0, 0),))),
     "sphere has 4 vertices but lambda has 1 values"),
    (lambda: WallClass((0, 1), ((0, 1), (0, 2)), 4),
     r"wall class \(0, 1\): entry \(0, 2\) is out of ray order"),
    (lambda: WallClass((0, 1), ((5, 1),), 4),
     r"wall class \(0, 1\): entry \(5, 1\) is outside rays 0..3"),
    (lambda: WallClass((0, 1), ((1, 0),), 4), r"wall class \(0, 1\): entry \(1, 0\) is zero"),
    # an entry that is no (ray id, value) pair escaped as a bare ValueError
    # or TypeError
    (lambda: WallClass((0, 1), ((0, 1, 2),), 4),
     r"wall class \(0, 1\): entry \(0, 1, 2\) is not an int ray id with an int value"),
    (lambda: WallClass((0, 1), 5, 4),
     r"wall class \(0, 1\): entry 5 is not an int ray id with an int value"),
])
def test_constructors_refuse_as_before(make, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        make()


# a count that is not an int escaped as a bare TypeError from a comparison
@pytest.mark.parametrize("m", [None, "4", [4], (4,), {}, b"4", True, 4.0], ids=repr)
def test_counts_that_are_no_int_are_refused(m):
    with pytest.raises(ValidationError, match=rf"^vertex count m = {re.escape(repr(m))} "
                                              rf"is not an int$"):
        SimplicialSphere2.from_triangles(m, TET)
    with pytest.raises(ValidationError, match=rf"^wall class \(0, 1\): ray count "
                                              rf"m = {re.escape(repr(m))} is not an int$"):
        WallClass((0, 1), ((0, 1),), m)


# a wall that is no pair u < v of ray ids was stored, and named in a
# strict-convexity refusal as given
@pytest.mark.parametrize("wall", [None, "wall", (1, 0), (0, 0), (0,), (0, 1, 2), [0, 1],
                                  (-1, 1), (0, 4), (True, 2), (0, 1.0)], ids=repr)
def test_walls_that_are_no_ray_pair_are_refused(wall):
    with pytest.raises(ValidationError, match=rf"^wall class {re.escape(repr(wall))}: "
                                              rf"wall is not a pair u < v of rays 0\.\.3$"):
        WallClass(wall, ((2, -1),), 4)


# a name the header line does not read back broke parse(serialize(x)) == x:
# None and 5 came back as 'None' and '5', ' a' as 'a', 'a#b' as 'a', and ''
# and 'a\nb' did not parse
CUBE = [(0, 1, 2, 3), (4, 7, 6, 5), (0, 4, 5, 1), (1, 5, 6, 2), (2, 6, 7, 3), (3, 7, 4, 0)]


@pytest.mark.parametrize("name", [None, 5, b"a", " a", "a ", "a#b", "", "a\nb", "\u2003"],
                         ids=repr)
def test_names_a_header_does_not_read_back_are_refused(name):
    for make, kind in ((lambda: Fan3.from_data(name, fan().rays, TET), "fan3"),
                       (lambda: SimplePolytope3.from_facets(name, CUBE), "poly3"),
                       (lambda: dual_polytope(sphere(), name), "poly3")):
        with pytest.raises(ValidationError, match=rf"^name {re.escape(repr(name))} does not "
                                                  rf"read back from a '{kind} <name>' line$"):
            make()


@pytest.mark.parametrize("name", ["a b", "a\tb", "\u00e9t\u00e9", "\u2003x", "x/1"], ids=repr)
def test_names_a_header_reads_back_round_trip(name):
    f = Fan3.from_data(name, fan().rays, TET)
    p = SimplePolytope3.from_facets(name, CUBE)
    assert parse_fan(serialize_fan(f)) == f and parse_polytope(serialize_polytope(p)) == p


# each call hands a non-iterable argument or row to the place where the
# outside sequence is first read, which names it
RAYS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
NO_SEQUENCE = [
    (lambda: Fan3.from_data("x", 5, TET), "rays = 5"),
    (lambda: Fan3.from_data("x", [RAYS[0], 5, *RAYS[2:]], TET), "ray 1 = 5"),
    (lambda: Fan3.from_data("x", RAYS, 5), "cones = 5"),
    (lambda: Fan3.from_data("x", RAYS, [TET[0], 5, *TET[2:]]), "cone 1 = 5"),
    (lambda: Fan3.from_data("x", RAYS, TET, support=5), "support = 5"),
    (lambda: CharacteristicFunction((None,)), r"lambda\(0\) = None"),
    (lambda: CharacteristicFunction(5), "lambda = 5"),
    (lambda: FacetColoring(5), "colors = 5"),
    (lambda: SimplicialSphere2.from_triangles(4, 5), "triangles = 5"),
    (lambda: SimplicialSphere2.from_triangles(4, [*TET[:3], 5]), "triangle 3 = 5"),
    (lambda: SimplicialSphere2.from_triangles(4, TET, 5), "oriented = 5"),
    (lambda: SimplicialSphere2.from_triangles(4, TET, [5, *TET[1:]]),
     "oriented triangle 0 = 5"),
    (lambda: SimplePolytope3.from_facets("p", 5), "facets = 5"),
    (lambda: SimplePolytope3.from_facets("p", [(0, 1, 2), None]), "facet 1 = None"),
    (lambda: linear_relation(fan(), 5), "mu = 5"),
    (lambda: cone_membership((1,), 5), "generators = 5"),
    (lambda: cone_membership((1,), [5]), "LP vector 0 = 5"),
    (lambda: cone_membership(5, [(1,)]), "LP vector 1 = 5"),
    (lambda: positive_functional(5), "LP vectors = 5"),
    (lambda: positive_functional([(1,), 5]), "LP vector 1 = 5"),
    (lambda: cone_sweep(5), "LP vectors = 5"),
    (lambda: cone_sweep([(1,), 5]), "LP vector 1 = 5"),
    (lambda: certify_support(fan(), 5), "support = 5"),
    (lambda: edge_functionals(fan(), 5), "support = 5"),
    (lambda: evaluate_volume(volume_polynomial(fan()), 5), "support = 5"),
    (lambda: volume_polynomial(fan())(5), "support = 5"),
    (lambda: strict_convexity_witness(wall_classes(fan()), 5), "candidate = 5"),
]


@pytest.mark.parametrize("make, message", NO_SEQUENCE)
def test_arguments_that_are_no_sequence_are_refused(make, message):
    with pytest.raises(ValidationError, match=f"^{message} is not a sequence$"):
        make()
