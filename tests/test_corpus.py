"""Corpus integrity: every built-in document is the serialization of its
construction, and validates end to end."""

import re
from fractions import Fraction

import pytest

from toriclab.cohomology import edge_functional
from toriclab.combinatorics import SimplicialSphere2
from toriclab.polytope import (
    SimplePolytope3,
    dual_polytope,
    dual_sphere,
    face_histogram,
    is_fullerene,
    parse_polytope,
    serialize_polytope,
)
from toriclab.corpus import (
    ENTRIES,
    FAN_NAMES,
    POLYTOPE_NAMES,
    corpus_get,
    corpus_names,
    load_fan,
    load_polytope,
)
from toriclab.errors import NotFound
from toriclab.fan import (
    Fan3,
    check_complete,
    check_unimodular,
    gauss_bonnet_sum,
    parse_fan,
    serialize_fan,
)


def _tetrahedron() -> SimplePolytope3:
    return SimplePolytope3.from_facets(
        "tetrahedron", [(0, 1, 2), (0, 3, 1), (0, 2, 3), (1, 3, 2)])


def _cube() -> SimplePolytope3:
    return SimplePolytope3.from_facets("cube", [
        (0, 1, 2, 3),
        (4, 7, 6, 5),
        (0, 4, 5, 1),
        (1, 5, 6, 2),
        (2, 6, 7, 3),
        (3, 7, 4, 0),
    ])


def _pentagonal_prism() -> SimplePolytope3:
    return SimplePolytope3.from_facets("pentagonal-prism", [
        (0, 1, 2, 3, 4),
        (5, 9, 8, 7, 6),
        (0, 5, 6, 1),
        (1, 6, 7, 2),
        (2, 7, 8, 3),
        (3, 8, 9, 4),
        (4, 9, 5, 0),
    ])


def _truncated_tetrahedron() -> SimplePolytope3:
    # a tetrahedron with one vertex cut off: 2 triangles + 3 quadrilaterals
    return SimplePolytope3.from_facets("truncated-tetrahedron", [
        (3, 0, 2, 5),
        (4, 1, 0, 3),
        (5, 2, 1, 4),
        (0, 2, 1),
        (3, 4, 5),
    ])


def _dodecahedron() -> SimplePolytope3:
    # dual of the icosahedron: caps around vertices 0 and 11, antiprism band
    icosa = SimplicialSphere2.from_triangles(12, (
        [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1)]
        + [(1, 2, 6), (2, 3, 7), (3, 4, 8), (4, 5, 9), (5, 1, 10)]
        + [(6, 7, 2), (7, 8, 3), (8, 9, 4), (9, 10, 5), (10, 6, 1)]
        + [(11, 7, 6), (11, 8, 7), (11, 9, 8), (11, 10, 9), (11, 6, 10)]
    ))
    return dual_polytope(icosa, "dodecahedron")


E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)


def _cp3_fan() -> Fan3:
    rays = [E1, E2, E3, (-1, -1, -1)]
    cones = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    return Fan3.from_data("cp3", rays, cones, support=[1, 1, 1, 1])


def _cube_fan() -> Fan3:
    rays = [E1, (-1, 0, 0), E2, (0, -1, 0), E3, (0, 0, -1)]
    cones = [(i, j, k) for i in (0, 1) for j in (2, 3) for k in (4, 5)]
    return Fan3.from_data("cube-fan", rays, cones, support=[1] * 6)


def _blowup_cp3_fan() -> Fan3:
    rays = [E1, E2, E3, (-1, -1, -1), (1, 1, 1)]
    cones = [(0, 1, 4), (0, 2, 4), (1, 2, 4),
             (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    return Fan3.from_data("blowup-cp3", rays, cones, support=[1, 1, 1, 1, 2])


def _cp1xcp2_fan() -> Fan3:
    rays = [E1, (-1, 0, 0), E2, E3, (0, -1, -1)]
    cones = [(i, j, k) for i in (0, 1) for (j, k) in ((2, 3), (2, 4), (3, 4))]
    return Fan3.from_data("cp1xcp2", rays, cones, support=[1] * 5)


def _flatwall_fan() -> Fan3:
    # cube fan with the (+,+,+) octant star-subdivided at (1,1,1); the three
    # inner walls {e_i, e_j} of the subdivided octant are flat (curvature 0)
    rays = [E1, (-1, 0, 0), E2, (0, -1, 0), E3, (0, 0, -1), (1, 1, 1)]
    cones = [(i, j, k) for i in (0, 1) for j in (2, 3) for k in (4, 5)
             if (i, j, k) != (0, 2, 4)]
    cones += [(6, 2, 4), (0, 6, 4), (0, 2, 6)]
    return Fan3.from_data("flatwall", rays, cones,
                          support=[1, 1, 1, 1, 1, 1, Fraction(5, 2)])


# each entry's construction, in corpus order
CONSTRUCTIONS = {
    "tetrahedron": _tetrahedron,
    "cube": _cube,
    "pentagonal-prism": _pentagonal_prism,
    "dodecahedron": _dodecahedron,
    "truncated-tetrahedron": _truncated_tetrahedron,
    "cp3": _cp3_fan,
    "cube-fan": _cube_fan,
    "blowup-cp3": _blowup_cp3_fan,
    "cp1xcp2": _cp1xcp2_fan,
    "flatwall": _flatwall_fan,
}


def test_every_entry_is_its_constructions_serialization():
    assert list(CONSTRUCTIONS) == list(ENTRIES)
    for name, build in CONSTRUCTIONS.items():
        entry = corpus_get(name)
        serialize = serialize_polytope if entry.kind == "polytope" else serialize_fan
        assert serialize(build()) == entry.text, name


def test_corpus_inventory():
    names = corpus_names()
    assert len(names) == 10
    assert set(POLYTOPE_NAMES) == {
        "tetrahedron", "cube", "pentagonal-prism", "dodecahedron",
        "truncated-tetrahedron",
    }
    assert set(FAN_NAMES) == {
        "cp3", "cube-fan", "blowup-cp3", "cp1xcp2", "flatwall",
    }
    assert set(names) == set(POLYTOPE_NAMES) | set(FAN_NAMES)


def test_entries_have_notes_and_kinds():
    for name in corpus_names():
        entry = corpus_get(name)
        assert entry.name == name
        assert entry.kind in ("polytope", "fan")
        assert entry.note
        assert entry.text.endswith("\n")


@pytest.mark.parametrize("name", POLYTOPE_NAMES)
def test_polytopes_validate(name):
    p = load_polytope(name)
    assert p.name == name
    # Euler relation for a simple 3-polytope.
    assert p.num_vertices - p.num_edges + p.num_facets == 2
    # the dual simplicial sphere reconstructs without complaint
    sphere = dual_sphere(p)
    assert sphere.m == p.num_facets


@pytest.mark.parametrize("name", POLYTOPE_NAMES)
def test_polytope_serialization_round_trips(name):
    entry = corpus_get(name)
    assert serialize_polytope(parse_polytope(entry.text)) == entry.text


@pytest.mark.parametrize("name", FAN_NAMES)
def test_fans_are_unimodular_and_complete(name):
    f = load_fan(name)
    assert f.name == name
    assert check_unimodular(f).ok
    check_complete(f)  # raises on failure
    assert gauss_bonnet_sum(f) == 24


@pytest.mark.parametrize("name", FAN_NAMES)
def test_fan_serialization_round_trips(name):
    entry = corpus_get(name)
    assert serialize_fan(parse_fan(entry.text)) == entry.text


@pytest.mark.parametrize("name", FAN_NAMES)
def test_fan_supports_are_valid(name):
    # every bundled fan ships support parameters under which all edge
    # functionals are strictly positive (the fan is a genuine normal fan)
    f = load_fan(name)
    assert f.support is not None
    for w in f.walls:
        assert edge_functional(f, w.key, f.support) > 0


def test_dodecahedron_facts():
    p = load_polytope("dodecahedron")
    assert p.num_facets == 12
    assert p.num_vertices == 20
    assert p.num_edges == 30
    assert face_histogram(p) == {5: 12}
    assert is_fullerene(p)


def test_only_dodecahedron_is_a_fullerene():
    fullerenes = [n for n in POLYTOPE_NAMES if is_fullerene(load_polytope(n))]
    assert fullerenes == ["dodecahedron"]


def test_unknown_name_raises():
    with pytest.raises(NotFound, match="no corpus entry"):
        corpus_get("no-such-entry")


@pytest.mark.parametrize("name", [["cp3"], {"cp3": 1}, None, 3, b"cp3"], ids=repr)
@pytest.mark.parametrize("load", [corpus_get, load_fan, load_polytope])
def test_a_name_that_is_no_str_is_not_found(load, name):
    # an unhashable name escaped as a bare TypeError
    with pytest.raises(NotFound, match=rf"^no corpus entry named {re.escape(repr(name))}; "
                                       rf"available: tetrahedron, cube, "):
        load(name)


def test_kind_mismatch_raises():
    with pytest.raises(NotFound, match="is a fan"):
        load_polytope("cp3")
    with pytest.raises(NotFound, match="is a polytope"):
        load_fan("cube")
