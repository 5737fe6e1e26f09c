"""Every public callable, tried with a catalogue of bad data values.

Each call must return or raise a ToricLabError, never a bare Python
error.  A row names a callable, good arguments for it and which of them
are data; each data argument in turn is replaced by every value of
``BAD``.  Arguments that are library objects (a fan, a sphere, a pair, a
polytope, a coloring, a wall, a wall class, a volume polynomial) are
trusted, as the package docstring says, and are not tried; a callable
that takes only such arguments, and a store-only record, is listed in
``TRUSTED`` with its reason.  A public name with neither a row nor a
trusted entry fails :func:`test_every_public_callable_has_a_row`, so new
API is covered by construction.
"""

import ast
import inspect
import textwrap
from fractions import Fraction

import pytest

import toriclab
from toriclab import cohomology, exactlp
from toriclab.errors import ToricLabError

# about 30 values no data argument accepts, or accepts only as a valid
# input: nothing, bools, floats, huge and negative ints, strings and
# bytes, empty, ragged and nested sequences, mappings, sets, Fractions
# and a bare object
BAD = [
    None, True, False, 0.5, 1.0, float("nan"), 10**30, -1, -(10**30),
    "", "1/0", "x", b"ab", (), [], (1,), [(1, 2), (3,)], ((1, 2, 3), (4, 5)),
    [[[]]], [(1, 2, 3), [1, [2]]], [(0.5, 1, 1)], (None,), [0.5, 1, 1, 1],
    {}, {1: 2}, set(), {1, 2}, Fraction(1, 2), Fraction(3), object(),
]

TRUSTED = {
    **dict.fromkeys(toriclab._EXPORTS["errors"], "an exception: it carries a message"),
    **dict.fromkeys(["Fan3", "SimplicialSphere2", "SimplePolytope3", "Wall", "ConeAnalysis",
                     "ObstructionWitness", "exactlp.ConeMembership",
                     "exactlp.PositiveFunctional"],
                    "a store-only record; its validating maker, if any, has a row"),
    "CharacteristicPair": "takes a sphere and a characteristic function",
    "FacetColoring.is_proper": "takes a sphere",
    "betti_numbers": "takes a sphere",
    "four_color": "takes a sphere",
    "dual_sphere": "takes a polytope",
    "face_histogram": "takes a polytope",
    "is_fullerene": "takes a polytope",
    "serialize_polytope": "takes a polytope",
    "check_star_condition": "takes a pair",
    "signed_wall_classes": "takes a pair",
    "coloring_to_charfunc": "takes a coloring",
    "serialize_volume_polynomial": "takes a VolumePolynomial",
    **dict.fromkeys(["characteristic_pair", "check_unimodular",
                     "chern_number_c1c2", "delzant_obstruction_witness", "extremal_walls",
                     "gauss_bonnet_sum", "serialize_fan", "volume_polynomial", "wall_classes"],
                    "takes a Fan3"),
}


def _rows():
    """name -> (callable, good arguments, indices of the data arguments)."""
    tl = toriclab
    f = tl.load_fan("cp3")
    sphere, pair = f.sphere, f.characteristic_pair
    V = tl.volume_polynomial(f)
    tet = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    cube = tl.load_polytope("cube")
    return {
        "CharacteristicFunction": (tl.CharacteristicFunction, (f.rays,), (0,)),
        "parse_charfunc": (tl.parse_charfunc, ("lambda 1\nL 0: 1 0 0\n",), (0,)),
        "WallClass": (tl.WallClass, ((0, 1), ((0, -1), (2, 1)), 4), (0, 1, 2)),
        "certify_support": (tl.certify_support, (f, (1, 1, 1, 1)), (1,)),
        "edge_functionals": (tl.edge_functionals, (f, (1, 1, 1, 1)), (1,)),
        "linear_relation": (tl.linear_relation, (f, (1, 0, 0)), (1,)),
        "signed_triple_intersection": (tl.signed_triple_intersection, (pair, (0, 1, 2)), (1,)),
        "VolumePolynomial.__call__": (V, ((1, 1, 1, 1),), (0,)),
        "VolumePolynomial.coefficient": (V.coefficient, ((0, 1, 2),), (0,)),
        "FacetColoring": (tl.FacetColoring, (("a", "b", "c", "d"),), (0,)),
        "SimplicialSphere2.from_triangles": (tl.SimplicialSphere2.from_triangles,
                                             (4, sphere.triangles, sphere.oriented), (0, 1, 2)),
        "SimplicialSphere2.wall_apexes": (sphere.wall_apexes, ((0, 1),), (0,)),
        "SimplicialSphere2.vertex_degree": (sphere.vertex_degree, (0,), (0,)),
        "SimplicialSphere2.neighbors": (sphere.neighbors, (0,), (0,)),
        "SimplicialSphere2.orientation_sign": (sphere.orientation_sign, (0, 1, 2), (0, 1, 2)),
        "strict_convexity_witness": (tl.strict_convexity_witness,
                                     (pair.wall_classes, (1, 1, 1, 1)), (0, 1)),
        "corpus_get": (tl.corpus_get, ("cp3",), (0,)),
        "corpus_names": (tl.corpus_names, (), ()),
        "load_fan": (tl.load_fan, ("cp3",), (0,)),
        "load_polytope": (tl.load_polytope, ("cube",), (0,)),
        "cone_membership": (tl.cone_membership, ((1, 1), [(1, 0), (0, 1)]), (0, 1)),
        "positive_functional": (tl.positive_functional, ([(1, 0), (0, 1)],), (0,)),
        "exactlp.cone_sweep": (exactlp.cone_sweep, ([(1, 0), (0, 1), (1, 1)],), (0,)),
        "Fan3.from_data": (tl.Fan3.from_data, ("x", f.rays, tet, (1, 1, 1, 1)), (0, 1, 2, 3)),
        "check_complete": (tl.check_complete, (f, 7), (1,)),
        "wall_data": (tl.wall_data, (f, (0, 1)), (1,)),
        "parse_fan": (tl.parse_fan, (tl.corpus_get("cp3").text,), (0,)),
        "SimplePolytope3.from_facets": (tl.SimplePolytope3.from_facets,
                                        ("x", cube.facets), (0, 1)),
        "dual_polytope": (tl.dual_polytope, (sphere, "x"), (1,)),
        "parse_polytope": (tl.parse_polytope, (tl.corpus_get("cube").text,), (0,)),
    }


ROWS = _rows()


def _public_methods(cls, owner: str) -> set:
    return {f"{owner}.{name}" for name, v in vars(cls).items()
            if (not name.startswith("_") or name == "__call__")
            and (inspect.isfunction(v) or isinstance(v, (classmethod, staticmethod)))}


def test_every_public_callable_has_a_row():
    public = {*toriclab.__all__, *(f"exactlp.{name}" for name in exactlp.__all__
                                  if name not in toriclab.__all__)}
    for name in toriclab.__all__:
        obj = getattr(toriclab, name)
        if isinstance(obj, type) and not issubclass(obj, BaseException):
            public |= _public_methods(obj, name)
    # made only by volume_polynomial, so not exported, but called by users
    public |= _public_methods(cohomology.VolumePolynomial, "VolumePolynomial")
    assert not set(ROWS) & set(TRUSTED)
    assert public - set(ROWS) - set(TRUSTED) == set(), "public names without a row"
    assert set(ROWS) | set(TRUSTED) <= public, "rows for names that are not public"


@pytest.mark.parametrize("name", sorted(ROWS))
def test_good_arguments_are_accepted(name):
    call, args, _ = ROWS[name]
    call(*args)


@pytest.mark.parametrize("name", sorted(ROWS))
def test_bad_data_is_refused_or_accepted_but_never_escapes(name):
    call, args, data = ROWS[name]
    escaped = []
    for i in data:
        for bad in BAD:
            try:
                call(*args[:i], bad, *args[i + 1:])
            except ToricLabError:
                pass
            except Exception as exc:  # any other error escaped the readers
                escaped.append(f"argument {i} = {bad!r}: {type(exc).__name__}: {exc}")
    assert escaped == []


# Each data argument is read before it is used: its first load, past
# ``is None`` and ``is not None`` tests, is an argument of a call to a name
# its module imports from ``toriclab.read`` (directly, or inside a tuple,
# list or starred display), or of a public callable with a row, which
# reads it in turn.

def _is_none_test(name, parent) -> bool:
    test = parent.get(name)
    return (isinstance(test, ast.Compare) and test.left is name and len(test.ops) == 1
            and isinstance(test.ops[0], (ast.Is, ast.IsNot))
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None)


def _read_by(name, parent, callees: set) -> bool:
    node = name
    while isinstance(parent.get(node), (ast.Tuple, ast.List, ast.Starred)):
        node = parent[node]
    call = parent.get(node)
    return (isinstance(call, ast.Call)
            and (node in call.args or any(k.value is node for k in call.keywords))
            and ast.unparse(call.func) in callees)


def _unread(source: str, params, callees: set) -> list[str]:
    """The parameters of the one function in ``source`` whose first load is
    not an argument of a call to one of ``callees`` (spelled as called:
    ``name`` or ``self.name``)."""
    (fn,) = ast.parse(textwrap.dedent(source)).body
    assert isinstance(fn, ast.FunctionDef), "no function to check"
    parent = {child: node for node in ast.walk(fn) for child in ast.iter_child_nodes(node)}
    loads = sorted((n for n in ast.walk(fn) if isinstance(n, ast.Name)
                    and isinstance(n.ctx, ast.Load)), key=lambda n: (n.lineno, n.col_offset))
    unread = []
    for p in params:
        first = next((n for n in loads if n.id == p and not _is_none_test(n, parent)), None)
        if first is None or not _read_by(first, parent, callees):
            unread.append(p)
    return unread


def _function(call):
    """The function object a row's callable runs."""
    if isinstance(call, type):
        return call.__init__
    if inspect.ismethod(call):
        return call.__func__
    return call if inspect.isfunction(call) else type(call).__call__


def _readers(module) -> set:
    """The names a module imports from ``.read``, at top level or in a function."""
    tree = ast.parse(inspect.getsource(module))
    return {a.asname or a.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "read"
            for a in node.names}


def test_every_data_argument_is_read_before_it_is_used():
    unread = []
    for name, (call, _, data) in sorted(ROWS.items()):
        fn = _function(call)
        params = list(inspect.signature(call).parameters)
        owner = fn.__qualname__.rpartition(".")[0]
        methods = {f"self.{n.rpartition('.')[2]}" for n in ROWS if n.startswith(f"{owner}.")}
        callees = _readers(inspect.getmodule(fn)) | set(ROWS) | methods
        unread += [f"{name}: {p}" for p in _unread(inspect.getsource(fn),
                                                   [params[i] for i in data], callees)]
    assert unread == []


def test_the_read_rule_flags_a_use_before_reading_only():
    compared = """
        def f(m, seed=None):
            if seed is None:
                seed = 0
            if m > 3:
                return _int(seed, "seed")
            return _int(m, "m")
    """
    read_first = """
        def g(m, rows):
            m = _int(m, "m")
            rows = _sequences((*rows,), "rows", "row {}")
            return [r for r in rows if len(r) == m]
    """
    callees = {"_int", "_sequences"}
    assert _unread(compared, ["m", "seed"], callees) == ["m"]
    assert _unread(read_first, ["m", "rows"], callees) == []
