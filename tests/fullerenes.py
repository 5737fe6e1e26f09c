"""Fullerene duals as plain triangle lists, built without the library.

A fullerene's dual is a triangulated 2-sphere with twelve vertices of
degree 5 and the rest of degree 6.  Two constructions are here:

* ``leapfrog``: the dual of the leapfrog of a polytope, read on its dual
  sphere: a new vertex in every triangle, joined to its corners, and
  every old edge flipped to join the two new vertices beside it.  On m
  vertices it gives 3m - 4; the leapfrog of the fullerene C_n is C_3n.
* ``goldberg_coxeter(k, l)``: the Goldberg-Coxeter construction GC(k, l)
  of the icosahedron, the dual of the icosahedral fullerene C_{20T} with
  T = k^2 + kl + l^2 and 10T + 2 vertices: every icosahedral face is laid
  on the triangular lattice as the triangle 0, z, z*w (z = k + l*w, w the
  sixth root of unity), and the unit lattice triangles are read off.

Both return ``(m, triangles)`` with vertices 0..m-1 and unoriented
triangles; ``check_fullerene_dual`` checks such a list with nothing but
counting.
"""

from collections import Counter
from itertools import combinations

# The icosahedron, each triangle counterclockwise seen from outside: a
# top vertex 0, an upper ring 1..5, a lower ring 6..10 and a bottom 11.
ICOSAHEDRON = tuple(t for i in range(5) for t in (
    (0, 1 + i, 1 + (i + 1) % 5),
    (1 + i, 6 + i, 1 + (i + 1) % 5),
    (1 + (i + 1) % 5, 6 + i, 6 + (i + 1) % 5),
    (11, 6 + (i + 1) % 5, 6 + i),
))


def leapfrog(m, triangles):
    """The leapfrog of the sphere (m, triangles): vertex m + t in triangle
    t, and the two triangles {u, m + s, m + t}, {v, m + s, m + t} for each
    edge uv of triangles s and t."""
    sides = {}
    for t, tri in enumerate(triangles):
        for u, v in combinations(sorted(tri), 2):
            sides.setdefault((u, v), []).append(m + t)
    out = []
    for (u, v), (s, t) in sides.items():
        out += [(u, s, t), (v, s, t)]
    return m + len(triangles), out


# Eisenstein integers a + b*w as pairs (a, b), with w*w = w - 1.

def _mul(x, y):
    (a, b), (c, d) = x, y
    return a * c - b * d, a * d + b * c + b * d


def _sub(x, y):
    return x[0] - y[0], x[1] - y[1]


def _cross(x, y):
    """The signed area of x and y, in units of that of 1 and w."""
    return x[0] * y[1] - x[1] * y[0]


def goldberg_coxeter(k, l):
    """GC(k, l) of the icosahedron, for k >= 1 and l >= 0.

    A lattice point is named by its barycentric coordinates on the corners
    of a face that holds it, which faces sharing it agree on.  Each face
    takes the unit triangles whose centroid lies in its closed triangle;
    a corner of such a triangle outside the face is carried into the face
    across the edge it lies beyond, by the half-turn about that edge's
    midpoint, until it lies in a face.
    """
    z = (k, l)
    corners = ((0, 0), z, _mul(z, (0, 1)))
    turn = (0, -1)  # w^-2 = -w, a turn by -120 degrees
    face_of = {}  # directed edge -> its face, as (x, y, third)
    for a, b, c in ICOSAHEDRON:
        for x, y, t in ((a, b, c), (b, c, a), (c, a, b)):
            face_of[x, y] = (x, y, t)

    def sides(q):
        return [_cross(_sub(corners[(i + 1) % 3], corners[i]), _sub(q, corners[i]))
                for i in range(3)]

    def name(face, q):
        for _ in range(8):
            s = sides(q)
            if min(s) >= 0:
                # weight of corner i is the area opposite it, s[i + 1]
                return tuple(sorted((face[i], s[(i + 1) % 3]) for i in range(3)
                                    if s[(i + 1) % 3]))
            for _ in range(s.index(min(s))):  # turn until the edge crossed is 0 -> z
                face = (face[1], face[2], face[0])
                q = _mul(_sub(q, z), turn)
            face = face_of[face[1], face[0]]
            q = _sub(z, q)
        raise AssertionError(f"lattice point {q} lies too far from its face")

    a_lo, a_hi, b_hi = -l - 1, k + 1, k + l + 1
    names = {}
    out = set()
    for face in ICOSAHEDRON:
        for a in range(a_lo, a_hi + 1):
            for b in range(-1, b_hi + 1):
                p = (a, b)
                for tri, centroid in (
                        ((p, (a + 1, b), (a, b + 1)), (3 * a + 1, 3 * b + 1)),
                        (((a + 1, b), (a, b + 1), (a + 1, b + 1)), (3 * a + 2, 3 * b + 2))):
                    if min(_cross(_sub(corners[(i + 1) % 3], corners[i]),
                                  _sub(centroid, (3 * corners[i][0], 3 * corners[i][1])))
                           for i in range(3)) >= 0:
                        out.add(frozenset(names.setdefault(n, len(names))
                                          for n in (name(face, q) for q in tri)))
    assert all(len(t) == 3 for t in out)
    return len(names), sorted(tuple(sorted(t)) for t in out)


def check_fullerene_dual(m, triangles):
    """Assert that (m, triangles) is a triangulated 2-sphere on 0..m-1 with
    twelve vertices of degree 5 and the rest of degree 6: every edge in
    two triangles, every link one cycle, Euler characteristic 2."""
    tris = {tuple(sorted(t)) for t in triangles}
    assert len(tris) == len(triangles) and all(len(set(t)) == 3 for t in tris)
    edges = Counter(e for t in tris for e in combinations(t, 2))
    assert set(edges.values()) == {2}
    assert m - len(edges) + len(tris) == 2
    link = {v: [] for v in range(m)}
    for t in tris:
        for v in t:
            link[v].append(tuple(x for x in t if x != v))
    for v, arcs in link.items():
        # one cycle: walk the link's arcs from one end round to the start
        nxt = {}
        for x, y in arcs:
            nxt.setdefault(x, []).append(y)
            nxt.setdefault(y, []).append(x)
        assert all(len(n) == 2 for n in nxt.values()), v
        prev, here, steps = None, arcs[0][0], 0
        while True:
            prev, here = here, next(y for y in nxt[here] if y != prev)
            steps += 1
            if here == arcs[0][0]:
                break
        assert steps == len(arcs), f"link of {v} is not one cycle"
    assert Counter(len(arcs) for arcs in link.values()) == Counter({5: 12, 6: m - 12})
