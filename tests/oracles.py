"""Independent reference computations used to pin expected test values.

Everything here is deliberately written by a different route than the
library code: brute force, direct geometry, or dense linear algebra over
`fractions.Fraction`.  Slow is fine; these run on desk-scale inputs only.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction


# ---------------------------------------------------------------------------
# random unimodular lattice transforms


def random_unimodular(rng: random.Random, bound: int = 5, det_sign: int = 1):
    """A pseudo-random integer 3x3 matrix with determinant +-1.

    Built as a product of elementary shears (determinant +1 each), retried
    until all entries stay within ``bound``.  ``det_sign=-1`` additionally
    swaps two rows.
    """
    while True:
        rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        for _ in range(rng.randrange(2, 7)):
            i, j = rng.sample(range(3), 2)
            s = rng.choice((-1, 1))
            cand = [list(r) for r in rows]
            for k in range(3):
                cand[i][k] += s * cand[j][k]
            if max(abs(x) for r in cand for x in r) > bound:
                continue
            rows = cand
        if det_sign == -1:
            rows[0], rows[1] = rows[1], rows[0]
        if rows != [[1, 0, 0], [0, 1, 0], [0, 0, 1]]:
            return tuple(tuple(r) for r in rows)


def apply_matrix(rows, v):
    return tuple(sum(rows[i][k] * v[k] for k in range(3)) for i in range(3))


def det3x3(rows) -> int:
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


# ---------------------------------------------------------------------------
# wall normalization by search


def _wall_apexes(triangles):
    """Each wall (u, v), u < v, of a triangle list, in sorted order, with
    the vertices completing it to triangles, ascending."""
    apexes = {}
    for t in triangles:
        for k in range(3):
            u, v = sorted(t[:k] + t[k + 1:])
            apexes.setdefault((u, v), []).append(t[k])
    return {wall: sorted(apexes[wall]) for wall in sorted(apexes)}


def wall_records_bruteforce(rays, triangles):
    """Every wall {u, v} (u < v) of a triangle list, normalized by trying
    all four orderings of its pair and apexes: the first (i1, i2, i, i')
    with det(i1, i2, i) = +1 and det(i1, i2, i') = -1 gives the record
    ``(pair, apexes, a, curvature, classification)`` with
    a1 = det(i', i2, i) and a2 = det(i1, i', i).  A wall that no ordering
    normalizes maps to None."""
    def det(i, j, k):
        return det3x3((rays[i], rays[j], rays[k]))

    records = {}
    for (u, v), (p, q) in _wall_apexes(triangles).items():
        records[(u, v)] = None
        for i1, i2, i, ip in ((u, v, p, q), (u, v, q, p), (v, u, p, q), (v, u, q, p)):
            if det(i1, i2, i) == 1 and det(i1, i2, ip) == -1:
                a = (det(ip, i2, i), det(i1, ip, i))
                curv = 2 - a[0] - a[1]
                cls = "convex" if curv > 0 else ("flat" if curv == 0 else "concave")
                records[(u, v)] = ((i1, i2), (i, ip), a, curv, cls)
                break
    return records


def same_side_wall_bruteforce(rays, triangles):
    """The completeness test's wall sign condition, one wall at a time:
    the first sorted wall (u, v) whose apexes p < q give determinants
    dp = det(u, v, p) and dq = det(u, v, q) of one sign, as
    ``(u, v, p, q, dp, dq)``; None when every wall separates its apexes."""
    for (u, v), (p, q) in _wall_apexes(triangles).items():
        dp, dq = (det3x3((rays[u], rays[v], rays[x])) for x in (p, q))
        if (dp > 0) == (dq > 0):
            return u, v, p, q, dp, dq
    return None


# ---------------------------------------------------------------------------
# oriented 2-spheres from the definitions


def is_oriented_2_sphere(m, reps) -> bool:
    """Whether the oriented triangles ``reps`` are a consistently oriented
    simplicial 2-sphere on the vertices 0..m-1, read off the definitions:
    distinct triangles of three distinct vertex ids; every directed edge
    once, with its reverse; the link of every vertex one cycle, found by
    walking it; Euler characteristic 2; and one connected complex."""
    reps = [tuple(t) for t in reps]
    for t in reps:
        if len(t) != 3 or len(set(t)) != 3 or any(type(v) is not int or not 0 <= v < m
                                                  for v in t):
            return False
    if len({frozenset(t) for t in reps}) != len(reps):
        return False
    directed = [(t[i], t[(i + 1) % 3]) for t in reps for i in range(3)]
    runs = set(directed)
    if len(runs) != len(directed) or any((b, a) not in runs for a, b in directed):
        return False
    # the link of v: the edge opposite v in each triangle holding v
    links = [{} for _ in range(m)]
    for t in reps:
        for v, a, b in (t, t[1:] + t[:1], t[2:] + t[:2]):
            links[v].setdefault(a, []).append(b)
            links[v].setdefault(b, []).append(a)
    for link in links:
        if not link or any(len(ends) != 2 for ends in link.values()):
            return False
        start = prev = next(iter(link))
        cur, steps = link[start][0], 1
        while cur != start:
            prev, cur = cur, next(x for x in link[cur] if x != prev)
            steps += 1
        if steps != len(link):
            return False
    edges = {frozenset(e) for e in directed}
    if m - len(edges) + len(reps) != 2:
        return False
    seen, frontier = {0}, [0]
    while frontier:
        for w in links[frontier.pop()]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == m


# ---------------------------------------------------------------------------
# graph coloring brute force


def has_proper_coloring(num_vertices, edges, num_colors) -> bool:
    """Exhaustive backtracking over all colorings (small graphs only)."""
    adj = [[] for _ in range(num_vertices)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    colors = [-1] * num_vertices

    def extend(v):
        if v == num_vertices:
            return True
        for c in range(num_colors):
            if all(colors[u] != c for u in adj[v]):
                colors[v] = c
                if extend(v + 1):
                    return True
                colors[v] = -1
        return False

    return extend(0)


def dsatur_coloring(num_vertices, edges, colors="abcd"):
    """The library's 4-coloring search, restated as plain recursion.

    Each step rescans every uncolored vertex for the least key
    (-saturation, -degree, id), where saturation counts the distinct
    colors among its colored neighbors, and tries the colors still free
    for it in the given order, undoing the choice when the rest of the
    search fails.  Returns the coloring as a string (None if the search is
    exhausted) and the number of colors undone by backtracking.
    """
    adj = [set() for _ in range(num_vertices)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    assigned = [None] * num_vertices
    undone = 0

    def extend():
        nonlocal undone
        free = [v for v in range(num_vertices) if assigned[v] is None]
        if not free:
            return True
        v = min(free, key=lambda x: (
            -len({assigned[u] for u in adj[x]} - {None}), -len(adj[x]), x))
        for c in [c for c in colors if c not in {assigned[u] for u in adj[v]}]:
            assigned[v] = c
            if extend():
                return True
            undone += 1
        assigned[v] = None
        return False

    found = extend()
    return ("".join(assigned) if found else None), undone


# ---------------------------------------------------------------------------
# dense linear-algebra oracle for degree-3 integrals over a fan
#
# Unknowns: all degree-3 monomial integrals table({i,j,k}).  Equations:
#   * table(T) = 0 whenever the support of T is not a face of the sphere;
#   * for every degree-2 multiset {i,j} and every basis covector mu,
#     sum_t <mu, ray_t> * table({i,j,t}) = 0   (linear relations annihilate);
#   * one normalization: table(T0) = 1 for a chosen oriented triangle T0.
# For a complete unimodular fan this system pins every value uniquely.


def integral_table_oracle(rays, triangles, normalize=None):
    """Solve for all degree-3 integrals by exact Gaussian elimination.

    ``rays``: list of integer 3-vectors.  ``triangles``: sphere triangles
    as sorted tuples.  ``normalize``: optional (triangle, value) pair fixing
    the overall scale.  Returns a dict multiset-tuple -> Fraction.
    """
    m = len(rays)
    tri_set = {tuple(sorted(t)) for t in triangles}
    faces = _faces(tri_set)
    monos = [tuple(sorted(c))
             for c in itertools.combinations_with_replacement(range(m), 3)]
    index = {mo: k for k, mo in enumerate(monos)}

    rows = []
    rhs = []
    # squarefree vanishing: monomials supported outside the complex
    for mo in monos:
        supp = tuple(sorted(set(mo)))
        if len(supp) >= 2 and supp not in faces:
            row = [Fraction(0)] * len(monos)
            row[index[mo]] = Fraction(1)
            rows.append(row)
            rhs.append(Fraction(0))
    # relation rows
    pairs = list(itertools.combinations_with_replacement(range(m), 2))
    for (i, j) in pairs:
        for axis in range(3):
            row = [Fraction(0)] * len(monos)
            for t in range(m):
                coeff = rays[t][axis]
                if coeff:
                    row[index[tuple(sorted((i, j, t)))]] += Fraction(coeff)
            rows.append(row)
            rhs.append(Fraction(0))
    # normalization at one triangle (default: first triangle pinned to 1,
    # the complete-fan convention)
    if normalize is None:
        normalize = (min(tri_set), Fraction(1))
    t0, value = normalize
    row = [Fraction(0)] * len(monos)
    row[index[tuple(sorted(t0))]] = Fraction(1)
    rows.append(row)
    rhs.append(Fraction(value))

    sol = _solve_exact(rows, rhs, len(monos))
    return {mo: sol[index[mo]] for mo in monos}


def _faces(tri_set):
    faces = set()
    for t in tri_set:
        faces.add(t)
        a, b, c = t
        faces.update({(a, b), (a, c), (b, c), (a,), (b,), (c,)})
    return faces


def _solve_exact(rows, rhs, n):
    """Gaussian elimination; requires a unique solution."""
    aug = [row[:] + [r] for row, r in zip(rows, rhs)]
    pivots = []
    r = 0
    for col in range(n):
        piv = next((k for k in range(r, len(aug)) if aug[k][col] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = Fraction(1) / aug[r][col]
        aug[r] = [x * inv for x in aug[r]]
        for k in range(len(aug)):
            if k != r and aug[k][col] != 0:
                factor = aug[k][col]
                aug[k] = [x - factor * y for x, y in zip(aug[k], aug[r])]
        pivots.append(col)
        r += 1
        if r == len(aug):
            break
    for k in range(r, len(aug)):
        if aug[k][n] != 0:
            raise ValueError("inconsistent system")
    if len(pivots) != n:
        raise ValueError("underdetermined system")
    sol = [Fraction(0)] * n
    for k, col in enumerate(pivots):
        sol[col] = aug[k][n]
    return sol


def _rank(rows):
    """Rank of a list of rational vectors, by exact row reduction."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((k for k in range(rank, len(rows)) if rows[k][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for k in range(rank + 1, len(rows)):
            if rows[k][col] != 0:
                factor = rows[k][col] / rows[rank][col]
                rows[k] = [x - factor * y for x, y in zip(rows[k], rows[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# convex-geometry volume oracle: vertex enumeration + facet triangulation


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _cramer_solve(rows, rhs):
    """Solve the 3x3 system rows * x = rhs exactly; None if singular."""
    d = det3x3(rows)
    if d == 0:
        return None
    cols = list(zip(*rows))
    out = []
    for k in range(3):
        mod = [list(c) for c in cols]
        mod[k] = list(rhs)
        out.append(Fraction(det3x3(list(zip(*mod)))) / d)
    return tuple(out)


def _hull2d(points):
    """Monotone-chain convex hull over exact rationals, CCW order."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return ((a[0] - o[0]) * (b[1] - o[1])
                - (a[1] - o[1]) * (b[0] - o[0]))

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def polytope_volume_oracle(rays, support):
    """Exact volume of P = {x : <rays[i], x> <= support[i]} by direct geometry.

    Vertices come from all facet triples (Cramer + feasibility filter); each
    facet polygon is ordered by a 2D convex hull of its projection and fanned
    into triangles; tetrahedra against the vertex centroid are summed with
    exact rational determinants.  Completely independent of any intersection
    calculus.
    """
    m = len(rays)
    c = [Fraction(x) for x in support]
    verts = set()
    for a, b, d in itertools.combinations(range(m), 3):
        x = _cramer_solve([rays[a], rays[b], rays[d]], (c[a], c[b], c[d]))
        if x is None:
            continue
        if all(_dot(rays[i], x) <= c[i] for i in range(m)):
            verts.add(x)
    if len(verts) < 4:
        raise ValueError("support parameters do not cut out a 3-polytope")
    verts = sorted(verts)
    centroid = tuple(sum(v[k] for v in verts) / len(verts) for k in range(3))

    total = Fraction(0)
    for i in range(m):
        on_facet = [v for v in verts if _dot(rays[i], v) == c[i]]
        if len(on_facet) < 3:
            continue
        drop = max(range(3), key=lambda k: abs(rays[i][k]))
        keep = [k for k in range(3) if k != drop]
        proj = {(v[keep[0]], v[keep[1]]): v for v in on_facet}
        ring = [proj[p] for p in _hull2d(list(proj))]
        for j in range(1, len(ring) - 1):
            e1 = tuple(ring[j][k] - ring[0][k] for k in range(3))
            e2 = tuple(ring[j + 1][k] - ring[0][k] for k in range(3))
            e3 = tuple(centroid[k] - ring[0][k] for k in range(3))
            total += abs(det3x3([e1, e2, e3]))
    return total / 6


# ---------------------------------------------------------------------------
# brute-force cone oracles (Caratheodory subset enumeration)


def cone_member_bruteforce(x, generators):
    """Is x a nonnegative combination of the generators?  Checks every
    linearly independent subset exactly (Caratheodory)."""
    x = [Fraction(v) for v in x]
    if all(v == 0 for v in x):
        return True
    gens = [[Fraction(v) for v in g] for g in generators]
    dim = len(x)
    for r in range(1, len(gens) + 1):
        for subset in itertools.combinations(gens, r):
            rows = [[subset[j][k] for j in range(r)] for k in range(dim)]
            try:
                sol = _solve_exact(rows, x, r)
            except ValueError:
                continue
            if all(a >= 0 for a in sol):
                return True
    return False


def zero_in_convex_hull(vectors):
    """Is 0 a convex combination of the vectors?  Subset enumeration.

    By the theorem of the alternative this decides feasibility of the
    system {<v, y> >= 1 for all v}: a witness y exists iff 0 is NOT in the
    convex hull.

    By Caratheodory, a minimal subset with 0 in its convex hull is affinely
    independent, so it has at most rank + 1 members and the solve below
    finds its convex coefficients as the unique solution; larger subsets
    need not be tried.
    """
    vecs = [[Fraction(x) for x in v] for v in vectors]
    if not vecs:
        return False
    dim = len(vecs[0])
    for r in range(1, min(len(vecs), _rank(vecs) + 1) + 1):
        for subset in itertools.combinations(vecs, r):
            rows = [[subset[j][k] for j in range(r)] for k in range(dim)]
            rows.append([Fraction(1)] * r)
            rhs = [Fraction(0)] * dim + [Fraction(1)]
            try:
                sol = _solve_exact(rows, rhs, r)
            except ValueError:
                continue
            if all(a >= 0 for a in sol):
                return True
    return False


# ---------------------------------------------------------------------------
# rational phase-1 simplex


def phase1_reference(rows, rhs):
    """``A x = b, x >= 0`` by a dense rational tableau with Bland's rule.

    Rows with a negative right-hand side are negated first, one artificial
    variable per row starts basic, and the sum of the artificials is
    minimised: enter the first column of negative reduced cost, leave by
    the least ratio, ties to the least basic variable.  Returns
    ``(solution, None)`` when the minimum is zero and otherwise
    ``(None, farkas)`` with farkas_i = sign_i * (1 - reduced cost of
    artificial i), a vector y with y A <= 0 and y b > 0.  No verification:
    callers compare the answer itself.
    """
    a = [[Fraction(v) for v in r] for r in rows]
    b = [Fraction(v) for v in rhs]
    n, k = len(a[0]) if a else 0, len(a)
    sign = [-1 if v < 0 else 1 for v in b]
    tab = []
    for i in range(k):
        art = [Fraction(int(i == j)) for j in range(k)]
        tab.append([sign[i] * v for v in a[i]] + art + [sign[i] * b[i]])
    basis = list(range(n, n + k))
    cost = [Fraction(0)] * n + [Fraction(1)] * k + [Fraction(0)]
    red = [cost[j] - sum(t[j] for t in tab) for j in range(n + k + 1)]
    while True:
        enter = next((j for j in range(n + k) if red[j] < 0), None)
        if enter is None:
            break
        rows_in = [i for i in range(k) if tab[i][enter] > 0]
        if not rows_in:
            raise ValueError("phase-1 objective unbounded")
        leave = min(rows_in, key=lambda i: (tab[i][-1] / tab[i][enter], basis[i]))
        piv = tab[leave][enter]
        tab[leave] = [v / piv for v in tab[leave]]
        for i in range(k):
            f = tab[i][enter]
            if i != leave and f:
                tab[i] = [v - f * w for v, w in zip(tab[i], tab[leave])]
        f = red[enter]
        red = [v - f * w for v, w in zip(red, tab[leave])]
        basis[leave] = enter
    if red[-1] == 0:
        x = [Fraction(0)] * n
        for i, var in enumerate(basis):
            if var < n:
                x[var] = tab[i][-1]
        return tuple(x), None
    return None, tuple(sign[i] * (1 - red[n + i]) for i in range(k))


# ---------------------------------------------------------------------------
# volume polynomial values


def volume_value_reference(coeffs, c):
    """The cubic ``sum coeff * c_i c_j c_k`` at c, one ``Fraction`` product
    and sum per term; ``coeffs`` are ((i, j, k), coefficient) pairs."""
    c = [Fraction(x) for x in c]
    total = Fraction(0)
    for (i, j, k), coeff in coeffs:
        total += Fraction(coeff) * c[i] * c[j] * c[k]
    return total
