"""A sphere of unimodular cones that passes every wall check but is no fan.

The degree-2 cover of the sphere of directions: rays N = e3 (0) and
S = -e3 (1), and e1, e2, -e1, -e2 twice around the equator (rays 2..9),
with the 16 cones {N, r_k, r_k+1} and {S, r_k, r_k+1}.  Every cone has
determinant +-1 and the two apexes of every wall lie strictly on opposite
sides of it, so the wall curvatures sum to 48; only the piercing test sees
that a generic direction lies in two cones.
"""

EQUATOR = ("1 0 0", "0 1 0", "-1 0 0", "0 -1 0") * 2


def branched_cover_text() -> str:
    """The FAN3 document of the cover, named ``branched-cover``."""
    lines = ["fan3 branched-cover", "rays 10", "R 0: 0 0 1", "R 1: 0 0 -1"]
    lines += [f"R {2 + k}: {ray}" for k, ray in enumerate(EQUATOR)]
    lines.append("cones 16")
    for k in range(8):
        a, b = 2 + k, 2 + (k + 1) % 8
        lines += [f"C: 0 {a} {b}", f"C: 1 {a} {b}"]
    return "\n".join(lines) + "\n"
