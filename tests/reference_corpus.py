"""The small spaces the cross-module property suites run over: circles,
the torus, a rotation mapping torus, S^1 x S^2, surface(2) and
torus#torus; and the cyclic covers that the oracle at the roots of unity
reads."""

from novikov.complexes import build_complex
from novikov.corpus import (circle, connected_sum, mapping_torus,
                            sphere_product, surface, torus)


def standard_corpus():
    """The instances exercised by the cross-module property suites."""
    F3 = circle(3).complex
    rot = {0: 1, 1: 2, 2: 0}
    spaces = [
        circle(3),
        circle(5),
        torus(),
        mapping_torus(F3, rot),
        sphere_product(2),
        surface(2),
        connected_sum(torus(), torus()),
    ]
    spaces[3].label = "mapping_torus(circle(3), rotation)"
    return spaces


def cyclic_cover(space, n: int):
    """The n-fold cyclic cover of a space X that its class z mod n
    defines, as a simplicial complex: vertex v on sheet i is v * n + i,
    and each maximal simplex (v_0 .. v_q) of X lifts, for i < n, to v_0 on
    sheet i and each v_j on sheet i + z(v_0, v_j) mod n.  Its vertices
    project to distinct vertices, so each lift is a simplex."""
    z = space.cocycle
    return build_complex(
        [s[0] * n + i] + [v * n + (i + z.value(s[0], v)) % n for v in s[1:]]
        for s in space.complex.maximal_simplices() for i in range(n))
