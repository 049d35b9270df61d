"""The small spaces the cross-module property suites run over: circles,
the torus, a rotation mapping torus, S^1 x S^2, surface(2) and
torus#torus."""

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
