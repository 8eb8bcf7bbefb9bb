"""Bundled fixture corpus: dual graphs, fiber specs and fans.

Every fixture is built once, on first load; the values are immutable, so
all callers share them.  Graph encodings follow the drawing convention of
the resolution diagrams they reproduce: solid curves are (-2)-curves,
dashed ones are (-1)-curves, and per-vertex comments record the panel
position.  The EXPECTED table pins the verdict of each fixture for the
CLI regression suite.
"""

from __future__ import annotations

import functools

from .boundary_graph import BoundaryGraph
from .fiber_criteria import FiberSpec
from .lattice_fan import make_fan


class UnknownFixture(KeyError):
    pass


def _y_a7() -> BoundaryGraph:
    # anticanonical 8-cycle: seven (-2)-curves E1..E7 plus the 0-curve C,
    # with two (-1)-chords F1 (meets E2, left mid) and F2 (meets E6, right mid)
    vs = [
        ("C", 0, 1),    # bottom edge of the octagon
        ("E1", -2, 1),  # lower-left diagonal
        ("E2", -2, 1),  # left vertical
        ("E3", -2, 1),  # upper-left diagonal
        ("E4", -2, 1),  # top edge
        ("E5", -2, 1),  # upper-right diagonal
        ("E6", -2, 1),  # right vertical
        ("E7", -2, 1),  # lower-right diagonal
        ("F1", -1, 0),  # chord at mid-left
        ("F2", -1, 0),  # chord at mid-right
    ]
    es = [
        ("C", "E1"), ("E1", "E2"), ("E2", "E3"), ("E3", "E4"),
        ("E4", "E5"), ("E5", "E6"), ("E6", "E7"), ("E7", "C"),
        ("F1", "E2"), ("F2", "E6"),
    ]
    return BoundaryGraph.build(vs, es, rho=8)


def _y_a1a5() -> BoundaryGraph:
    # image of _y_a7 after contracting F1: E2 has become a (-1)-curve
    vs = [
        ("C", 0, 1),
        ("E1", -2, 1),
        ("E2", -1, 1),
        ("E3", -2, 1),
        ("E4", -2, 1),
        ("E5", -2, 1),
        ("E6", -2, 1),
        ("E7", -2, 1),
        ("F2", -1, 0),
    ]
    es = [
        ("C", "E1"), ("E1", "E2"), ("E2", "E3"), ("E3", "E4"),
        ("E4", "E5"), ("E5", "E6"), ("E6", "E7"), ("E7", "C"),
        ("F2", "E6"),
    ]
    return BoundaryGraph.build(vs, es, rho=7)


def _y_a8() -> BoundaryGraph:
    # 9-cycle: chain E1..E8 of (-2)-curves closed by the (-1)-curve F2;
    # chords F1 (meets E6) and F3 (meets E3)
    vs = [
        ("E1", -2, 1),  # upper-right diagonal
        ("E2", -2, 1),  # right vertical
        ("E3", -2, 1),  # lower-right diagonal
        ("E4", -2, 1),  # bottom edge
        ("E5", -2, 1),  # lower-left diagonal
        ("E6", -2, 1),  # mid-left diagonal
        ("E7", -2, 1),  # upper-left diagonal
        ("E8", -2, 1),  # top edge
        ("F2", -1, 1),  # dashed edge joining E8 and E1, top right
        ("F1", -1, 0),  # dashed chord at E6
        ("F3", -1, 0),  # dashed chord at E3
    ]
    es = [
        ("E1", "E2"), ("E2", "E3"), ("E3", "E4"), ("E4", "E5"),
        ("E5", "E6"), ("E6", "E7"), ("E7", "E8"),
        ("F2", "E8"), ("F2", "E1"),
        ("F1", "E6"), ("F3", "E3"),
    ]
    return BoundaryGraph.build(vs, es, rho=9)


def _y_a2a5() -> BoundaryGraph:
    # image of _y_a8 after contracting F1: E6 has become a (-1)-curve
    vs = [
        ("E1", -2, 1), ("E2", -2, 1), ("E3", -2, 1), ("E4", -2, 1),
        ("E5", -2, 1), ("E6", -1, 1), ("E7", -2, 1), ("E8", -2, 1),
        ("F2", -1, 1), ("F3", -1, 0),
    ]
    es = [
        ("E1", "E2"), ("E2", "E3"), ("E3", "E4"), ("E4", "E5"),
        ("E5", "E6"), ("E6", "E7"), ("E7", "E8"),
        ("F2", "E8"), ("F2", "E1"), ("F3", "E3"),
    ]
    return BoundaryGraph.build(vs, es, rho=8)


def _y_a1a7() -> BoundaryGraph:
    # 8-cycle: chain E1..E7 of (-2)-curves closed by the (-1)-curve F4
    # (right vertical); chord F1 meets E4; the middle column carries the
    # isolated (-2)-curve E8 between the (-1)-curves F2 and F3
    vs = [
        ("E1", -2, 1),  # upper-right diagonal
        ("E2", -2, 1),  # top edge
        ("E3", -2, 1),  # upper-left diagonal
        ("E4", -2, 1),  # left vertical
        ("E5", -2, 1),  # lower-left diagonal
        ("E6", -2, 1),  # bottom edge
        ("E7", -2, 1),  # lower-right diagonal
        ("F4", -1, 1),  # dashed right vertical
        ("F1", -1, 0),  # dashed chord at E4, mid-left
        ("F2", -1, 0),  # dashed middle, upper
        ("E8", -2, 0),  # solid middle
        ("F3", -1, 0),  # dashed middle, lower
    ]
    es = [
        ("E1", "E2"), ("E2", "E3"), ("E3", "E4"), ("E4", "E5"),
        ("E5", "E6"), ("E6", "E7"), ("E7", "F4"), ("F4", "E1"),
        ("F1", "E4"),
        ("F2", "E2"), ("F2", "E8"), ("F3", "E8"), ("F3", "E6"),
    ]
    return BoundaryGraph.build(vs, es, rho=9)


def _y_a12a3() -> BoundaryGraph:
    # image of _y_a1a7 after contracting F1: E4 has become a (-1)-curve
    vs = [
        ("E1", -2, 1), ("E2", -2, 1), ("E3", -2, 1), ("E4", -1, 1),
        ("E5", -2, 1), ("E6", -2, 1), ("E7", -2, 1), ("F4", -1, 1),
        ("F2", -1, 0), ("E8", -2, 0), ("F3", -1, 0),
    ]
    es = [
        ("E1", "E2"), ("E2", "E3"), ("E3", "E4"), ("E4", "E5"),
        ("E5", "E6"), ("E6", "E7"), ("E7", "F4"), ("F4", "E1"),
        ("F2", "E2"), ("F2", "E8"), ("F3", "E8"), ("F3", "E6"),
    ]
    return BoundaryGraph.build(vs, es, rho=8)


def _y_2a4() -> BoundaryGraph:
    # two chains of four (-2)-curves; the boundary is the 5-cycle
    # E5-E6-E7-E8-F3; F1 and F2 are (-1)-chords joining the chains
    vs = [
        ("E1", -2, 0),  # lower-left diagonal
        ("E2", -2, 0),  # left vertical
        ("E3", -2, 0),  # upper-left diagonal
        ("E4", -2, 0),  # top edge
        ("E5", -2, 1),  # long sweeping curve, right
        ("E6", -2, 1),  # upper-right cross stroke
        ("E7", -2, 1),  # lower-right cross stroke
        ("E8", -2, 1),  # right descending stroke
        ("F3", -1, 1),  # dashed lower-right, closes the boundary cycle
        ("F1", -1, 0),  # dashed chord E2-E5
        ("F2", -1, 0),  # dashed chord E4-E6
    ]
    es = [
        ("E1", "E2"), ("E2", "E3"), ("E3", "E4"),
        ("E5", "E6"), ("E6", "E7"), ("E7", "E8"),
        ("E8", "F3"), ("F3", "E5"),
        ("F1", "E2"), ("F1", "E5"),
        ("F2", "E4"), ("F2", "E6"),
    ]
    return BoundaryGraph.build(vs, es, rho=9)


def _y_a4() -> BoundaryGraph:
    # image of _y_2a4 after contracting F3, E8, E7, E6 in turn: the
    # boundary collapses onto E5, now a nodal curve of self-intersection 5,
    # while F2 ends at self-intersection 0 meeting E5 twice
    vs = [
        ("E1", -2, 0), ("E2", -2, 0), ("E3", -2, 0), ("E4", -2, 0),
        ("E5", 5, 1, 1),
        ("F1", -1, 0), ("F2", 0, 0),
    ]
    es = [
        ("E1", "E2"), ("E2", "E3"), ("E3", "E4"),
        ("F1", "E2"), ("F1", "E5"),
        ("F2", "E4"), ("F2", "E5", 2),
    ]
    return BoundaryGraph.build(vs, es, rho=5)


def _y_a1a2a5() -> BoundaryGraph:
    # minimal-resolution graph with chains E1..E5, E7-E8 and the isolated
    # E6; the boundary is the triangle E7-E8-F3
    vs = [
        ("E1", -2, 0),  # lower-left diagonal
        ("E2", -2, 0),  # left vertical
        ("E3", -2, 0),  # upper-left diagonal
        ("E4", -2, 0),  # top edge
        ("E5", -2, 0),  # upper-right diagonal
        ("E6", -2, 0),  # lower-right diagonal
        ("E7", -2, 1),  # long diagonal stroke through the middle
        ("E8", -2, 1),  # middle vertical
        ("F1", -1, 0),  # dashed chord E2-E7, mid-left
        ("F2", -1, 0),  # dashed chord E4-E8, upper middle
        ("F3", -1, 1),  # dashed chord E7-E8, lower middle
        ("F4", -1, 0),  # dashed right vertical, meets E5, E6 and E7
    ]
    es = [
        ("E1", "E2"), ("E2", "E3"), ("E3", "E4"), ("E4", "E5"),
        ("E7", "E8"),
        ("F1", "E2"), ("F1", "E7"),
        ("F2", "E4"), ("F2", "E8"),
        ("F3", "E7"), ("F3", "E8"),
        ("F4", "E5"), ("F4", "E6"), ("F4", "E7"),
    ]
    return BoundaryGraph.build(vs, es, rho=9)


def _ex64_pair() -> BoundaryGraph:
    # product surface: a ruling F with coefficient one and two (2,1)-curves
    # with coefficient one half, all through one marked point
    vs = [("F", 0, 1), ("D1", 4, "1/2"), ("D2", 4, "1/2")]
    es = [("F", "D1", 2), ("F", "D2", 2), ("D1", "D2", 4)]
    return BoundaryGraph.build(vs, es, marked_points=[("F", "D1", "D2")], rho=2)


_FIXTURES = {
    "fig5.A7.before": ("graph", _y_a7),
    "fig5.A7.after": ("graph", _y_a1a5),
    "fig6.A8.before": ("graph", _y_a8),
    "fig6.A8.after": ("graph", _y_a2a5),
    "fig7.A1A7.before": ("graph", _y_a1a7),
    "fig7.A1A7.after": ("graph", _y_a12a3),
    "fig8.2A4.before": ("graph", _y_2a4),
    "fig8.2A4.after": ("graph", _y_a4),
    "fig9.A1A2A5": ("graph", _y_a1a2a5),
    "ex62.graph": ("graph", lambda: BoundaryGraph.build(
        # general fiber of the rank-two model: components of self-intersection
        # 0 and -1 meeting at two points
        [("C1", 0, 1), ("C2", -1, 1)], [("C1", "C2", 2)], rho=7
    )),
    "ex63.graph": ("graph", lambda: BoundaryGraph.build(
        # resolved general fiber: components of self-intersection 1 and -2
        # meeting at two points
        [("C1", 1, 1), ("C2", -2, 1)], [("C1", "C2", 2)], rho=7
    )),
    "ex64.pair": ("graph", _ex64_pair),
    "p2.triangle": ("graph", lambda: BoundaryGraph.build(
        [("L1", 1, 1), ("L2", 1, 1), ("L3", 1, 1)],
        [("L1", "L2"), ("L2", "L3"), ("L1", "L3")],
        rho=1,
    )),
    "p2.nodal_cubic": ("graph", lambda: BoundaryGraph.build([("B", 9, 1, 1)], rho=1)),
    "case1.cycle": ("graph", lambda: BoundaryGraph.build(
        # anticanonical 4-cycle of 0-curves: two sections and two fibers
        [("C1", 0, 1), ("D1", 0, 1), ("C2", 0, 1), ("D2", 0, 1)],
        [("C1", "D1"), ("D1", "C2"), ("C2", "D2"), ("D2", "C1")],
        rho=2,
    )),
    # rank-two form: nodal boundary, components 0 and -1, nothing positive
    "ex62.pic2": ("fiber", lambda: FiberSpec.build(
        [(0, True), (-1, True)], has_node=True, volume=3, rank=2
    )),
    # rank-one form after contracting the (-1)-component: volume 4
    "ex62.pic1": ("fiber", lambda: FiberSpec.build(
        [(4, True)], has_node=True, volume=4, rank=1
    )),
    # volume-3 fiber whose nodal boundary passes through an A1 point:
    # the rank-one criterion does not apply until the fiber is resolved
    "ex63.pic1": ("fiber", lambda: FiberSpec.build(
        [(3, True)], has_node=True, volume=3, rank=1, smooth_locus=False, node_at="A1"
    )),
    # resolved form: components 1 and -2, boundary in the smooth locus
    "ex63.resolved": ("fiber", lambda: FiberSpec.build(
        [(1, True), (-2, True)], has_node=True, volume=3, rank=2
    )),
    "p2.fan": ("fan", lambda: make_fan([(1, 0), (0, 1), (-1, -1)])),
    "p1xp1.fan": ("fan", lambda: make_fan([(1, 0), (0, 1), (-1, 0), (0, -1)])),
    "p123.fan": ("fan", lambda: make_fan([(1, 0), (0, 1), (-2, -3)])),
    # opposite-ray configuration: project along (0, 1) directly
    "case1.fan": ("fan", lambda: make_fan([(1, 0), (0, 1), (-1, 0), (0, -1)])),
    # non-opposite rays (1,0) and (0,1): the form (1,1) is positive on both,
    # and projecting requires inserting the kernel rays first
    "case2.fan": ("fan", lambda: make_fan([(1, 0), (0, 1), (-1, -1)])),
}

#: blow-down scripts taking each "before" panel to its "after" panel
CONTRACTION_SCRIPTS = {
    "A7->A1A5": ("fig5.A7.before", ("F1",), "fig5.A7.after"),
    "A8->A2A5": ("fig6.A8.before", ("F1",), "fig6.A8.after"),
    "A1A7->A12A3": ("fig7.A1A7.before", ("F1",), "fig7.A1A7.after"),
    "2A4->A4": ("fig8.2A4.before", ("F3", "E8", "E7", "E6"), "fig8.2A4.after"),
}

#: coregularity of the one-dimensional log general fiber of ex64.pair,
#: recorded at the fixture level: the total pair computes to 0 while its
#: fiber is a four-half-points line of coregularity 1
RECORDED_FIBER_COREGULARITY = {"ex64.pair": 1}

#: frozen expected verdicts, one entry per fixture the CLI can judge
EXPECTED = {
    "fig5.A7.before": {"kind": "graph", "calabi_yau": True, "coregularity": 0,
                       "complexity": 2, "index_integral": True, "chains": [7]},
    "fig5.A7.after": {"kind": "graph", "calabi_yau": True, "coregularity": 0,
                      "complexity": 1, "index_integral": True, "chains": [1, 5]},
    "fig6.A8.before": {"kind": "graph", "calabi_yau": True, "coregularity": 0,
                       "complexity": 2, "index_integral": True, "chains": [8]},
    "fig6.A8.after": {"kind": "graph", "calabi_yau": True, "coregularity": 0,
                      "complexity": 1, "index_integral": True, "chains": [2, 5]},
    "fig7.A1A7.before": {"kind": "graph", "calabi_yau": True, "coregularity": 0,
                         "complexity": 3, "index_integral": True, "chains": [1, 7]},
    "fig7.A1A7.after": {"kind": "graph", "calabi_yau": True, "coregularity": 0,
                        "complexity": 2, "index_integral": True, "chains": [1, 3, 3]},
    "fig8.2A4.before": {"kind": "graph", "calabi_yau": True, "coregularity": 0,
                        "complexity": 6, "index_integral": True, "chains": [4, 4]},
    "fig8.2A4.after": {"kind": "graph", "calabi_yau": True, "coregularity": 0,
                       "complexity": 6, "index_integral": True, "chains": [4]},
    "fig9.A1A2A5": {"kind": "graph", "calabi_yau": True, "coregularity": 0,
                    "complexity": 8, "index_integral": True, "chains": [1, 2, 5]},
    "ex62.graph": {"kind": "graph", "calabi_yau": True, "coregularity": 0,
                   "complexity": 7, "index_integral": True, "witness": False},
    "ex63.graph": {"kind": "graph", "calabi_yau": True, "coregularity": 0,
                   "complexity": 7, "index_integral": True, "witness": True},
    "ex64.pair": {"kind": "graph", "calabi_yau": True, "coregularity": 0,
                  "complexity": 2, "index_integral": False},
    "p2.triangle": {"kind": "graph", "calabi_yau": True, "coregularity": 0,
                    "complexity": 0, "index_integral": True, "witness": True},
    "p2.nodal_cubic": {"kind": "graph", "calabi_yau": True, "coregularity": 0,
                       "complexity": 2, "index_integral": True, "witness": True},
    "case1.cycle": {"kind": "graph", "calabi_yau": True, "coregularity": 0,
                    "complexity": 0, "index_integral": True, "witness": True},
    "ex62.pic2": {"kind": "fiber", "cluster_type": False, "failed_conditions": [3]},
    "ex62.pic1": {"kind": "fiber", "cluster_type": False, "failed_conditions": [3]},
    "ex63.pic1": {"kind": "fiber", "error": "BoundaryMeetsSingularities"},
    "ex63.resolved": {"kind": "fiber", "cluster_type": True, "failed_conditions": []},
    "p2.fan": {"kind": "fan", "smooth": True, "self_intersections": [1, 1, 1]},
    "p1xp1.fan": {"kind": "fan", "smooth": True, "self_intersections": [0, 0, 0, 0]},
    "p123.fan": {"kind": "fan", "smooth": False, "resolved_rays": 6},
    "case1.fan": {"kind": "fan", "smooth": True, "projects_along": [0, 1]},
    "case2.fan": {"kind": "fan", "smooth": True, "needs_subdivision_for": [1, 1]},
}


def _entry(name: str) -> tuple[str, object]:
    try:
        return _FIXTURES[name]
    except KeyError:
        raise UnknownFixture(name) from None


def fixture_names() -> list[str]:
    return sorted(_FIXTURES)


@functools.cache
def load_fixture(name: str, /):  # positional-only: the cache keys a keyword call apart
    """Return the named fixture, a BoundaryGraph, FiberSpec or Fan2, built on first load."""
    return _entry(name)[1]()


def fixture_kind(name: str) -> str:
    return _entry(name)[0]
