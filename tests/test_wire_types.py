"""Every wire-type check, pinned by class and full message.

A JSON integer is an ``int`` and not a ``bool``, a flag is a ``bool``,
and nothing is coerced.  Each row below sends one value of the wrong
type to one check, through the entry point that reads it, in an
otherwise valid input.  The rows with ``True`` in an integer field
refuse a ``bool`` that ``isinstance(value, int)`` would let through.
"""

import pytest

from cypair import boundary_graph as bg
from cypair import cli
from cypair import fiber_criteria as fc


def graph_json(vertex=None, edge=None, point=None, rho=4):
    """Graph JSON for three curves meeting pairwise, their one triple
    point marked, with one vertex, edge or marked point's fields replaced."""
    return {
        "rho": rho,
        "vertices": [{"id": "L", "sq": 1, "nodes": 0, **(vertex or {})},
                     {"id": "M", "sq": 1}, {"id": "N", "sq": 1}],
        "edges": [{"a": "L", "b": "M", "m": 1, **(edge or {})},
                  {"a": "L", "b": "N"}, {"a": "M", "b": "N"}],
        "marked_points": [{"branches": ["L", "M", "N"], **(point or {})}],
    }


def fiber_json(**fields):
    """Rank-one fiber JSON with ``fields`` replaced."""
    return {"rank": 1, "components": [{"sq": 4, "irreducible": True}],
            "node": {"present": False, "at": "smooth"}, "volume": 4, "smooth_locus": True,
            **fields}


def build_graph(nodes=0, m=1, rho=2):
    return bg.BoundaryGraph.build([("L", 1, 1, nodes), ("M", 1, 1)], [("L", "M", m)], (), rho)


def build_fiber(rank=1, irreducible=True, has_node=False, smooth_locus=True):
    return fc.FiberSpec.build([(4, irreducible)], has_node, 4, rank, smooth_locus)


def pair_boundary(**fields):
    return cli._boundary_from_json(fields)


def apply_step(step):
    return cli._apply_script(bg.BoundaryGraph.build([("L", 1, 1)]), [step])


GRAPH = "malformed graph JSON: "
FIBER = "malformed fiber JSON: "

# (entry point, call, exception class, message)
SITES = [
    ("graph_from_json id", lambda: bg.graph_from_json(graph_json(vertex={"id": 1})),
     bg.InvalidGraph, GRAPH + "id must be a string, got 1"),
    ("graph_from_json nodes", lambda: bg.graph_from_json(graph_json(vertex={"nodes": True})),
     bg.InvalidGraph, GRAPH + "nodes must be an integer, got True"),
    ("graph_from_json a", lambda: bg.graph_from_json(graph_json(edge={"a": ["L"]})),
     bg.InvalidGraph, GRAPH + "a must be a string, got ['L']"),
    ("graph_from_json b", lambda: bg.graph_from_json(graph_json(edge={"b": None})),
     bg.InvalidGraph, GRAPH + "b must be a string, got None"),
    ("graph_from_json m", lambda: bg.graph_from_json(graph_json(edge={"m": True})),
     bg.InvalidGraph, GRAPH + "m must be an integer, got True"),
    ("graph_from_json branches",
     lambda: bg.graph_from_json(graph_json(point={"branches": "LMN"})),
     bg.InvalidGraph, GRAPH + "branches must be an array, got 'LMN'"),
    ("graph_from_json branch",
     lambda: bg.graph_from_json(graph_json(point={"branches": ["L", "M", 3]})),
     bg.InvalidGraph, GRAPH + "branch must be a string, got 3"),
    ("graph_from_json rho", lambda: bg.graph_from_json(graph_json(rho=True)),
     bg.InvalidGraph, GRAPH + "rho must be an integer, got True"),
    ("fiber_from_json rank", lambda: fc.fiber_from_json(fiber_json(rank=True)),
     fc.FiberError, FIBER + "rank must be an integer, got True"),
    ("fiber_from_json irreducible",
     lambda: fc.fiber_from_json(fiber_json(components=[{"sq": 4, "irreducible": "no"}])),
     fc.FiberError, FIBER + "irreducible must be true or false, got 'no'"),
    ("fiber_from_json node.present",
     lambda: fc.fiber_from_json(fiber_json(node={"present": 1})),
     fc.FiberError, FIBER + "node.present must be true or false, got 1"),
    ("fiber_from_json smooth_locus", lambda: fc.fiber_from_json(fiber_json(smooth_locus=None)),
     fc.FiberError, FIBER + "smooth_locus must be true or false, got None"),
    ("BoundaryGraph.build nodes", lambda: build_graph(nodes=True),
     bg.InvalidGraph, "nodes must be an integer, got True"),
    ("BoundaryGraph.build multiplicity", lambda: build_graph(m=True),
     bg.InvalidGraph, "multiplicity must be an integer, got True"),
    ("BoundaryGraph.build rho", lambda: build_graph(rho=True),
     bg.InvalidGraph, "rho must be an integer, got True"),
    ("FiberSpec.build rank", lambda: build_fiber(rank=True),
     fc.FiberError, "fiber spec: rank must be an integer, got True"),
    ("FiberSpec.build irreducible", lambda: build_fiber(irreducible="no"),
     fc.FiberError, "fiber spec: irreducible must be true or false, got 'no'"),
    ("FiberSpec.build has_node", lambda: build_fiber(has_node=0),
     fc.FiberError, "fiber spec: has_node must be true or false, got 0"),
    ("FiberSpec.build smooth_locus", lambda: build_fiber(smooth_locus=None),
     fc.FiberError, "fiber spec: smooth_locus must be true or false, got None"),
    ("node_location", lambda: fc.node_location(5),
     fc.FiberError, "node location must be a string, got 5"),
    ("boundary ranks", lambda: pair_boundary(kind="multi_component", k=2, ranks="ab"),
     cli.CliInputError, "boundary ranks must be an array, got 'ab'"),
    ("boundary n", lambda: pair_boundary(kind="nodal_at_A", n=True),
     cli.CliInputError, "boundary n must be an integer, got True"),
    ("script step", lambda: apply_step(["blowdown", "L"]),
     cli.CliInputError, "script step must be an object, got ['blowdown', 'L']"),
]


@pytest.mark.parametrize("call, error, message", [row[1:] for row in SITES],
                         ids=[row[0] for row in SITES])
def test_each_site_refuses_with_its_class_and_message(call, error, message):
    with pytest.raises(Exception) as got:
        call()
    assert (type(got.value), str(got.value)) == (error, message)


def test_the_valid_inputs_pass():
    # the rows change one field of these, so each row's error is that field's
    g = bg.graph_from_json(graph_json())
    assert (len(g.vertices), len(g.edges), len(g.marked_points)) == (3, 3, 1)
    assert fc.fiber_from_json(fiber_json()) == build_fiber()
    assert build_graph().picard_rank == 2
    assert fc.node_location("A2") == "A2"
    assert pair_boundary(kind="multi_component", k=2, ranks=[1, 2]).ranks == (1, 2)
    assert pair_boundary(kind="nodal_at_A", n=3).n == 3
    step = {"op": "blowup_interior", "vertex": "L"}
    assert len(apply_step(step).vertices) == 2


def test_a_bad_fiber_rank_is_reported_before_the_node_is_read():
    with pytest.raises(fc.FiberError, match="^malformed fiber JSON: rank must be an integer"):
        fc.fiber_from_json(fiber_json(rank="1", node="yes"))
