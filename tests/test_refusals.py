"""The refusals that no other test names, pinned by class and full message.

Each row sends one bad value to one check, through the entry point that
reads it: a library call, or a ``cypair`` command line, which exits 2 with
the message on stderr.
"""

import pytest

import cypair
from cypair import boundary_graph as bg
from cypair import cli
from cypair import fixtures
from cypair import gdp_atlas as atlas
from cypair import lattice_fan as lf

build = bg.BoundaryGraph.build

# three curves meeting pairwise, for the marked-point rows
LMN = [("L", 1, 1), ("M", 1, 1), ("N", 1, 1)]
LMN_EDGES = [("L", "M"), ("L", "N"), ("M", "N")]

# (entry point, call, exception class, message)
SITES = [
    ("BoundaryGraph.build coefficient", lambda: build([("L", 1, 2)]),
     bg.InvalidGraph, "coefficient of L exceeds 1"),
    ("BoundaryGraph.build nodes", lambda: build([("L", 1, 1, -1)]),
     bg.InvalidGraph, "negative node count on L"),
    ("BoundaryGraph.build self-loop", lambda: build([("L", 1, 1)], [("L", "L")]),
     bg.InvalidGraph, "self-loops are vertex node counters, not edges"),
    ("BoundaryGraph.build multiplicity", lambda: build(LMN, [("L", "M", 0)]),
     bg.InvalidGraph, "edge multiplicity must be positive"),
    ("BoundaryGraph.build branches", lambda: build(LMN, LMN_EDGES, [("L", "M")]),
     bg.InvalidGraph, "marked points need at least 3 branches"),
    ("BoundaryGraph.build duplicate id", lambda: build([("L", 1, 1), ("L", 0, 1)]),
     bg.InvalidGraph, "duplicate vertex id"),
    ("BoundaryGraph.build marked point", lambda: build(LMN, LMN_EDGES, [("L", "M", "X")], 4),
     bg.InvalidGraph, "marked point references a missing vertex"),
    ("resolve_An_at_node n", lambda: bg.resolve_An_at_node(1, 0),
     bg.InvalidGraph, "n must be at least 1"),
    ("graph_from_json vertices", lambda: bg.graph_from_json({"edges": []}),
     bg.InvalidGraph, "graph JSON needs a 'vertices' array"),
    ("SingularityLabel family", lambda: atlas.SingularityLabel("B", 1),
     atlas.AtlasError, "unknown singularity family 'B'"),
    ("SingularityLabel A0", lambda: atlas.SingularityLabel("A", 0),
     atlas.AtlasError, "A-type rank must be at least 1"),
    ("NodalAtA n", lambda: atlas.NodalAtA(0),
     atlas.InconsistentSpec, "the node must sit at an A_n point with n >= 1"),
    ("two_component_feasibility ranks", lambda: atlas.two_component_feasibility(5, 0, 1),
     atlas.InconsistentSpec, "A-ranks must be positive"),
    ("decide_pair boundary", lambda: atlas.decide_pair(atlas.PairSpec.build("A1", "nodal")),
     atlas.InconsistentSpec, "unknown boundary shape 'nodal'"),
    # make_fan builds only complete fans, so a raw one-ray Fan2 is the way in
    ("star_subdivide interior",
     lambda: lf.star_subdivide(lf.Fan2((lf.RayVector(1, 0),)), (-1, 0)),
     lf.NotInteriorToCone, "ray (-1, 0) is not interior to any cone"),
    ("star_subdivide present",
     lambda: lf.star_subdivide(fixtures.load_fixture("p2.fan"), (1, 0)),
     lf.RayAlreadyPresent, "ray (1, 0) already in fan"),
    ("cypair attribute", lambda: cypair.nope,
     AttributeError, "module 'cypair' has no attribute 'nope'"),
]

# (entry point, argv, stderr) of command lines that exit 2
CLI_SITES = [
    ("boundary kind", ["decide-pair", '{"singularities": "A1", "boundary": {}}'],
     "error: boundary needs a 'kind' field\n"),
    ("--apply", ["graph", "fixture:p2.triangle", "--apply", "{}"],
     "error: --apply takes a JSON array of steps\n"),
    ("classify A0", ["classify", "A0"], "error: A-type rank must be at least 1\n"),
    ("decide-pair n", ["decide-pair", '{"singularities": "A1", '
                                      '"boundary": {"kind": "nodal_at_A", "n": 0}}'],
     "error: bad pair spec: the node must sit at an A_n point with n >= 1\n"),
    ("decide-pair missing n", ["decide-pair", '{"singularities": "A1", '
                                              '"boundary": {"kind": "nodal_at_A"}}'],
     "error: bad pair spec: missing field 'n'\n"),
    ("decide-pair missing singularities",
     ["decide-pair", '{"boundary": {"kind": "nodal_smooth_locus"}}'],
     "error: bad pair spec: missing field 'singularities'\n"),
    ("decide-pair missing boundary", ["decide-pair", '{"singularities": "A1"}'],
     "error: bad pair spec: missing field 'boundary'\n"),
]


@pytest.mark.parametrize("call, error, message", [row[1:] for row in SITES],
                         ids=[row[0] for row in SITES])
def test_each_site_refuses_with_its_class_and_message(call, error, message):
    with pytest.raises(Exception) as got:
        call()
    assert (type(got.value), str(got.value)) == (error, message)


@pytest.mark.parametrize("argv, stderr", [row[1:] for row in CLI_SITES],
                         ids=[row[0] for row in CLI_SITES])
def test_each_command_line_exits_2_with_its_message(capsys, argv, stderr):
    code = cli.run(argv)
    assert (code, *capsys.readouterr()) == (2, "", stderr)
