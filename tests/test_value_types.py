"""The value types of every layer are immutable ``namedtuple`` classes.

Ten are plain namedtuples; the twelve that check their input or carry a
method are subclasses with empty ``__slots__``.  One instance of each of
the 22 types prints a pinned repr (integral rationals print as ``int``,
the rest as ``Fraction``), hashes as the tuple of its fields and refuses
attribute assignment; and loading the whole package imports neither
``dataclasses`` nor ``inspect``.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction as Fr
from pathlib import Path

import pytest

from cypair import boundary_graph as bg
from cypair import fiber_criteria as fc
from cypair import gdp_atlas as atlas
from cypair import lattice_fan as lf

# the plain constructor, not ``build``: the module collects even when
# ``build`` fails, so that a mutant of ``build`` can name these tests
NODAL = bg.BoundaryGraph((bg.CurveVertex("B", 9, 1, 1),), ())
NODAL_REPR = (
    "BoundaryGraph(vertices=(CurveVertex(id='B', self_int=9, coeff=1, nodes=1),), "
    "edges=(), marked_points=(), picard_rank=1)"
)
A4 = "SingularityLabel(family='A', rank=4)"

# class name -> (instance, the repr it prints)
VALUES = {
    "CurveVertex": (
        bg.CurveVertex("A", Fr(-2), Fr(1, 2), 1),
        "CurveVertex(id='A', self_int=-2, coeff=Fraction(1, 2), nodes=1)",
    ),
    "Edge": (bg.Edge("A", "B", 2), "Edge(a='A', b='B', multiplicity=2)"),
    "MarkedPoint": (bg.MarkedPoint(("A", "B", "C")), "MarkedPoint(branches=('A', 'B', 'C'))"),
    "BoundaryGraph": (NODAL, NODAL_REPR),
    "ChainContraction": (
        bg.ChainContraction(NODAL, [1, 2]),
        f"ChainContraction(singular={NODAL_REPR}, mark_ranks=[1, 2])",
    ),
    "FiberComponent": (
        fc.FiberComponent(Fr(-1)),
        "FiberComponent(self_int=-1, irreducible_over_base=True)",
    ),
    "FiberSpec": (
        fc.FiberSpec.build([(5, True)], True, 5, 1),
        "FiberSpec(components=(FiberComponent(self_int=5, "
        "irreducible_over_base=True),), has_node=True, volume=5, "
        "rel_picard_rank=1, boundary_in_smooth_locus=True, node_at='smooth')",
    ),
    "Verdict": (fc.Verdict(False, (1, 3)), "Verdict(cluster_type=False, failed_conditions=(1, 3))"),
    "WeightedCornerData": (
        fc.weighted_corner_numbers(0, -1, 2, 3),
        "WeightedCornerData(c1_tilde_sq=Fraction(-2, 3), c2_tilde_sq=Fraction(-5, 2), "
        "c1_dot_e=Fraction(1, 3), c2_dot_e=Fraction(1, 2), c1_dot_c2=Fraction(1, 1))",
    ),
    "Witness": (
        fc.Witness((("node", "B"),), {"B": 1}, ("node", "B")),
        "Witness(script=(('node', 'B'),), divisor={'B': 1}, node=('node', 'B'))",
    ),
    "SingularityLabel": (atlas.SingularityLabel("A", 4), A4),
    "SurfaceVerdict": (
        atlas.classify_surface("4A2"),
        "SurfaceVerdict(cluster_type=False, "
        "reason='volume one with four A-type singular points is not cluster type')",
    ),
    "MultiComponent": (atlas.MultiComponent(2, (1, 3)), "MultiComponent(k=2, ranks=(1, 3))"),
    "NodalSmoothLocus": (atlas.NodalSmoothLocus(), "NodalSmoothLocus()"),
    "NodalAtA": (atlas.NodalAtA(4), "NodalAtA(n=4)"),
    "PairSpec": (
        atlas.PairSpec.build("2A4", atlas.NodalAtA(4)),
        f"PairSpec(singularities=({A4}, {A4}), boundary=NodalAtA(n=4))",
    ),
    "PairVerdict": (
        atlas.decide_pair(atlas.PairSpec.build("2A4", atlas.NodalAtA(4))),
        "PairVerdict(cluster_type=True, case=5, volume=1, "
        "reason='volume 1 with node at A4: needs n ≥ 4')",
    ),
    "GdpFamily": (
        atlas.catalog()[6],
        "GdpFamily(singularities=(SingularityLabel(family='A', rank=7),), volume=2, "
        "toric=False, cluster_type=True, fixture='fig5.A7.before')",
    ),
    "ContractionReplay": (
        atlas.ContractionReplay(NODAL, NODAL, ("E1",), NODAL),
        f"ContractionReplay(before={NODAL_REPR}, after={NODAL_REPR}, script=('E1',), "
        f"result={NODAL_REPR})",
    ),
    "RayVector": (lf.RayVector(-1, 2), "RayVector(x=-1, y=2)"),
    "FibrationData": (
        lf.p1_projection(lf.make_fan([(1, 0), (0, 1), (-1, 0), (0, -1)]), (1, 0)),
        "FibrationData(vertical_rays=(1, 3), fiber_over_zero=((2, 1),), "
        "fiber_over_infinity=((0, 1),))",
    ),
    "Fan2": (
        lf.make_fan([(1, 0), (0, 1), (-1, -1)]),
        "Fan2(rays=(RayVector(x=-1, y=-1), RayVector(x=1, y=0), RayVector(x=0, y=1)))",
    ),
}

# a list or dict field makes a value unhashable, as it always did
UNHASHABLE = {"ChainContraction", "Witness"}

# the value types that check nothing are plain namedtuples; each keeps the
# docstring its class had, pinned word by word (help() re-indents it), and
# the two that had none show the generated one
PLAIN = {
    "ChainContraction":
        "The singular model, and the rank k of each A_k point it gained, sorted.",
    "Verdict": "Verdict(cluster_type, failed_conditions)",
    "WeightedCornerData":
        "Intersection numbers after the (x^alpha, y^beta) corner blow-up. Unlike the "
        "other value types, the fields stay ``Fraction`` even when integral, as they "
        "have always been printed.",
    "Witness":
        "A depth-bounded certificate for the toric-blow-up criterion. ``script`` lists "
        "the corner blow-ups performed ((\"edge\", a, b) or (\"node\", v)); ``divisor`` "
        "gives the multiplicity of each original component's strict transform in the "
        "nonnegative divisor; ``node`` locates a boundary node outside the divisor's "
        "support.",
    "SurfaceVerdict": "SurfaceVerdict(cluster_type, reason)",
    "NodalSmoothLocus": "Irreducible nodal boundary inside the smooth locus.",
    "PairVerdict": '``case`` is 1..5 or "infeasible".',
    "ContractionReplay":
        "The fixture's two panels, the ids blown down and the computed graph.",
    "FibrationData":
        "Classification of rays under a toric morphism to the projective line. "
        "``vertical_rays`` holds indices of rays on which the linear form vanishes; the "
        "two fibre lists hold ``(ray index, multiplicity)`` pairs with multiplicity "
        "``|L(u)| > 0``. Every ray appears in exactly one of the three lists.",
    "Fan2": "Complete 2-D fan: counterclockwise primitive rays, canonical rotation.",
}


def test_every_value_type_is_covered():
    classes = {
        name
        for module in (bg, fc, atlas, lf)
        for name, obj in vars(module).items()
        if isinstance(obj, type) and issubclass(obj, tuple) and obj.__module__ == module.__name__
    }
    assert classes == set(VALUES)


@pytest.mark.parametrize("name", VALUES)
def test_repr_is_unchanged(name):
    value, expected = VALUES[name]
    assert type(value).__name__ == name
    assert repr(value) == expected


@pytest.mark.parametrize("name", PLAIN)
def test_a_type_without_checks_is_a_plain_namedtuple(name):
    cls = type(VALUES[name][0])
    assert cls.__bases__ == (tuple,)
    assert " ".join(cls.__doc__.split()) == PLAIN[name]


def test_an_edge_stores_its_endpoints_in_order():
    assert bg.Edge("B", "A", 2) == bg.Edge("A", "B", 2)
    assert repr(bg.Edge("B", "A", 2)) == "Edge(a='A', b='B', multiplicity=2)"


@pytest.mark.parametrize("name", VALUES)
def test_hash_is_the_tuple_hash(name):
    value, _ = VALUES[name]
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(tuple(value))


@pytest.mark.parametrize("name", VALUES)
def test_fields_cannot_be_set(name):
    value, _ = VALUES[name]
    for field in (*value._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    assert repr(value) == VALUES[name][1]


_IMPORT_PROBE = """
import json, sys
import cypair, cypair.cli
for name in cypair.__all__:
    getattr(cypair, name)
print(json.dumps([name for name in ("dataclasses", "inspect") if name in sys.modules]))
"""


def test_loading_the_package_imports_neither_dataclasses_nor_inspect():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == []
