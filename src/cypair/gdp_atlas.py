"""Gorenstein del Pezzo surfaces of Picard rank one: catalog and decisions.

A family is identified by its du Val singularity multiset; the volume is
9 minus the total rank.  classify_surface is the surface-level cluster-type
test (A-type singularities, and volume above one or at most three singular
points); decide_pair runs the five-case decision procedure for a
Calabi-Yau pair on such a surface, given the shape of its boundary.

catalog() lists the sixteen A-type families the classification turns on,
naming the fixture that holds the resolution dual graph for the five
families whose contraction diagrams ship as fixtures;
apply_contraction_script replays those diagrams through the blow-down
calculus.  Nothing else in the package is imported until that replay runs,
so the decisions load on their own.
"""

from __future__ import annotations

import re
from collections import Counter, namedtuple


class AtlasError(Exception):
    pass


class RankTooLarge(AtlasError):
    pass


class InconsistentSpec(AtlasError):
    pass


class SingularityLabel(namedtuple("SingularityLabel", "family rank")):
    """A du Val singularity type A_n, D_n or E_n."""

    __slots__ = ()

    def __new__(cls, family: str, rank: int):
        if family not in ("A", "D", "E"):
            raise AtlasError(f"unknown singularity family {family!r}")
        if family == "A" and rank < 1:
            raise AtlasError("A-type rank must be at least 1")
        if family == "D" and rank < 4:
            raise AtlasError("D-type rank must be at least 4")
        if family == "E" and rank not in (6, 7, 8):
            raise AtlasError("E-type rank must be 6, 7 or 8")
        return super().__new__(cls, family, rank)

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


_TERM = re.compile(r"^(\d*)([ADE])(\d+)$")


def parse_singularities(text: str) -> tuple[SingularityLabel, ...]:
    """Parse strings like "2A1+2A3", "A1+A2+A5", "4A2" or "smooth"."""
    if not isinstance(text, str):
        raise AtlasError(f"singularities must be a string, got {text!r}")
    text = text.strip()
    if text in ("", "smooth", "none"):
        return ()
    out: list[SingularityLabel] = []
    for term in text.split("+"):
        m = _TERM.match(term.strip())
        if not m:
            raise AtlasError(f"cannot parse singularity term {term.strip()!r}")
        try:
            count, rank = int(m.group(1) or 1), int(m.group(3))
        except ValueError as exc:  # a digit string past CPython's digit limit
            raise AtlasError(f"cannot parse singularity term: {exc}") from exc
        # a rank-one surface has at most 8 singular points
        if not 1 <= count <= 8:
            raise AtlasError(f"bad multiplicity in {term.strip()!r}")
        out.extend([SingularityLabel(m.group(2), rank)] * count)
    return tuple(sorted(out))


def format_singularities(sings) -> str:
    if not sings:
        return "smooth"
    counts = Counter(sorted(sings))
    return "+".join(f"{n if n > 1 else ''}{s}" for s, n in counts.items())


def _as_labels(sings) -> tuple[SingularityLabel, ...]:
    if isinstance(sings, str):
        return parse_singularities(sings)
    return tuple(sorted(sings))


def volume_of(sings) -> int:
    """Anticanonical volume 9 - (total singularity rank) of the rank-one family."""
    sings = _as_labels(sings)
    total = sum(s.rank for s in sings)
    if total > 8:
        raise RankTooLarge(f"total singularity rank {total} exceeds 8")
    return 9 - total


SurfaceVerdict = namedtuple("SurfaceVerdict", "cluster_type reason")


def classify_surface(sings) -> SurfaceVerdict:
    """Surface-level cluster-type test for a rank-one Gorenstein del Pezzo.

    Cluster type iff all singularities are A-type and either the volume
    exceeds one or there are at most three singular points.  Realizability
    of the multiset is the caller's responsibility.
    """
    sings = _as_labels(sings)
    vol = volume_of(sings)
    if any(s.family != "A" for s in sings):
        return SurfaceVerdict(False, "cluster type surfaces have only A-type singularities")
    if vol > 1:
        return SurfaceVerdict(True, f"A-type singularities and volume {vol} > 1")
    if len(sings) <= 3:
        return SurfaceVerdict(True, f"A-type singularities and {len(sings)} <= 3 singular points")
    # volume one leaves total rank 8, so four to eight points
    count = ("four", "five", "six", "seven", "eight")[len(sings) - 4]
    return SurfaceVerdict(
        False, f"volume one with {count} A-type singular points is not cluster type"
    )


# -- boundary shapes ----------------------------------------------------------


class MultiComponent(namedtuple("MultiComponent", "k ranks")):
    """Boundary with k >= 2 components; for k = 2 on a volume-one surface,
    ``ranks`` gives the A-ranks at the two intersection points."""

    __slots__ = ()

    def __new__(cls, k: int, ranks: tuple[int, int] | None = None):
        if type(k) is not int or k < 2:
            raise InconsistentSpec("a multi-component boundary needs k >= 2")
        if ranks is not None and (
            len(ranks) != 2
            or any(type(r) is not int or r < 1 for r in ranks)
        ):
            raise InconsistentSpec("intersection A-ranks must be two positive integers")
        return super().__new__(cls, k, ranks)


NodalSmoothLocus = namedtuple("NodalSmoothLocus", "")
NodalSmoothLocus.__doc__ = """Irreducible nodal boundary inside the smooth locus."""


class NodalAtA(namedtuple("NodalAtA", "n")):
    """Irreducible nodal boundary with an A_n point at the node."""

    __slots__ = ()

    def __new__(cls, n: int):
        if n < 1:
            raise InconsistentSpec("the node must sit at an A_n point with n >= 1")
        return super().__new__(cls, n)


class PairSpec(namedtuple("PairSpec", "singularities boundary")):
    __slots__ = ()

    @staticmethod
    def build(sings, boundary) -> "PairSpec":
        return PairSpec(_as_labels(sings), boundary)


PairVerdict = namedtuple("PairVerdict", "cluster_type case volume reason")
PairVerdict.__doc__ = """``case`` is 1..5 or "infeasible"."""


def two_component_feasibility(volume: int, n: int, m: int) -> bool:
    """Can a two-component boundary meet at A_n and A_m points on a surface
    of this volume?

    Feasible iff volume > 2*(1/(n+1) + 1/(m+1)): both components have
    positive self-intersection on a rank-one surface, so the volume
    strictly dominates twice their intersection number, and each
    intersection point at an A_k point contributes 1/(k+1).  Decided in
    integers, by multiplying both sides by (n+1)(m+1).
    """
    if n < 1 or m < 1:
        raise InconsistentSpec("A-ranks must be positive")
    return volume * (n + 1) * (m + 1) > 2 * (n + m + 2)


def decide_pair(spec: PairSpec) -> PairVerdict:
    """Five-case decision for a Calabi-Yau pair on a rank-one Gorenstein
    del Pezzo surface.

    (1) two or more components; (2) nodal in the smooth locus, volume >= 5;
    (3) nodal at an A_n point, volume >= 3; (4) volume 2 and n >= 2;
    (5) volume 1 and n >= 4.  Boundaries that cannot exist on the surface
    report case "infeasible".
    """
    sings = spec.singularities
    vol = volume_of(sings)
    if any(s.family != "A" for s in sings):
        return PairVerdict(
            False,
            "infeasible",
            vol,
            "cluster type needs A-type singularities only; no qualifying boundary",
        )
    b = spec.boundary
    if isinstance(b, MultiComponent):
        four_point_vol_one = vol == 1 and len(sings) == 4
        if b.k >= 3 and four_point_vol_one:
            return PairVerdict(
                False,
                "infeasible",
                vol,
                "three or more components would make the pair toric, which this "
                "volume-one four-point surface is not",
            )
        if b.k == 2 and vol == 1:
            if b.ranks is None:
                raise InconsistentSpec(
                    "two components on a volume-one surface need the A-ranks at "
                    "both intersection points"
                )
            n, m = b.ranks
            if not two_component_feasibility(vol, n, m):
                return PairVerdict(
                    False,
                    "infeasible",
                    vol,
                    f"volume 1 is not greater than 2*(1/{n + 1} + 1/{m + 1}); "
                    "two components cannot meet this way",
                )
        return PairVerdict(True, 1, vol, "boundary with at least two components")
    if isinstance(b, NodalSmoothLocus):
        ok = vol >= 5
        return PairVerdict(
            ok, 2, vol,
            f"nodal boundary in the smooth locus, volume {vol} "
            + ("≥ 5" if ok else "< 5"),
        )
    if isinstance(b, NodalAtA):
        if not any(s.family == "A" and s.rank == b.n for s in sings):
            raise InconsistentSpec(f"surface has no A{b.n} singularity for the node")
        if vol >= 3:
            return PairVerdict(True, 3, vol, f"node at A{b.n}, volume {vol} ≥ 3")
        if vol == 2:
            ok = b.n >= 2
            return PairVerdict(
                ok, 4, vol, f"volume 2 with node at A{b.n}: needs n ≥ 2"
            )
        ok = b.n >= 4
        return PairVerdict(ok, 5, vol, f"volume 1 with node at A{b.n}: needs n ≥ 4")
    raise InconsistentSpec(f"unknown boundary shape {b!r}")


# -- catalog ------------------------------------------------------------------


class GdpFamily(namedtuple("GdpFamily", "singularities volume toric cluster_type fixture")):
    """A catalog family; ``fixture`` names the bundled fixture holding its
    resolution dual graph, or is None when no contraction diagram ships."""

    __slots__ = ()

    @property
    def name(self) -> str:
        return format_singularities(self.singularities)


def _family(sings: str, toric: bool, fixture: str | None = None):
    labels = parse_singularities(sings)
    return GdpFamily(
        singularities=labels,
        volume=volume_of(labels),
        toric=toric,
        cluster_type=classify_surface(labels).cluster_type,
        fixture=fixture,
    )


_CATALOG = (
    # toric families
    _family("smooth", True),
    _family("A1", True),
    _family("A1+A2", True),
    _family("2A1+A3", True),
    _family("3A2", True),
    # volume at least two
    _family("A4", False),
    _family("A7", False, "fig5.A7.before"),
    _family("A1+A5", False),
    _family("A2+A5", False),
    _family("A1+2A3", False),
    # volume one, at most three singular points
    _family("A8", False, "fig6.A8.before"),
    _family("A1+A7", False, "fig7.A1A7.before"),
    _family("2A4", False, "fig8.2A4.before"),
    _family("A1+A2+A5", False, "fig9.A1A2A5"),
    # volume one, four singular points
    _family("2A1+2A3", False),
    _family("4A2", False),
)


def catalog() -> tuple[GdpFamily, ...]:
    """The sixteen A-type families of rank-one Gorenstein del Pezzo surfaces.

    Five are toric, five more have volume at least two, four have volume one
    with at most three singular points, and the final two volume-one
    four-point families are the non-cluster-type ones.
    """
    return _CATALOG


# -- figure contraction scripts ----------------------------------------------


ContractionReplay = namedtuple("ContractionReplay", "before after script result")
ContractionReplay.__doc__ = (
    "The fixture's two panels, the ids blown down and the computed graph."
)


def apply_contraction_script(fig: str) -> ContractionReplay:
    """Replay a fixture contraction diagram through the blow-down calculus.

    ``fig`` is one of "A7->A1A5", "A8->A2A5", "A1A7->A12A3", "2A4->A4".
    The returned ``result`` is the computed graph; ``after`` is the encoded
    right panel it should match up to weighted isomorphism.
    """
    from . import boundary_graph as bg
    from . import fixtures

    if fig not in fixtures.CONTRACTION_SCRIPTS:
        raise AtlasError(f"unknown contraction tag {fig!r}")
    before_name, script, after_name = fixtures.CONTRACTION_SCRIPTS[fig]
    before = fixtures.load_fixture(before_name)
    after = fixtures.load_fixture(after_name)
    g = before
    for vid in script:
        g = bg.blowdown(g, vid)
    return ContractionReplay(before, after, script, g)
