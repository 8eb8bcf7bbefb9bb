import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cypair import boundary_graph as bg
from cypair import fixtures
from cypair import gdp_atlas as atlas
from cypair.gdp_atlas import MultiComponent, NodalAtA, NodalSmoothLocus, PairSpec


def decide(sings, boundary):
    return atlas.decide_pair(PairSpec.build(sings, boundary))


class TestSingularityLabels:
    def test_parse_roundtrip(self):
        for text in ("2A1+2A3", "A1+A2+A5", "4A2", "smooth", "A7", "3A2"):
            labels = atlas.parse_singularities(text)
            assert atlas.parse_singularities(atlas.format_singularities(labels)) == labels

    def test_parse_order_insensitive(self):
        assert atlas.parse_singularities("A5+A1") == atlas.parse_singularities("A1+A5")

    def test_invalid(self):
        with pytest.raises(atlas.AtlasError):
            atlas.parse_singularities("bogus")
        with pytest.raises(atlas.AtlasError):
            atlas.SingularityLabel("D", 3)
        with pytest.raises(atlas.AtlasError):
            atlas.SingularityLabel("E", 5)

    def test_multiplicity_is_one_to_eight(self):
        # a rank-one surface has at most 8 singular points
        assert len(atlas.parse_singularities("8A1")) == 8
        for text in ("0A1", "9A1", "3000000000A1", "99999999999999999999A1"):
            with pytest.raises(atlas.AtlasError, match=f"^bad multiplicity in '{text}'$"):
                atlas.parse_singularities(text)

    def test_digit_strings_past_the_int_limit(self):
        for text in ("1" * 5000 + "A1", "A" + "1" * 5000):
            with pytest.raises(atlas.AtlasError, match="^cannot parse singularity term: "):
                atlas.parse_singularities(text)


class TestVolume:
    def test_values(self):
        assert atlas.volume_of("A8") == 1
        assert atlas.volume_of("smooth") == 9
        assert atlas.volume_of("A4") == 5

    def test_noether_oracle_for_a4(self):
        # minimal resolution bookkeeping: rho(Y) = 1 + n and rho(Y) + K^2 = 10
        n = 4
        rho_resolution = 1 + n
        assert atlas.volume_of("A4") == 10 - rho_resolution

    def test_rank_cap(self):
        with pytest.raises(atlas.RankTooLarge):
            atlas.volume_of("A8+A1")


class TestClassifySurface:
    def test_paper_family_verdicts(self):
        assert not atlas.classify_surface("4A2").cluster_type
        assert not atlas.classify_surface("2A1+2A3").cluster_type
        assert atlas.classify_surface("A1+A2+A5").cluster_type
        assert not atlas.classify_surface("E8").cluster_type
        assert not atlas.classify_surface("D4+D4").cluster_type

    def test_volume_one_three_points(self):
        assert atlas.classify_surface("A8").cluster_type
        assert atlas.classify_surface("2A4").cluster_type

    @pytest.mark.parametrize("sings, count", [
        ("4A2", "four"), ("2A1+2A3", "four"), ("3A1+A2+A3", "five"),
        ("4A1+2A2", "six"), ("6A1+A2", "seven"), ("8A1", "eight"),
    ])
    def test_volume_one_reason_counts_the_points(self, sings, count):
        verdict = atlas.classify_surface(sings)
        assert (verdict.cluster_type, verdict.reason) == (
            False, f"volume one with {count} A-type singular points is not cluster type"
        )


class TestTwoComponentFeasibility:
    def test_examples(self):
        assert not atlas.two_component_feasibility(1, 3, 3)
        assert not atlas.two_component_feasibility(1, 2, 2)
        assert atlas.two_component_feasibility(3, 1, 5)

    @given(
        st.integers(1, 9), st.integers(1, 8), st.integers(1, 8),
        st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
    )
    def test_monotone(self, vol, n, m, dv, dn, dm):
        if atlas.two_component_feasibility(vol, n, m):
            assert atlas.two_component_feasibility(vol + dv, n + dn, m + dm)


class TestDecidePair:
    def test_sextic_on_the_weighted_plane(self):
        v = decide("A1+A2", NodalSmoothLocus())
        assert (v.cluster_type, v.case, v.volume) == (True, 2, 6)

    def test_volume_three_smooth_locus_fails(self):
        v = decide("A1+A5", NodalSmoothLocus())
        assert (v.cluster_type, v.case) == (False, 2)

    def test_two_a4_at_node(self):
        v = decide("2A4", NodalAtA(4))
        assert (v.cluster_type, v.case) == (True, 5)

    def test_four_point_two_components_infeasible(self):
        for ranks in ((1, 1), (1, 3), (3, 3)):
            v = decide("2A1+2A3", MultiComponent(2, ranks))
            assert (v.cluster_type, v.case) == (False, "infeasible")
        v = decide("4A2", MultiComponent(2, (2, 2)))
        assert v.case == "infeasible"

    def test_three_components_on_four_point_family(self):
        assert decide("4A2", MultiComponent(3)).case == "infeasible"
        assert decide("3A2", MultiComponent(3)).case == 1

    def test_inconsistent_node(self):
        with pytest.raises(atlas.InconsistentSpec):
            decide("A1+A5", NodalAtA(3))

    def test_volume_one_two_components_need_ranks(self):
        with pytest.raises(atlas.InconsistentSpec):
            decide("A8", MultiComponent(2))

    @pytest.mark.parametrize("ranks", [(1.5, 2), (2, 2.0), (True, 2), ("1", 2)])
    def test_non_integer_ranks_rejected(self, ranks):
        with pytest.raises(atlas.InconsistentSpec, match="two positive integers"):
            MultiComponent(2, ranks)

    @pytest.mark.parametrize("k", [2.5, 3.0])
    def test_non_integer_component_count_rejected(self, k):
        with pytest.raises(atlas.InconsistentSpec, match="k >= 2"):
            MultiComponent(k)

    def test_non_a_type_is_never_cluster_type(self):
        v = decide("E8", NodalSmoothLocus())
        assert not v.cluster_type
        v = decide("D4+A1", MultiComponent(2, (1, 1)))
        assert not v.cluster_type

    def test_exactly_one_case_label(self):
        v = decide("A7", NodalAtA(7))
        assert v.case in (1, 2, 3, 4, 5, "infeasible")
        assert (v.cluster_type, v.case) == (True, 4)


class TestCatalog:
    def test_counts(self):
        cat = atlas.catalog()
        assert len(cat) == 16
        assert sum(f.cluster_type for f in cat) == 14
        false_names = sorted(f.name for f in cat if not f.cluster_type)
        assert false_names == ["2A1+2A3", "4A2"]

    def test_toric_families(self):
        toric = sorted(f.name for f in atlas.catalog() if f.toric)
        assert toric == sorted(["smooth", "A1", "A1+A2", "2A1+A3", "3A2"])

    def test_volumes_match(self):
        for fam in atlas.catalog():
            assert fam.volume == atlas.volume_of(fam.singularities)

    def test_resolution_graph_bookkeeping(self):
        with_graph = [f for f in atlas.catalog() if f.fixture is not None]
        assert len(with_graph) == 5
        for fam in with_graph:
            g = fixtures.load_fixture(fam.fixture)
            assert 10 - g.picard_rank == fam.volume
            marks = bg.contract_minus2_chains(g).mark_ranks
            assert sorted(marks) == sorted(s.rank for s in fam.singularities)

    def test_catalog_is_built_once(self):
        assert atlas.catalog() is atlas.catalog()
        (a7,) = (f for f in atlas.catalog() if f.name == "A7")
        assert fixtures.load_fixture(a7.fixture) is fixtures.load_fixture("fig5.A7.before")


class TestClassifierConsistency:
    def test_false_families_have_no_true_boundary(self):
        # exhaust the finite spec space for the two non-cluster-type families
        for name in ("4A2", "2A1+2A3"):
            fam = atlas.parse_singularities(name)
            ranks = sorted({s.rank for s in fam})
            specs = [NodalSmoothLocus()]
            specs += [NodalAtA(n) for n in ranks]
            specs += [MultiComponent(2, (n, m)) for n in ranks for m in ranks]
            specs += [MultiComponent(3), MultiComponent(4)]
            for spec in specs:
                v = decide(name, spec)
                assert not v.cluster_type, (name, spec)

    def test_true_families_have_a_true_boundary(self):
        witnesses = {
            "smooth": NodalSmoothLocus(),
            "A1": NodalSmoothLocus(),
            "A1+A2": NodalSmoothLocus(),
            "2A1+A3": MultiComponent(2),
            "3A2": MultiComponent(3),
            "A4": NodalSmoothLocus(),
            "A7": NodalAtA(7),
            "A1+A5": MultiComponent(2),
            "A2+A5": NodalAtA(2),
            "A1+2A3": NodalAtA(3),
            "A8": NodalAtA(8),
            "A1+A7": NodalAtA(7),
            "2A4": NodalAtA(4),
            "A1+A2+A5": NodalAtA(5),
        }
        for fam in atlas.catalog():
            if fam.cluster_type:
                assert decide(fam.name, witnesses[fam.name]).cluster_type, fam.name


class TestContractionScripts:
    @pytest.mark.parametrize(
        "tag", ["A7->A1A5", "A8->A2A5", "A1A7->A12A3", "2A4->A4"]
    )
    def test_replay_matches_encoded_panel(self, tag):
        rep = atlas.apply_contraction_script(tag)
        assert bg.weighted_isomorphic(rep.result, rep.after)

    def test_a7_script_turns_e2_into_minus_one(self):
        rep = atlas.apply_contraction_script("A7->A1A5")
        assert rep.before.vertex("E2").self_int == -2
        assert rep.result.vertex("E2").self_int == -1

    def test_every_scripted_contraction_is_crepant(self):
        # each contracted curve carries the coefficient a blow-up would
        # assign at the moment it is contracted, so the balance survives
        for tag, (before_name, script, _) in fixtures.CONTRACTION_SCRIPTS.items():
            g = fixtures.load_fixture(before_name)
            for vid in script:
                assert bg.is_crepant_blowdown(g, vid), (tag, vid)
                g = bg.blowdown(g, vid)
                assert bg.is_calabi_yau(g), (tag, vid)

    def test_unknown_tag(self):
        with pytest.raises(atlas.AtlasError):
            atlas.apply_contraction_script("A1->A0")


_LAYERING_PROBE = """
import json, sys
loaded = lambda: sorted(m for m in sys.modules if m.startswith("cypair"))
import cypair
bare = loaded()
import cypair.gdp_atlas as atlas
atlas.catalog()
atlas.classify_surface("A1+A2+A5")
atlas.decide_pair(atlas.PairSpec.build("A4", atlas.NodalSmoothLocus()))
decisions = loaded()
resolved = [name for name in cypair.__all__ if getattr(cypair, name).__name__ == "cypair." + name]
try:
    cypair.nope
    missing = "resolved"
except AttributeError:
    missing = "AttributeError"
print(json.dumps([bare, decisions, resolved, missing]))
"""


def test_decision_layer_loads_alone():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _LAYERING_PROBE],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    import cypair

    bare, decisions, resolved, missing = json.loads(proc.stdout)
    assert bare == ["cypair"]
    assert decisions == ["cypair", "cypair.gdp_atlas"]
    assert resolved == cypair.__all__
    assert missing == "AttributeError"
