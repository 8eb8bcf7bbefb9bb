import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cypair import boundary_graph as bg
from cypair import cli
from cypair import fiber_criteria as fc
from cypair import fixtures
from cypair import lattice_fan as lf
from cypair.cli import emit_dot, run


# a triangle of coefficient-one curves whose corners are one marked point:
# Calabi-Yau, but not log canonical
TRIANGLE = json.dumps({
    "rho": 3,
    "vertices": [{"id": vid, "sq": 0} for vid in "ABC"],
    "edges": [{"a": "A", "b": "B"}, {"a": "B", "b": "C"}, {"a": "A", "b": "C"}],
    "marked_points": [{"branches": ["A", "B", "C"]}],
})


def _graph(**fields):
    """Graph JSON for three curves L, M and N meeting pairwise, with ``fields`` replaced."""
    spec = {
        "vertices": [{"id": vid, "sq": 1} for vid in "LMN"],
        "edges": [{"a": a, "b": b} for a, b in ("LM", "LN", "MN")],
    }
    return json.dumps({**spec, **fields})


def _k(k):
    return json.dumps({"singularities": "A1", "boundary": {"kind": "multi_component", "k": k}})


# a JSON integer literal past CPython's 4,300-digit limit for int(), and
# what int() and json.loads say of it
HUGE = "1" * 5000
try:
    json.loads(HUGE)
except ValueError as exc:
    TOO_LONG = str(exc)
HUGE_SPEC = f'{{"vertices": [], "rho": {HUGE}}}'


# (argv, exit code, stderr) of inputs that used to crash or be misread
REFUSED = [
    (["fan", "[1,2,3]"], 2, "error: fan rays must be [x, y] arrays, got 1\n"),
    (["fan", "[[1,0],[0,1],null]"], 2, "error: fan rays must be [x, y] arrays, got None\n"),
    (["fan", '[[1,0],[0,1],"ab"]'], 2, "error: fan rays must be [x, y] arrays, got 'ab'\n"),
    (["fan", '[{"x":1},[0,1],[-1,-1]]'], 2,
     "error: fan rays must be [x, y] arrays, got {'x': 1}\n"),
    (["fan", '["10",[0,1],[-1,-1]]'], 2, "error: fan rays must be [x, y] arrays, got '10'\n"),
    (["graph", _graph(vertices=[{"id": ["L"], "sq": 1}], edges=[])], 2,
     "error: malformed graph JSON: id must be a string, got ['L']\n"),
    (["graph", _graph(vertices=[{"id": 1, "sq": 1}], edges=[])], 2,
     "error: malformed graph JSON: id must be a string, got 1\n"),
    (["graph", _graph(edges=[{"a": "L", "b": 2}])], 2,
     "error: malformed graph JSON: b must be a string, got 2\n"),
    (["graph", _graph(marked_points=[{"branches": "LMN"}])], 2,
     "error: malformed graph JSON: branches must be an array, got 'LMN'\n"),
    (["graph", _graph(edges=[{"a": "L", "b": "M"}], marked_points=[{"branches": ["L", "M", "N"]}])],
     2, "error: marked points through 'L' and 'N' outnumber their intersection points\n"),
    (["decide-pair", _k(2.7)], 2, "error: boundary k must be an integer, got 2.7\n"),
    (["decide-pair", _k(True)], 2, "error: boundary k must be an integer, got True\n"),
    (["graph", TRIANGLE, "--op", "witness"], 3,
     "error: PreconditionFailed: witness search needs a log canonical graph: no marked points\n"),
    (["graph", HUGE_SPEC], 2, f"error: {TOO_LONG}\n"),
    (["graph", "fixture:p2.triangle", "--apply", f"[{HUGE}]"], 2, f"error: {TOO_LONG}\n"),
    (["classify", "99999999999999999999A1"], 2,
     "error: bad multiplicity in '99999999999999999999A1'\n"),
    (["classify", "3000000000A1"], 2, "error: bad multiplicity in '3000000000A1'\n"),
    (["classify", "9A1"], 2, "error: bad multiplicity in '9A1'\n"),
    (["classify", f"A{HUGE}"], 2, f"error: cannot parse singularity term: {TOO_LONG}\n"),
    (["decide-pair", json.dumps({"singularities": "99999999999999999999A1",
                                 "boundary": {"kind": "nodal_smooth_locus"}})], 2,
     "error: bad pair spec: bad multiplicity in '99999999999999999999A1'\n"),
]


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestClassify:
    def test_not_cluster_type(self, capsys):
        data = invoke_json(capsys, "classify", "4A2")
        assert data["cluster_type"] is False
        assert data["volume"] == 1

    def test_cluster_type(self, capsys):
        data = invoke_json(capsys, "classify", "A1+A2+A5")
        assert data["cluster_type"] is True

    def test_parse_error_exits_2(self, capsys):
        code, _, err = invoke(capsys, "classify", "bogus")
        assert code == 2
        assert "bogus" in err

    @pytest.mark.parametrize("sings, count", [("4A2", "four"), ("6A1+A2", "seven"), ("8A1", "eight")])
    def test_volume_one_reason_counts_the_points(self, capsys, sings, count):
        data = invoke_json(capsys, "classify", sings)
        assert data["reason"] == f"volume one with {count} A-type singular points is not cluster type"

    def test_text_format(self, capsys):
        code, out, _ = invoke(capsys, "classify", "4A2", "--format", "text")
        assert code == 0
        assert "cluster_type: False" in out
        assert "volume: 1" in out


class TestDecidePair:
    def test_inline_json(self, capsys):
        spec = json.dumps(
            {"singularities": "A4", "boundary": {"kind": "nodal_smooth_locus"}}
        )
        data = invoke_json(capsys, "decide-pair", spec)
        assert (data["cluster_type"], data["case"], data["volume"]) == (True, 2, 5)

    def test_infeasible(self, capsys):
        spec = json.dumps(
            {
                "singularities": "4A2",
                "boundary": {"kind": "multi_component", "k": 2, "ranks": [2, 2]},
            }
        )
        data = invoke_json(capsys, "decide-pair", spec)
        assert data["case"] == "infeasible"

    def test_inconsistent_spec_exits_3(self, capsys):
        spec = json.dumps(
            {"singularities": "A4", "boundary": {"kind": "nodal_at_A", "n": 3}}
        )
        code, _, err = invoke(capsys, "decide-pair", spec)
        assert code == 3
        assert "A3" in err

    def test_bad_boundary_kind_exits_2(self, capsys):
        spec = json.dumps({"singularities": "A4", "boundary": {"kind": "mystery"}})
        code, _, _ = invoke(capsys, "decide-pair", spec)
        assert code == 2

    @pytest.mark.parametrize("name, kind", [
        ("p2.triangle", "BoundaryGraph"), ("ex62.pic1", "FiberSpec"), ("case2.fan", "Fan2"),
    ])
    def test_fixture_spec_exits_2(self, capsys, name, kind):
        assert invoke(capsys, "decide-pair", f"fixture:{name}") == (
            2, "", f"error: bad pair spec: {kind!r} object is not subscriptable\n"
        )

    @pytest.mark.parametrize("sings", [5, ["A1"]])
    def test_non_string_singularities_exit_2(self, capsys, sings):
        spec = json.dumps({"singularities": sings, "boundary": {"kind": "nodal_smooth_locus"}})
        assert invoke(capsys, "decide-pair", spec) == (
            2, "", f"error: bad pair spec: singularities must be a string, got {sings!r}\n"
        )

    @pytest.mark.parametrize("n", ["x", "3", 2.7, 3.0, True, None])
    def test_non_integer_node_index_exits_2(self, capsys, n):
        spec = json.dumps({"singularities": "A4", "boundary": {"kind": "nodal_at_A", "n": n}})
        assert invoke(capsys, "decide-pair", spec) == (
            2, "", f"error: boundary n must be an integer, got {n!r}\n"
        )


    @pytest.mark.parametrize("k", [2.7, 3.0, True, False])
    def test_float_or_boolean_k_is_refused(self, k):
        with pytest.raises(cli.CliInputError, match=f"^boundary k must be an integer, got {k}$"):
            cli._boundary_from_json({"kind": "multi_component", "k": k})

    @pytest.mark.parametrize("ranks", [[1.5, 2], [2, True]])
    def test_non_integer_ranks_exit_2(self, capsys, ranks):
        spec = json.dumps({
            "singularities": "A1+A2+A5",
            "boundary": {"kind": "multi_component", "k": 2, "ranks": ranks},
        })
        assert invoke(capsys, "decide-pair", spec) == (
            2, "", "error: bad pair spec: intersection A-ranks must be two positive integers\n"
        )

    # A8 is a volume-one surface, which needs the ranks; A4 has volume 5
    @pytest.mark.parametrize("sings", ["A8", "A4"])
    @pytest.mark.parametrize("ranks", [False, 0, "", "ab", {}, 3])
    def test_ranks_that_are_not_an_array_exit_2(self, capsys, sings, ranks):
        spec = json.dumps({
            "singularities": sings,
            "boundary": {"kind": "multi_component", "k": 2, "ranks": ranks},
        })
        assert invoke(capsys, "decide-pair", spec) == (
            2, "", f"error: boundary ranks must be an array, got {ranks!r}\n"
        )

    @pytest.mark.parametrize("sings", ["A8", "A4"])
    def test_empty_ranks_exit_2(self, capsys, sings):
        spec = json.dumps({
            "singularities": sings,
            "boundary": {"kind": "multi_component", "k": 2, "ranks": []},
        })
        assert invoke(capsys, "decide-pair", spec) == (
            2, "", "error: bad pair spec: intersection A-ranks must be two positive integers\n"
        )

    @pytest.mark.parametrize("boundary", [
        {"kind": "multi_component", "k": 2},
        {"kind": "multi_component", "k": 2, "ranks": None},
    ])
    def test_missing_or_null_ranks_mean_none(self, capsys, boundary):
        a8 = json.dumps({"singularities": "A8", "boundary": boundary})
        code, _, err = invoke(capsys, "decide-pair", a8)
        assert (code, "need the A-ranks" in err) == (3, True)
        a4 = json.dumps({"singularities": "A4", "boundary": boundary})
        assert invoke_json(capsys, "decide-pair", a4)["case"] == 1


class TestCheckFiber:
    def test_rank_one_volume_four(self, capsys):
        data = invoke_json(capsys, "check-fiber", "fixture:ex62.pic1", "--rank", "1")
        assert data == {"cluster_type": False, "failed_conditions": [3], "rank": 1}

    def test_rank_mismatch_exits_2(self, capsys):
        code, _, _ = invoke(capsys, "check-fiber", "fixture:ex62.pic1", "--rank", "2")
        assert code == 2

    def test_module_error_exits_3(self, capsys):
        code, _, err = invoke(capsys, "check-fiber", "fixture:ex63.pic1")
        assert code == 3
        assert "BoundaryMeetsSingularities" in err

    def test_inline_spec(self, capsys):
        spec = json.dumps(fc.fiber_to_json(fixtures.load_fixture("ex63.resolved")))
        data = invoke_json(capsys, "check-fiber", spec)
        assert data["cluster_type"] is True

    def test_non_string_node_location_exits_2(self, capsys):
        spec = '{"rank":1,"components":[{"sq":4}],"node":{"present":true,"at":5},"volume":4}'
        assert invoke(capsys, "check-fiber", spec) == (
            2, "", "error: node location must be a string, got 5\n"
        )

    @pytest.mark.parametrize("field, value, spec", [
        ("irreducible", "no", {"components": [{"sq": 4, "irreducible": "no"}]}),
        ("irreducible", 0, {"components": [{"sq": 4, "irreducible": 0}]}),
        ("node.present", 1, {"components": [{"sq": 4}], "node": {"present": 1}}),
        ("smooth_locus", "false", {"components": [{"sq": 4}], "smooth_locus": "false"}),
        ("smooth_locus", None, {"components": [{"sq": 4}], "smooth_locus": None}),
    ])
    def test_non_boolean_flag_exits_2(self, capsys, field, value, spec):
        spec = json.dumps({"rank": 1, "volume": 4, **spec})
        assert invoke(capsys, "check-fiber", spec) == (
            2, "", f"error: malformed fiber JSON: {field} must be true or false, got {value!r}\n"
        )

    @pytest.mark.parametrize("rank", [1.9, 1.0, True, "1", None])
    def test_non_integer_rank_exits_2(self, capsys, rank):
        spec = json.dumps({"rank": rank, "components": [{"sq": 4}], "volume": 4})
        assert invoke(capsys, "check-fiber", spec) == (
            2, "", f"error: malformed fiber JSON: rank must be an integer, got {rank!r}\n"
        )


class TestGraphCommand:
    def test_validate_cy(self, capsys):
        data = invoke_json(capsys, "graph", "fixture:fig5.A7.before", "--op", "validate-cy")
        assert data["calabi_yau"] is True
        assert set(data["residuals"].values()) == {0}

    def test_apply_script_then_complexity(self, capsys):
        script = json.dumps([{"op": "blowup_interior", "vertex": "L1"}])
        data = invoke_json(
            capsys, "graph", "fixture:p2.triangle",
            "--apply", script, "--op", "complexity",
        )
        assert data["complexity"] == 1

    def test_contract_chains(self, capsys):
        data = invoke_json(capsys, "graph", "fixture:fig9.A1A2A5", "--op", "contract-chains")
        assert data["marks"] == ["A1", "A2", "A5"]

    def test_witness(self, capsys):
        data = invoke_json(capsys, "graph", "fixture:ex62.graph", "--op", "witness")
        assert data == {"witness": None}

    @pytest.mark.parametrize("name, fmt, expected", [
        ("ex63.graph", "json", '{"witness": {"divisor": {"C1": 1, "C2": 0}, "node": ["edge", "C2", "E1"], '
                               '"script": [["edge", "C1", "C2"]]}}\n'),
        ("ex63.graph", "text", 'witness: {"divisor": {"C1": 1, "C2": 0}, "node": ["edge", "C2", "E1"], '
                               '"script": [["edge", "C1", "C2"]]}\n'),
        ("ex62.graph", "json", '{"witness": null}\n'),
        ("ex62.graph", "text", "witness: None\n"),
    ])
    def test_witness_bytes(self, capsys, name, fmt, expected):
        assert invoke(capsys, "graph", f"fixture:{name}", "--op", "witness", "--format", fmt) == (
            0, expected, ""
        )

    def test_format_dot_overrides_op(self, capsys):
        assert invoke(capsys, "graph", "fixture:ex62.graph", "--format", "dot", "--op", "witness") == (
            0, emit_dot(fixtures.load_fixture("ex62.graph")), ""
        )

    def test_help_lists_ops_in_order(self, capsys):
        ops = "validate-cy,complexity,coregularity,index-integral,contract-chains,witness,dot"
        code, out, _ = invoke(capsys, "graph", "--help")
        assert code == 0 and f"--op {{{ops}}}" in out

    def test_empty_witness_search_exits_3(self, capsys):
        for flags in (("--depth", "-1"), ("--cap", "0")):
            code, out, err = invoke(capsys, "graph", "fixture:p2.triangle", "--op", "witness", *flags)
            assert (code, out) == (3, "")
            assert "PreconditionFailed" in err

    def test_blowdown_error_exits_3(self, capsys):
        script = json.dumps([{"op": "blowdown", "vertex": "L1"}])
        code, _, err = invoke(capsys, "graph", "fixture:p2.triangle", "--apply", script)
        assert code == 3
        assert "NotMinusOneCurve" in err

    def test_blowdown_to_rank_zero_exits_3(self, capsys):
        spec = json.dumps(
            {
                "rho": 1,
                "vertices": [{"id": "L", "sq": 1}, {"id": "E", "sq": -1, "coeff": 0}],
                "edges": [{"a": "E", "b": "L"}],
            }
        )
        script = json.dumps([{"op": "blowdown", "vertex": "E"}])
        assert invoke(capsys, "graph", spec, "--apply", script) == (
            3, "", "error: InvalidGraph: Picard rank must be positive\n"
        )

    @pytest.mark.parametrize("edge", [["L1"], 5, ["L1", "L2", "L3"], [1, "L1"]])
    def test_blowup_corner_edge_not_a_pair_exits_2(self, capsys, edge):
        script = json.dumps([{"op": "blowup_corner", "edge": edge}])
        assert invoke(capsys, "graph", "fixture:p2.triangle", "--apply", script) == (
            2, "", f"error: blowup_corner edge must be an array of two vertex ids, got {edge!r}\n"
        )

    def test_blowup_interior_without_vertex_exits_2(self, capsys):
        script = json.dumps([{"op": "blowup_interior"}])
        assert invoke(capsys, "graph", "fixture:p2.nodal_cubic", "--apply", script) == (
            2, "", "error: unknown script step {'op': 'blowup_interior'}\n"
        )

    @pytest.mark.parametrize("field, value", [
        ("nodes", 0.9), ("nodes", "1"), ("nodes", True), ("m", 1.5), ("m", False),
        ("rho", "2"), ("rho", 1.0), ("rho", None),
    ])
    def test_non_integer_count_exits_2(self, capsys, field, value):
        counts = {"nodes": 0, "m": 1, "rho": 1, field: value}
        spec = {
            "rho": counts["rho"],
            "vertices": [{"id": "L", "sq": 1, "nodes": counts["nodes"]}, {"id": "M", "sq": 1}],
            "edges": [{"a": "L", "b": "M", "m": counts["m"]}],
        }
        assert invoke(capsys, "graph", json.dumps(spec)) == (
            2, "", f"error: malformed graph JSON: {field} must be an integer, got {value!r}\n"
        )

    @pytest.mark.parametrize("name, step, kwargs", [
        ("p2.triangle", {"op": "blowup_corner", "edge": ["L1", "L2"]}, {"edge": ("L1", "L2")}),
        ("p2.nodal_cubic", {"op": "blowup_corner", "node": "B"}, {"node": "B"}),
    ])
    def test_blowup_corner_step(self, capsys, name, step, kwargs):
        expected = bg.blowup_corner(fixtures.load_fixture(name), **kwargs)
        assert invoke(
            capsys, "graph", f"fixture:{name}", "--apply", json.dumps([step]), "--format", "dot"
        ) == (0, emit_dot(expected), "")


class TestSharedParser:
    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_no_state_leaks_between_calls(self, capsys, monkeypatch, tmp_path):
        out = tmp_path / "out.json"
        sequence = [
            ["graph", "fixture:ex63.graph", "--op", "witness", "--depth", "0"],
            ["graph", "fixture:ex63.graph", "--op", "witness"],
            ["classify", "A1+A2+A5", "--format", "text"],
            ["classify", "A1+A2+A5"],
            ["check-fiber", "fixture:ex62.pic2", "--rank", "2"],
            ["check-fiber", "fixture:ex62.pic2"],
            ["check-fiber", "fixture:ex62.pic1"],
            ["--help"],
            ["graph", "--help"],
            ["graph", "fixture:p2.triangle", "--op", "no-such-op"],
            ["graph", "fixture:p2.triangle"],
            ["fan", "fixture:p2.fan", "--out", str(out)],
            ["fan", "fixture:p2.fan"],
        ]

        def outcomes():
            got = []
            for argv in sequence:
                out.unlink(missing_ok=True)
                got.append((invoke(capsys, *argv), out.read_text() if out.exists() else None))
            return got

        shared = outcomes() + outcomes()
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        fresh = outcomes()
        assert shared == fresh + fresh
        codes = [code for (code, _, _), _ in fresh]
        assert codes == [0] * 7 + [0, 0, 2] + [0] * 3
        assert fresh[0] != fresh[1] and fresh[2] != fresh[3] and fresh[11] != fresh[12]


class TestFanCommand:
    def test_self_intersections(self, capsys):
        data = invoke_json(capsys, "fan", "fixture:p2.fan", "--op", "self-intersections")
        assert data["self_intersections"] == [1, 1, 1]

    def test_straddle_exits_3(self, capsys):
        code, _, err = invoke(capsys, "fan", "fixture:p2.fan", "--op", "project", "--form", "1,0")
        assert code == 3
        assert "NoToricMorphism" in err

    def test_prepare_then_project(self, capsys):
        data = invoke_json(
            capsys, "fan", "fixture:case2.fan", "--op", "prepare-projection", "--form", "1,1"
        )
        assert len(data["rays"]) == 5
        data2 = invoke_json(
            capsys, "fan", json.dumps(data["rays"]), "--op", "project", "--form", "1,1"
        )
        assert data2["fiber_over_infinity"] == [[3, 2]] or len(data2["fiber_over_infinity"]) == 1

    def test_invalid_fan_exits_2(self, capsys):
        code, _, _ = invoke(capsys, "fan", "[[2,0],[0,1],[-1,-1]]", "--op", "smooth")
        assert code == 2

    @pytest.mark.parametrize("ray", [[-1, -1.5], [-1.0, -1], [True, -1], [-1, False]])
    def test_non_integer_ray_coordinate_exits_2(self, capsys, ray):
        spec = json.dumps([[1, 0], [0, 1], ray])
        assert invoke(capsys, "fan", spec, "--op", "smooth") == (
            2, "", f"error: fan ray coordinates must be integers, got {ray!r}\n"
        )

    def test_subdivide(self, capsys):
        fan = lf.star_subdivide(fixtures.load_fixture("p2.fan"), (1, 1))
        assert invoke(capsys, "fan", "fixture:p2.fan", "--op", "subdivide", "--ray", "1,1") == (
            0, json.dumps({"rays": lf.fan_to_json(fan)}) + "\n", ""
        )

    def test_spec_from_file_and_stdin(self, capsys, monkeypatch, tmp_path):
        rays = [[1, 0], [1, 1], [0, 1], [-1, -1]]
        expected = json.dumps({"self_intersections": lf.self_intersections(lf.make_fan(rays))}) + "\n"
        path = tmp_path / "fan.json"
        path.write_text(json.dumps(rays), encoding="utf-8")
        assert invoke(capsys, "fan", str(path), "--op", "self-intersections") == (0, expected, "")
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(rays)))
        assert invoke(capsys, "fan", "-", "--op", "self-intersections") == (0, expected, "")

    @pytest.mark.parametrize("flags, message", [
        (("--op", "subdivide"), "subdivide needs --ray x,y"),
        (("--op", "project"), "project needs --form a,b"),
        (("--op", "prepare-projection"), "prepare-projection needs --form a,b"),
        (("--op", "project", "--form", "1,2,3"), "--form must look like 'x,y'"),
        (("--op", "prepare-projection", "--form", "1,2,3"), "--form must look like 'x,y'"),
        (("--op", "subdivide", "--ray", "x"), "--ray must look like 'x,y'"),
    ])
    def test_missing_or_malformed_pair_exits_2(self, capsys, flags, message):
        assert invoke(capsys, "fan", "fixture:p2.fan", *flags) == (2, "", f"error: {message}\n")

    def test_resolve_past_the_chain_cap_exits_3(self, capsys):
        spec = "[[99999999999999999999,1],[0,1],[-1,-1]]"
        assert invoke(capsys, "fan", spec, "--op", "resolve") == (
            3, "", "error: FanError: resolving the cone <(99999999999999999999, 1), (0, 1)> "
            "needs more than 10000 rays\n"
        )

    def test_help_lists_ops_in_order(self, capsys):
        ops = "validate,smooth,self-intersections,complexity,resolve,subdivide,project,prepare-projection"
        code, out, _ = invoke(capsys, "fan", "--help")
        assert code == 0 and f"--op {{{ops}}}" in out


class TestCatalogAndFixtures:
    def test_catalog_counts(self, capsys):
        data = invoke_json(capsys, "catalog")
        assert data["count"] == 16
        assert sum(row["cluster_type"] for row in data["families"]) == 14

    def test_fixture_list(self, capsys):
        data = invoke_json(capsys, "fixture", "--list")
        assert "fig5.A7.before" in data["fixtures"]

    def test_unknown_fixture_exits_2(self, capsys):
        code, _, err = invoke(capsys, "fixture", "nope")
        assert code == 2
        assert "UnknownFixture" in err

    def test_fixture_dump_roundtrips(self, capsys):
        data = invoke_json(capsys, "fixture", "ex64.pair")
        assert bg.graph_from_json(data["graph"]) == fixtures.load_fixture("ex64.pair")

    @pytest.mark.parametrize("name, payload", [
        ("ex62.pic1", lambda obj: {"kind": "fiber", "fiber": fc.fiber_to_json(obj)}),
        ("p123.fan", lambda obj: {"kind": "fan", "rays": lf.fan_to_json(obj)}),
    ])
    def test_fixture_dump_fiber_and_fan(self, capsys, name, payload):
        expected = json.dumps(payload(fixtures.load_fixture(name)), sort_keys=True) + "\n"
        assert invoke(capsys, "fixture", name) == (0, expected, "")

    def test_fixture_needs_a_name_or_list(self, capsys):
        assert invoke(capsys, "fixture") == (2, "", "error: pass a fixture name or --list\n")


class TestDot:
    def test_single_vertex_three_lines(self):
        g = bg.BoundaryGraph.build([("B", 9, 1, 1)], rho=1)
        assert len(emit_dot(g).strip().split("\n")) == 3

    def test_deterministic_bytes(self):
        g1 = fixtures.load_fixture("fig5.A7.before")
        g2 = fixtures.load_fixture("fig5.A7.before")
        assert emit_dot(g1).encode() == emit_dot(g2).encode()

    def test_figure_has_ten_vertices(self):
        dot = emit_dot(fixtures.load_fixture("fig5.A7.before"))
        assert sum(1 for line in dot.splitlines() if "label=" in line and "--" not in line) == 10

    def test_styles(self):
        g = bg.BoundaryGraph.build(
            [("S", -2, 1), ("D", -1, 0), ("B", 3, 1), ("T", -3, "1/2")],
            [("S", "D"), ("D", "B"), ("B", "T"), ("S", "T")],
            rho=4,
        )
        dot = emit_dot(g)
        assert '"S" [label="S (-2)" style=solid];' in dot
        assert '"D" [label="D (-1)" style=dashed];' in dot
        assert '"B" [label="B (3)" style=bold];' in dot
        assert '"T" [label="T (-3)" style=dotted];' in dot

    def test_out_file(self, capsys, tmp_path):
        out = tmp_path / "g.dot"
        code, stdout, _ = invoke(
            capsys, "graph", "fixture:p2.triangle", "--op", "dot", "--out", str(out)
        )
        assert code == 0
        assert stdout == ""
        assert out.read_text().startswith("graph boundary {")

    @pytest.mark.parametrize("where", ["missing-dir/x.json", "."])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, where):
        path = str(tmp_path / where)
        code, stdout, err = invoke(capsys, "classify", "A1", "--out", path)
        assert (code, stdout) == (2, "")
        assert err.startswith(f"error: cannot write --out {path!r}: ") and "Traceback" not in err


class TestFixtureShapes:
    def test_a7_panel_is_a_cycle_with_two_chords(self):
        g = fixtures.load_fixture("fig5.A7.before")
        boundary = [v for v in g.vertices if v.coeff == 1]
        chords = [v for v in g.vertices if v.coeff == 0]
        assert len(boundary) == 8 and len(chords) == 2
        assert all(v.self_int == -1 for v in chords)
        # the coefficient-one part is a single cycle: every vertex meets
        # exactly two other boundary vertices
        ids = {v.id for v in boundary}
        for v in boundary:
            deg = sum(
                e.multiplicity for e in g.edges_at(v.id) if e.other(v.id) in ids
            )
            assert deg == 2

    def test_every_fixture_is_built_once(self):
        for name in fixtures.fixture_names():
            assert fixtures.load_fixture(name) is fixtures.load_fixture(name)

    def test_ex62_fiber_volume_is_recorded(self):
        f = fixtures.load_fixture("ex62.pic1")
        assert f.volume == 4 and f.rel_picard_rank == 1


class TestCorpusRoundTrips:
    def test_parse_of_emit_is_identity_for_every_fixture(self):
        for name in fixtures.fixture_names():
            obj = fixtures.load_fixture(name)
            if isinstance(obj, bg.BoundaryGraph):
                assert bg.graph_from_json(json.loads(json.dumps(bg.graph_to_json(obj)))) == obj
            elif isinstance(obj, fc.FiberSpec):
                assert fc.fiber_from_json(json.loads(json.dumps(fc.fiber_to_json(obj)))) == obj
            else:
                assert lf.fan_from_json(json.loads(json.dumps(lf.fan_to_json(obj)))) == obj

    def test_malformed_payloads_exit_2(self, capsys):
        assert invoke(capsys, "graph", '{"vertices": [{"id": "A"}]}')[0] == 2
        assert invoke(capsys, "check-fiber", '{"rank": 1}')[0] == 2
        assert invoke(capsys, "graph", "not json and not a file")[0] == 2
        assert invoke(capsys, "graph", "fixture:p2.triangle", "--apply", "[42]")[0] == 2

    def test_json_value_errors_exit_2_from_every_source(self, capsys, monkeypatch, tmp_path):
        # a decode error prints what it printed before json.loads was
        # wrapped; an integer past the digit limit is an input error too
        path = tmp_path / "graph.json"
        for spec, err in (('{"vertices": [}', "Expecting value: line 1 column 15 (char 14)"),
                          (HUGE_SPEC, TOO_LONG)):
            path.write_text(spec, encoding="utf-8")
            monkeypatch.setattr(sys, "stdin", io.StringIO(spec))
            for source in (spec, "-", str(path)):
                assert invoke(capsys, "graph", source) == (2, "", f"error: {err}\n")


class TestExpectedVerdictTable:
    def test_every_fixture_matches_the_frozen_table(self, capsys):
        for name, expected in fixtures.EXPECTED.items():
            kind = expected["kind"]
            assert fixtures.fixture_kind(name) == kind
            if kind == "graph":
                g = fixtures.load_fixture(name)
                assert bg.is_calabi_yau(g) == expected["calabi_yau"], name
                assert bg.coregularity(g) == expected["coregularity"], name
                assert bg.complexity(g) == expected["complexity"], name
                assert bg.index_integral(g) == expected["index_integral"], name
                if "chains" in expected:
                    assert bg.contract_minus2_chains(g).mark_ranks == expected["chains"]
                if "witness" in expected:
                    w = fc.prop51_witness_search(g)
                    assert (w is not None) == expected["witness"], name
            elif kind == "fiber":
                f = fixtures.load_fixture(name)
                check = fc.check_pic1 if f.rel_picard_rank == 1 else fc.check_pic2
                if "error" in expected:
                    with pytest.raises(fc.FiberError) as exc_info:
                        check(f)
                    assert type(exc_info.value).__name__ == expected["error"]
                else:
                    v = check(f)
                    assert v.cluster_type == expected["cluster_type"], name
                    assert list(v.failed_conditions) == expected["failed_conditions"], name
            else:
                fan = fixtures.load_fixture(name)
                if "smooth" in expected:
                    assert lf.is_smooth(fan) == expected["smooth"], name
                if "self_intersections" in expected:
                    assert lf.self_intersections(fan) == expected["self_intersections"]
                if "resolved_rays" in expected:
                    assert len(lf.resolve(fan).rays) == expected["resolved_rays"]
                if "projects_along" in expected:
                    lf.p1_projection(fan, tuple(expected["projects_along"]))
                if "needs_subdivision_for" in expected:
                    form = tuple(expected["needs_subdivision_for"])
                    with pytest.raises(lf.NoToricMorphism):
                        lf.p1_projection(fan, form)
                    lf.p1_projection(lf.subdivide_for_projection(fan, form), form)


@pytest.mark.parametrize("argv, code, err", REFUSED)
def test_refused_inputs(capsys, argv, code, err):
    assert invoke(capsys, *argv) == (code, "", err)


def _cli_process(*argv) -> subprocess.Popen:
    """``python -m cypair.cli ARGV`` with this checkout's ``src`` on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-m", "cypair.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


class TestModuleEntryPoint:
    def test_python_m_cypair_cli_is_quiet(self):
        proc = _cli_process("--help")
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (0, "")
        assert out.startswith("usage: ")

    def test_exit_codes_without_traceback(self, tmp_path):
        # one input per exit code, a spec file past the digit limit, then
        # every input in REFUSED; the processes run side by side
        path = tmp_path / "graph.json"
        path.write_text(HUGE_SPEC, encoding="utf-8")
        cases = [(["classify", "A1"], 0), (["classify", "B3"], 2),
                 (["graph", "fixture:ex64.pair", "--op", "witness"], 3), (["graph", str(path)], 2)]
        cases += [(argv, code) for argv, code, _ in REFUSED]
        procs = [(argv, code, _cli_process(*argv)) for argv, code in cases]
        for argv, code, proc in procs:
            _, err = proc.communicate(timeout=60)
            assert (proc.returncode, "Traceback" in err) == (code, False), (argv, err)

    def test_cli_imports(self):
        import cypair
        from cypair import cli
        from cypair.cli import run as imported_run

        assert "cli" in cypair.__all__
        assert cli.run is imported_run is run
