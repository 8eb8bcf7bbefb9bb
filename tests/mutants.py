"""Mutation checks: break the program on purpose, one row at a time, and
require the row's tests to catch it.

Run from anywhere with ``python tests/mutants.py``.  The runner copies
``src/`` into a temporary directory and first runs every row's tests on
the unchanged copy, which must pass.  Then, for each row, it replaces the
row's snippet in its module, runs the row's pytest node ids against the
copy with ``-x``, and puts the module back.  A row is

- killed when the tests fail (pytest exit code 1);
- a survivor when they all pass;
- stale when its snippet does not occur exactly once, so a refactor
  that moves the code shows up here and not as a pass;
- broken on any other pytest exit code: an unknown node id, or a test
  module that does not import under the mutant.  Name tests whose
  modules still collect;
- timed out when its tests run past ``TIMEOUT_S`` seconds, as a mutant
  that stalls a loop would; the run is killed.

The ``EQUIVALENT`` rows are not run, but each snippet must still occur
exactly once in its module; a row whose snippet does not is reported as
stale.  It exits 0 only when every row is killed and no ``EQUIVALENT``
row is stale.  pytest does not collect this file, since its name does not
start with ``test_``.

Each row is (name, module path under ``src/``, snippet, replacement,
node ids).  A change that deletes or rewrites the code of a row updates
the row, or removes it and says why.  ``EQUIVALENT`` lists the mutants
known to survive because they change no output, with the reason.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# a mutant that stalls a loop must fail the run, not hang it; one pytest
# run of a row takes about a second
TIMEOUT_S = 120

BG = "cypair/boundary_graph.py"
CLI = "cypair/cli.py"
FC = "cypair/fiber_criteria.py"
FX = "cypair/fixtures.py"
GA = "cypair/gdp_atlas.py"
RAT = "cypair/rationals.py"
BUILD = "tests/test_boundary_graph.py::TestBuild"
CHECK = "tests/test_certificates.py::TestCheckWitness"
CONTRACT = "tests/test_boundary_graph.py::TestContractChainsMatchesReference"
BYTES = "tests/test_cli.py::TestGraphCommand::test_contract_chains_bytes"
SITES = "tests/test_wire_types.py::test_each_site_refuses_with_its_class_and_message"
SHAPES = f"{CONTRACT}::test_long_branched_and_closed_chains"
SEARCH = "tests/test_fiber_criteria.py::TestWitnessSearch"
BALANCE = "tests/test_fiber_criteria.py::TestBalanceCheckMatchesIsCalabiYau"
PRUNED = "tests/test_fiber_criteria.py::TestPrunedSearchMatchesReference"
TWO = "tests/test_fiber_criteria.py::TestTwoBlowupsSuffice"
RANK_FIRST = "tests/test_wire_types.py::test_a_bad_fiber_rank_is_reported_before_the_node_is_read"
REFUSED = "tests/test_refusals.py::test_each_site_refuses_with_its_class_and_message"
REFUSED_CLI = "tests/test_refusals.py::test_each_command_line_exits_2_with_its_message"
GOLDEN = "tests/test_cli.py::test_cli_bytes_match_the_golden"
CORNER = "tests/test_boundary_graph.py::TestBlowupCorner"
SURGERY = "tests/test_boundary_graph.py::TestSurgeryBuildsWhatTheConstructorsWould"
RESIDUALS = "tests/test_boundary_graph.py::test_scaled_residuals_match_the_reference"
ORDER = "tests/test_boundary_graph.py::test_surgery_keeps_graphs_in_order"
APPLY_BYTES = "tests/test_cli.py::TestGraphCommand::test_apply_then_contract_chains_bytes"

MUTANTS = [
    # -- one wire-type rule
    (
        "the wire-type rule lets a bool pass as an integer",
        RAT,
        "    if type(value) is not kind:",
        "    if not isinstance(value, kind):",
        [SITES],
    ),
    (
        "the fiber JSON reader drops its rank check",
        FC,
        '        typed(data["rank"], int, "rank")',
        "        pass",
        [SITES, RANK_FIRST],
    ),
    # -- one path into a BoundaryGraph
    (
        "Edge keeps its endpoints in the order given",
        BG,
        "        if a > b:\n            a, b = b, a\n",
        "",
        ["tests/test_value_types.py::test_an_edge_stores_its_endpoints_in_order",
         f"{BUILD}::test_stored_graphs_build_to_themselves"],
    ),
    (
        "build unpacks a vertex with too few fields",
        BG,
        "            if not 3 <= len(v) <= 4:",
        "            if len(v) > 4:",
        [f"{BUILD}::test_shorter_tuples_are_refused"],
    ),
    (
        "build unpacks an edge with too few fields",
        BG,
        "            if not 2 <= len(e) <= 3:",
        "            if len(e) > 3:",
        [f"{BUILD}::test_shorter_tuples_are_refused"],
    ),
    (
        "build accepts an edge to a missing vertex",
        BG,
        "            if e.a not in known or e.b not in known:\n"
        '                raise InvalidGraph(f"edge {e.a}-{e.b} references a missing vertex")\n',
        "",
        [f"{BUILD}::test_the_first_bad_edge_decides_the_error"],
    ),
    (
        "build lets marked points outnumber the crossings they sit on",
        BG,
        "            if points.get((a, b), 0) < n:",
        "            if points.get((a, b), 0) < 1:",
        [f"{BUILD}::test_marked_points_sit_on_intersection_points"],
    ),
    (
        "the store accepts a Picard rank below one",
        BG,
        '    if rho < 1:\n        raise InvalidGraph("Picard rank must be positive")\n',
        "",
        [f"{BUILD}::test_rank_must_be_positive",
         "tests/test_boundary_graph.py::TestBlowdown::test_rank_one_refused"],
    ),
    (
        "build accepts a duplicate edge",
        BG,
        '        if len(points) != len(es):\n'
        '            raise InvalidGraph("duplicate edge; merge multiplicities instead")\n',
        "",
        [f"{BUILD}::test_duplicate_edges_are_refused"],
    ),
    # -- one pass per surgery
    (
        "the blow-down drops the gain between two neighbours",
        BG,
        "e.multiplicity + pair_gain.pop((e.a, e.b))",
        "e.multiplicity + 0 * pair_gain.pop((e.a, e.b))",
        ["tests/test_boundary_graph.py::TestBlowdown::test_neighbours_that_meet_gain_more_points"],
    ),
    (
        "the corner blow-up lowers only endpoint a",
        BG,
        "v = make((v.id, v.self_int - 1, v.coeff, v.nodes))",
        "v = make((v.id, v.self_int - (v.id == a), v.coeff, v.nodes))",
        ["tests/test_boundary_graph.py::TestBlowdown::test_roundtrip_corner_edge"],
    ),
    (
        "build leaves the edges unsorted",
        BG,
        "_store(sorted(vs), sorted(es),",
        "_store(sorted(vs), es,",
        ["tests/test_boundary_graph.py::test_store_sorts_as_the_keyed_sort"],
    ),
    # -- surgery builds every value with _make, new values too
    (
        "the corner blow-up keeps an endpoint's self-intersection",
        BG,
        "v = make((v.id, v.self_int - 1, v.coeff, v.nodes))",
        "v = make((v.id, v.self_int, v.coeff, v.nodes))",
        [f"{CORNER}::test_reduced_cycle_corner_keeps_complexity"],
    ),
    (
        "the node blow-up keeps the curve's nodes",
        BG,
        "v = make((node, v.self_int - 4, v.coeff, v.nodes - 1))",
        "v = make((node, v.self_int - 4, v.coeff, v.nodes))",
        [f"{CORNER}::test_node_case_volume_five"],
    ),
    (
        "the split edge keeps its multiplicity",
        BG,
        "es.append(Edge._make((lo, hi, x.multiplicity - 1)))",
        "es.append(x)",
        [f"{CORNER}::test_marked_points_shield_their_crossings"],
    ),
    (
        "the blow-down drops the m-choose-2 nodes",
        BG,
        "w.nodes + m * (m - 1) // 2",
        "w.nodes",
        ["tests/test_boundary_graph.py::TestBlowdown::test_roundtrip_corner_node"],
    ),
    (
        "a caller's id is not checked for use",
        BG,
        "    if new_id in g.ids():",
        "    if False:",
        [f"{SURGERY}::test_double_faults_keep_their_precedence"],
    ),
    (
        "the new curve keeps an integral Fraction coefficient",
        BG,
        "    coeff = coeff.numerator if coeff.denominator == 1 else coeff\n",
        "",
        ["tests/test_boundary_graph.py::TestFastPathsMatchReference::test_graph_fixtures"],
    ),
    (
        "a blow-up's new edge keeps the new curve as its first end",
        BG,
        "Edge._make((eid, other, m) if eid < other else (other, eid, m))",
        "Edge._make((eid, other, m))",
        [f"{CORNER}::test_node_case_volume_five"],
    ),
    (
        "the corner blow-up counts marked points only on a graph without any",
        BG,
        "        if g.marked_points and m <= sum(",
        "        if not g.marked_points and m <= sum(",
        [f"{CORNER}::test_marked_points_shield_their_crossings"],
    ),
    (
        "the search takes the scale as 1",
        FC,
        "    scale = lcm(*[v.self_int.denominator for v in fiber.vertices])",
        "    scale = 1",
        ["tests/test_fiber_criteria.py::TestPrunedSearchMatchesReference"
         "::test_non_integral_self_intersections"],
    ),
    # -- chain contraction over two maps, in int
    (
        "the chain walk may step back to the previous curve",
        BG,
        "            nxt = [y for y in adj[chain[-1]] if y != prev]",
        "            nxt = list(adj[chain[-1]])",
        [SHAPES],
    ),
    (
        "the chain walk starts from the largest end",
        BG,
        "        chain, prev = [min(ends)], None",
        "        chain, prev = [max(ends)], None",
        [SHAPES],
    ),
    (
        "a nodal (-2)-curve joins a chain",
        BG,
        '            raise NotMinusTwoChain(f"{vid!r} carries nodes")',
        "            pass",
        [f"{SHAPES}[chain of 60, two curves with a node-carries nodes]"],
    ),
    (
        "mixed coefficients join a chain",
        BG,
        "    if len({vertex[vid].coeff for vid in chain}) > 1:",
        "    if len({vertex[vid].coeff for vid in chain}) > 2:",
        ["tests/test_boundary_graph.py::TestContractChains::test_mixed_coefficients_rejected"],
    ),
    (
        "a link meeting twice passes",
        BG,
        "        if meet[a, b] != 1:",
        "        if meet[a, b] < 1:",
        ["tests/test_boundary_graph.py::TestContractChains::test_chain_neighbours_meet_once"],
    ),
    (
        "a survivor that meets two chains keeps only its last correction",
        BG,
        "gain[vid] = gain.get(vid, 0) + num * (den // (k + 1))",
        "gain[vid] = num * (den // (k + 1))",
        [f"{BYTES}[fig9.A1A2A5]"],
    ),
    (
        "a survivor that meets no chain gets a correction",
        BG,
        "        if num := gain.get(v.id):",
        "        if num := gain.get(v.id, 1):",
        [f"{BYTES}[fig8.2A4.after]", f"{BYTES}[ex62.graph]"],
    ),
    (
        "the contraction keeps marked points through contracted curves",
        BG,
        "mps = tuple(p for p in g.marked_points if where.keys().isdisjoint(p.branches))",
        "mps = g.marked_points",
        [f"{CONTRACT}::test_random_graphs"],
    ),
    (
        "complexity returns an int on graphs with integral coefficients",
        BG,
        "    return Fraction(2 + g.picard_rank - sum(v.coeff for v in g.vertices))",
        "    return 2 + g.picard_rank - sum(v.coeff for v in g.vertices)",
        ["tests/test_boundary_graph.py::TestComplexity::test_int_sum_matches_the_fraction_sum"],
    ),
    # -- fixtures built on first load
    (
        "every load builds its fixture anew",
        FX,
        "@functools.cache\ndef load_fixture",
        "def load_fixture",
        ["tests/test_cli.py::TestFixtureShapes::test_every_fixture_is_built_once"],
    ),
    # -- the witness checker
    (
        "the checker flips the sign of D^2",
        FC,
        "    if bg.divisor_square(g, m) < 0:",
        "    if -bg.divisor_square(g, m) < 0:",
        [f"{CHECK}::test_broken_certificates_are_refused"],
    ),
    (
        "the checker accepts a node inside the support",
        FC,
        "    if witness.node not in corners(g) or any(m.get(c, 0) for c in witness.node[1:]):",
        "    if witness.node not in corners(g):",
        [f"{CHECK}::test_broken_certificates_are_refused"],
    ),
    (
        "the checker replays each step at the first edge",
        FC,
        "            g = bg.blowup_corner(g, edge=step[1:])",
        "            g = bg.blowup_corner(g, edge=(g.edges[0].a, g.edges[0].b))",
        [f"{CHECK}::test_witnesses_off_the_first_corner_pass"],
    ),
    # -- fiber refusals
    (
        "FiberSpec accepts a relative Picard rank other than 1 or 2",
        FC,
        "        if rank not in (1, 2):\n"
        '            raise FiberError("relative Picard rank must be 1 or 2")\n',
        "",
        ["tests/test_fiber_criteria.py::TestFiberSpec::test_rank_must_be_one_or_two"],
    ),
    (
        "the weighted corner accepts a weight below one",
        FC,
        "    if alpha < 1 or beta < 1:\n"
        '        raise FiberError("weights must be positive integers")\n',
        "",
        ["tests/test_fiber_criteria.py::TestWeightedCorner::test_weights_must_be_positive"],
    ),
    # -- the search's balance precondition, decided by is_calabi_yau
    (
        "the search skips its balance check",
        FC,
        "    if not bg.is_calabi_yau(fiber):",
        "    if False:",
        [f"{SEARCH}::test_requires_balance", f"{BALANCE}::test_random_coefficient_one_graphs"],
    ),
    # -- the witness search, caught by the checker
    (
        "the search flips the sign of the scanned form",
        FC,
        "            elif support and qx >= 0:",
        "            elif support and -qx >= 0:",
        [f"{CHECK}::test_known_witnesses_pass"],
    ),
    (
        "the search takes the node inside the support",
        FC,
        "    node = next(t for t in _corners(g) if not any(",
        "    node = next(t for t in _corners(g) if any(",
        [f"{CHECK}::test_known_witnesses_pass"],
    ),
    (
        "the search records the last step at the first corner",
        FC,
        "return _witness(child, (first, (\"edge\", e.a, e.b)), m, index)",
        "return _witness(child, (first, next(_corners(g))), m, index)",
        [f"{CHECK}::test_witnesses_off_the_first_corner_pass"],
    ),
    # -- the first layer scans only its edge children, and the second layer
    # builds only the blow-ups that can hold a witness
    (
        "the first layer scans no edge child",
        FC,
        "        m = _divisor_witness(child, index, scale, coeff_cap)\n"
        "        if m is not None:\n"
        "            return _witness(child, (target,), m, index)\n",
        "",
        [f"{SEARCH}::test_resolved_fiber_has_depth_one_witness"],
    ),
    (
        "the first layer builds no node child",
        FC,
        '            layer.append((("node", v.id), bg.blowup_corner(fiber, node=v.id)))\n',
        "            continue\n",
        [f"{SEARCH}::test_nodal_cubic_witness_at_depth_two"],
    ),
    (
        "the first layer scans its node children",
        FC,
        '            layer.append((("node", v.id), bg.blowup_corner(fiber, node=v.id)))\n',
        "            child = bg.blowup_corner(fiber, node=v.id)\n"
        "            if (m := _divisor_witness(child, index, scale, coeff_cap)) is not None:\n"
        '                return _witness(child, (("node", v.id),), m, index)\n'
        '            layer.append((("node", v.id), child))\n',
        [f"{PRUNED}::test_node_children_are_built_not_scanned"],
    ),
    (
        "a depth-1 search builds the node children",
        FC,
        "    if max_blowups == 1:\n"
        "        return None\n"
        "    # the children at nodes hold no witness, but the second layer reads them\n"
        "    for v in fiber.vertices:\n"
        "        if v.nodes:\n"
        '            layer.append((("node", v.id), bg.blowup_corner(fiber, node=v.id)))\n',
        "    for v in fiber.vertices:\n"
        "        if v.nodes:\n"
        '            layer.append((("node", v.id), bg.blowup_corner(fiber, node=v.id)))\n'
        "    if max_blowups == 1:\n"
        "        return None\n",
        [f"{PRUNED}::test_node_children_are_built_not_scanned"],
    ),
    (
        "the second layer builds every corner of two curves",
        FC,
        "            if (e.a in index) != (e.b in index):",
        "            if True:",
        [f"{PRUNED}::test_two_layers_are_built_once"],
    ),
    (
        "the second layer keeps the corners of two originals, not the new curve's",
        FC,
        "            if (e.a in index) != (e.b in index):",
        "            if e.a in index and e.b in index:",
        [f"{TWO}::test_nodal_curves_and_curve_pairs"],
    ),
    # -- edge masks when the new curve is an edge's first end
    (
        "an edge whose first end is a new curve gets the mask 0",
        FC,
        "            masks.add(1 << j if j >= 0 else 0)",
        "            masks.add(1 << j if j >= 0 and e.a in index else 0)",
        [f"{PRUNED}::test_curves_named_after_the_new_curves"],
    ),
    # -- the divisor square in one pass over the vertices and one over the edges
    (
        "divisor_square counts each crossing of two curves once",
        BG,
        "            total += 2 * multiplicities[a] * multiplicities[b] * k",
        "            total += multiplicities[a] * multiplicities[b] * k",
        ["tests/test_certificates.py::TestDivisorSquare::test_matches_the_gram_form"],
    ),
    # -- surgery keeps order, and the Calabi-Yau test stays in int
    (
        "the integral residuals drop 2 * nodes - 2",
        BG,
        "        res[vid] = 2 * nodes - 2 + (b - 1) * sq",
        "        res[vid] = (b - 1) * sq",
        [RESIDUALS],
    ),
    (
        "the integral residuals let a Fraction through",
        BG,
        "        if type(sq) is not int or type(b) is not int:",
        "        if False:",
        [RESIDUALS],
    ),
    (
        "a blow-up appends the new curve",
        BG,
        "    insort(vs, CurveVertex._make((eid, -1, coeff, 0)))",
        "    vs.append(CurveVertex._make((eid, -1, coeff, 0)))",
        [ORDER, APPLY_BYTES],
    ),
    (
        "a blow-up appends its new edges",
        BG,
        "        insort(es, Edge._make((eid, other, m) if eid < other else (other, eid, m)))",
        "        es.append(Edge._make((eid, other, m) if eid < other else (other, eid, m)))",
        [ORDER, APPLY_BYTES],
    ),
    (
        "the corner blow-up appends the split edge at the end",
        BG,
        "                if x.multiplicity > 1:\n"
        "                    es.append(Edge._make((lo, hi, x.multiplicity - 1)))\n"
        "            else:\n"
        "                es.append(x)\n",
        "            else:\n"
        "                es.append(x)\n"
        "        if e is not None and e.multiplicity > 1:\n"
        "            es.append(Edge._make((lo, hi, e.multiplicity - 1)))\n",
        [ORDER],
    ),
    (
        "the blow-down appends its new pair edges",
        BG,
        "            insort(es, Edge._make((a, b, m)))",
        "            es.append(Edge._make((a, b, m)))",
        [ORDER],
    ),
    # -- crepancy as the contracted curve's own residual
    (
        "the crepancy test accepts a nodal (-1)-curve",
        BG,
        "v.self_int == -1 and v.nodes == 0 and not",
        "v.self_int == -1 and not",
        ["tests/test_boundary_graph.py::TestFastPathsMatchReference::test_random_graphs"],
    ),
    # -- one function picks the new curve's id
    (
        "the fresh id starts at E2",
        BG,
        '    k = 1\n    while f"E{k}" in used:',
        '    k = 2\n    while f"E{k}" in used:',
        [f"{CORNER}::test_node_case_volume_five"],
    ),
    # -- the isomorphism matches self-intersections and nodes, not coefficients
    (
        "weighted_isomorphic's label also compares coeff",
        BG,
        "        return (v.self_int, v.nodes)\n",
        "        return (v.self_int, v.nodes, v.coeff)\n",
        ["tests/test_boundary_graph.py::TestIsomorphism::test_coefficients_are_ignored"],
    ),
    # -- two-component feasibility decided in integers
    (
        "feasibility uses >=",
        GA,
        "    return volume * (n + 1) * (m + 1) > 2 * (n + m + 2)",
        "    return volume * (n + 1) * (m + 1) >= 2 * (n + m + 2)",
        ["tests/test_gdp_atlas.py::TestTwoComponentFeasibility"
         "::test_integers_agree_with_the_rational_inequality"],
    ),
    # -- refusals pinned by class and message
    (
        "resolve_An_at_node accepts an empty chain",
        BG,
        '    if n < 1:\n        raise InvalidGraph("n must be at least 1")\n',
        "",
        [f"{REFUSED}[resolve_An_at_node n]"],
    ),
    (
        "an A-type rank of zero is accepted",
        GA,
        '        if family == "A" and rank < 1:',
        '        if family == "A" and rank < 0:',
        [f"{REFUSED}[SingularityLabel A0]", f"{REFUSED_CLI}[classify A0]"],
    ),
    (
        "a node at A_0 is accepted",
        GA,
        "        if n < 1:\n"
        '            raise InconsistentSpec("the node must sit at an A_n point with n >= 1")\n',
        "",
        [f"{REFUSED}[NodalAtA n]", f"{REFUSED_CLI}[decide-pair n]"],
    ),
    (
        "the boundary reader drops its kind check",
        CLI,
        '    if not isinstance(data, dict) or "kind" not in data:',
        "    if not isinstance(data, dict):",
        [f"{REFUSED_CLI}[boundary kind]"],
    ),
    (
        "a missing pair field prints the bare key",
        CLI,
        'raise CliInputError(f"bad pair spec: missing field {exc.args[0]!r}") from exc',
        'raise CliInputError(f"bad pair spec: {exc}") from exc',
        [f"{REFUSED_CLI}[decide-pair missing n]"],
    ),
    (
        "graph_from_json drops its vertices check",
        BG,
        '    if not isinstance(data, dict) or "vertices" not in data:',
        "    if not isinstance(data, dict):",
        [f"{REFUSED}[graph_from_json vertices]"],
    ),
    # -- one declaration of the CLI
    (
        "fan loses its text format",
        CLI,
        '"fan": (_cmd_fan, "complete-fan operations", ("json", "text"), [',
        '"fan": (_cmd_fan, "complete-fan operations", ("json",), [',
        [f"{GOLDEN}[fan --help]"],
    ),
    (
        "graph declares --depth before --apply",
        CLI,
        '        ("--apply", dict(help="JSON array of blow-up/blow-down steps")),\n'
        '        ("--depth", dict(type=int, default=3, help="witness search depth cap")),\n',
        '        ("--depth", dict(type=int, default=3, help="witness search depth cap")),\n'
        '        ("--apply", dict(help="JSON array of blow-up/blow-down steps")),\n',
        [f"{GOLDEN}[graph --help]"],
    ),
    (
        "--rank takes 3",
        CLI,
        '("--rank", dict(type=int, choices=(1, 2)))',
        '("--rank", dict(type=int, choices=(1, 2, 3)))',
        [f"{GOLDEN}[check-fiber x --rank 3]"],
    ),
    (
        "no command takes --out",
        CLI,
        '        parser.add_argument("--out")\n',
        "",
        [f"{GOLDEN}[catalog --help]"],
    ),
]


# Known equivalent mutants: no test can kill them, because the program's
# output does not change.  Each is (name, module path under ``src/``,
# snippet, replacement, reason), kept so that nobody tries them again;
# they are not run, but a snippet that no longer occurs exactly once is
# reported as stale.
EQUIVALENT = [
    (
        "make_fan refuses more than one cyclic descent instead of any count but one",
        "cypair/lattice_fan.py",
        "for i in range(n)) != 1:",
        "for i in range(n)) > 1:",
        "distinct rays have distinct angles, so a cyclic list of them has at least one descent",
    ),
    (
        "the corner blow-up counts marked points on a graph without any",
        BG,
        "        if g.marked_points and m <= sum(",
        "        if m <= sum(",
        "with no marked point the sum is 0 and every edge has m >= 1 points, so the "
        "comparison is false anyway; the guard only skips the count",
    ),
    (
        "the contraction rebuilds every survivor",
        BG,
        "        if num := gain.get(v.id):",
        "        if (num := gain.get(v.id, 0)) is not None:",
        "a zero correction rebuilds an equal vertex in the same stored form; only time is lost",
    ),
    (
        "weighted_isomorphic drops its early size check",
        BG,
        "    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):\n"
        "        return False\n",
        "",
        "the label check and the matching refuse a pair of another size anyway; the check "
        "saves time: the 225 ordered pairs of graph fixtures took 2.5-2.6 ms with it and "
        "18.3-18.9 ms without (best of 30, three rounds, Python 3.11.7), since four pairs "
        "with equal labels reach the matching without it",
    ),
]

def run_tests(src: Path, nodes: list[str]) -> int | None:
    """pytest's exit code for ``nodes`` run with ``-x`` against ``src``, or
    None when the run is killed after ``TIMEOUT_S`` seconds."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "-o", f"pythonpath={src}", *nodes]
    # no bytecode: a mutant and the restored module may share size and mtime
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return None


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        every_node = sorted({node for *_, nodes in MUTANTS for node in nodes})
        if run_tests(src, every_node) != 0:
            print("the rows' tests fail or time out on the unchanged source; nothing was checked")
            return 1
        stale = 0
        for name, module, snippet, _, _ in EQUIVALENT:
            found = (src / module).read_text().count(snippet)
            if found != 1:
                stale += 1
                print(f"stale: the snippet occurs {found} times in {module} {name} (equivalent row)")
        killed = 0
        for name, module, snippet, replacement, nodes in MUTANTS:
            path = src / module
            original = path.read_text()
            found = original.count(snippet)
            if found != 1:
                status = f"stale: the snippet occurs {found} times in {module}"
            else:
                path.write_text(original.replace(snippet, replacement))
                try:
                    code = run_tests(src, nodes)
                finally:
                    path.write_text(original)
                status = {None: f"timed out after {TIMEOUT_S} s", 0: "SURVIVED",
                          1: "killed"}.get(code, f"broken: pytest exit code {code}")
            killed += status == "killed"
            print(f"{status:10} {name}")
    print(f"{killed} of {len(MUTANTS)} mutants killed, {len(EQUIVALENT) - stale} of "
          f"{len(EQUIVALENT)} equivalent rows current, in {time.perf_counter() - start:.1f} s")
    return 0 if killed == len(MUTANTS) and not stale else 1


if __name__ == "__main__":
    sys.exit(main())
