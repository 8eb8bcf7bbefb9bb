"""The three benchmark workloads: inputs, operations and output checks.

A workload builds all of its inputs from one seed in its constructor.
``ops()`` yields one pass of operations as zero-argument callables, in a
fixed order; the harness times each call.  ``check`` verifies one output
independently of the code under test, ``crash`` names an exception that
escaped the program, and ``canon`` gives the bytes that enter the output
digest.

surgery_stream  crepant blow-up, Calabi-Yau test and blow-down round trip
                on growing graphs: construction, surgery and invariants.
witness_grid    prop51_witness_search on index-one Calabi-Yau graphs:
                search and graph lookups.
cli_corpus      in-process ``cli.run`` calls over fixtures, seeded specs and
                malformed input: parsing, fixtures, atlas, fans and the CLI.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import gen
from cypair import boundary_graph as bg
from cypair import cli
from cypair import fiber_criteria as fc
from cypair import fixtures
from cypair import gdp_atlas as atlas
from cypair import lattice_fan as lf
from cypair.rationals import rational_to_json

WITNESS_CAP = 6  # the CLI default for --cap


def _graph_bytes(g: bg.BoundaryGraph) -> bytes:
    return json.dumps(bg.graph_to_json(g), sort_keys=True).encode()


def _balanced(g: bg.BoundaryGraph) -> bool:
    """Every adjunction residual vanishes, computed from the graph's fields alone."""
    coeff = {v.id: v.coeff for v in g.vertices}
    residual = {v.id: 2 * v.nodes - 2 - v.self_int + v.coeff * v.self_int for v in g.vertices}
    for e in g.edges:
        residual[e.a] += coeff[e.b] * e.multiplicity
        residual[e.b] += coeff[e.a] * e.multiplicity
    return not any(residual.values())


class Mismatch(Exception):
    """The library's own answer disagrees with ``fixtures.EXPECTED``."""


# -- surgery_stream ------------------------------------------------------------


class SurgeryStream:
    """Sequences of random crepant blow-ups, each checked by a blow-down.

    Sequences start from every bundled graph fixture, from random balanced
    seeds and from seeds with a marked point, and run long enough for the
    graphs to grow past twenty vertices.  One operation is one blow-up (at
    a corner, a node or an interior point), ``is_calabi_yau`` on the result
    and a ``blowdown`` of the new curve compared with the graph before.
    A corner whose every point lies at a marked point must be refused.
    """

    name = "surgery_stream"

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        n_balanced, n_marked, steps = (2, 2, 4) if tiny else (16, 8, 20)
        seeds = [fixtures.load_fixture(n) for n in gen.graph_fixture_names()]
        if tiny:
            seeds = seeds[:2]
        seeds += [gen.balanced_seed(rng) for _ in range(n_balanced)]
        seeds += [gen.marked_seed(rng) for _ in range(n_marked)]
        self.sequences = [(g, [rng.randrange(1 << 30) for _ in range(steps)]) for g in seeds]

    def ops(self):
        for g, choices in self.sequences:
            state = [g]
            for r in choices:
                yield lambda state=state, r=r: self._step(state, r)

    @staticmethod
    def _step(state, r):
        g = state[0]
        moves = [("edge", e) for e in g.edges]
        moves += [("node", v.id) for v in g.vertices if v.nodes]
        moves += [("interior", v.id) for v in g.vertices]
        kind, target = moves[r % len(moves)]
        eid = f"X{g.picard_rank + 1}"  # ranks grow by one per step, so this is fresh
        if kind == "edge":
            try:
                g2 = bg.blowup_corner(g, edge=(target.a, target.b), new_id=eid)
            except bg.NoSuchIntersection:
                return ("shielded", g, target)
        elif kind == "node":
            g2 = bg.blowup_corner(g, node=target, new_id=eid)
        else:
            g2 = bg.blowup_interior(g, target, new_id=eid)
        calabi_yau = bg.is_calabi_yau(g2)
        round_trip = bg.blowdown(g2, eid) == g
        state[0] = g2
        return (kind, g2, calabi_yau, round_trip)

    def check(self, i, out):
        if out[0] == "shielded":
            _, g, e = out
            marked = sum(1 for p in g.marked_points if e.a in p.branches and e.b in p.branches)
            return None if e.multiplicity - marked < 1 else "corner refused"
        _, g2, calabi_yau, round_trip = out
        if calabi_yau != _balanced(g2):
            return "calabi-yau verdict"
        if not calabi_yau:
            return "not calabi-yau"
        if not round_trip:
            return "blowdown round trip"
        return None

    crash = staticmethod(lambda out: None)

    def canon(self, out):
        if out[0] == "shielded":
            return f"shielded {out[2].a} {out[2].b}".encode()
        return f"{out[0]} {out[2]} {out[3]} ".encode() + _graph_bytes(out[1])


# -- witness_grid --------------------------------------------------------------


class WitnessGrid:
    """``prop51_witness_search`` with cap 6 on index-one Calabi-Yau graphs.

    Each class is split into inputs that have a witness and inputs that do
    not, by rules verified exhaustively over the generated ranges, so that
    every seed has the same mix of cheap hits and exhaustive misses:

    - a nodal curve of self-intersection s: a witness at depth >= 2 iff s >= 5;
    - two curves meeting twice, self-intersections a >= b: a witness at
      depth >= 1 iff a >= 1;
    - a cycle of 3 or 4 curves with self-intersections in [-4, 0]: a witness
      at depth 0 iff some curve has self-intersection 0; none up to depth 2
      (3-cycles in [-4, -1]) or at depth 0 (4-cycles in [-4, -2]) otherwise.

    ``ex62.graph`` and ``ex63.graph`` run at depths 0-4; every coefficient-one
    fixture also runs at the CLI default depth 3 against ``fixtures.EXPECTED``.

    The counts are fixed so that the median falls among the nodal misses at
    depth 3 and the 90th percentile among the two-curve misses at depth 3
    (hence the extra two-curve misses run at depth 3 only): searches there
    cost the same whatever the self-intersections, so the percentiles do
    not jump with the seed.
    """

    name = "witness_grid"
    NODAL_MISS, NODAL_HIT, PAIR_MISS, PAIR_HIT, PAIR_MISS_DEPTH3 = 12, 6, 4, 3, 7

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        nodal_miss, nodal_hit, pair_miss, pair_hit, pair_miss_d3 = (1, 1, 1, 1, 1) if tiny else (
            self.NODAL_MISS, self.NODAL_HIT, self.PAIR_MISS, self.PAIR_HIT, self.PAIR_MISS_DEPTH3)
        items = []  # (graph, depth, expected verdict or None, fixture name or None)
        nodal = [rng.randint(-4, 4) for _ in range(nodal_miss)]
        nodal += [rng.randint(5, 11) for _ in range(nodal_hit)]
        for s in nodal:
            items += [(gen.nodal_curve(s), d, s >= 5 and d >= 2, None) for d in range(5)]
        pairs = [(a, rng.randint(-4, a)) for a in [rng.randint(-4, 0) for _ in range(pair_miss)]]
        pairs += [(a, rng.randint(-4, a)) for a in [rng.randint(1, 3) for _ in range(pair_hit)]]
        for a, b in pairs:
            items += [(gen.two_curves(a, b), d, a >= 1 and d >= 1, None) for d in range(5)]
        for a in [rng.randint(-4, 0) for _ in range(pair_miss_d3)]:
            items.append((gen.two_curves(a, rng.randint(-4, a)), 3, False, None))
        for name, a in (("ex62.graph", 0), ("ex63.graph", 1)):
            g = fixtures.load_fixture(name)
            items += [(g, d, a >= 1 and d >= 1, name) for d in range(5)]
        if not tiny:
            for name in gen.graph_fixture_names():
                exp = fixtures.EXPECTED[name]
                if "witness" in exp and name not in ("ex62.graph", "ex63.graph"):
                    items.append((fixtures.load_fixture(name), 3, exp["witness"], name))
            for _ in range(2):
                with_zero = [0] + [rng.randint(-4, 0) for _ in range(2)]
                rng.shuffle(with_zero)
                items += [(gen.curve_cycle(with_zero), d, True, None) for d in range(3)]
                negative = [rng.randint(-4, -1) for _ in range(3)]
                items += [(gen.curve_cycle(negative), d, False, None) for d in range(3)]
                with_zero = [0] + [rng.randint(-4, 0) for _ in range(3)]
                rng.shuffle(with_zero)
                items += [(gen.curve_cycle(with_zero), d, True, None) for d in range(2)]
                negative = [rng.randint(-4, -2) for _ in range(4)]
                items.append((gen.curve_cycle(negative), 0, False, None))
        self.items = items

    def ops(self):
        for g, depth, _, _ in self.items:
            yield lambda g=g, depth=depth: fc.prop51_witness_search(g, depth, WITNESS_CAP)

    def check(self, i, w):
        g, depth, expected, name = self.items[i]
        if expected is not None and (w is not None) != expected:
            return "fixture verdict" if name else "verdict"
        if w is None:
            return None
        if len(w.script) > depth:
            return "script too long"
        h = g
        for step in w.script:
            if step[0] == "edge":
                h = bg.blowup_corner(h, edge=(step[1], step[2]))
            else:
                h = bg.blowup_corner(h, node=step[1])
        m = w.divisor
        original = set(g.ids())
        if not set(m) <= original or not any(m.values()):
            return "divisor support"
        if any(not 0 <= v <= WITNESS_CAP for v in m.values()):
            return "divisor multiplicity"
        sq = {v.id: v.self_int for v in h.vertices}
        total = sum(mv * mv * sq[vid] for vid, mv in m.items())
        for e in h.edges:
            total += 2 * m.get(e.a, 0) * m.get(e.b, 0) * e.multiplicity
        if total < 0:
            return "divisor square"
        node = w.node
        if node[0] == "edge":
            ok = any((e.a, e.b) == tuple(sorted(node[1:])) for e in h.edges)
            ok = ok and m.get(node[1], 0) == 0 and m.get(node[2], 0) == 0
        else:
            ok = any(v.id == node[1] and v.nodes >= 1 for v in h.vertices) and m.get(node[1], 0) == 0
        return None if ok else "node in support"

    crash = staticmethod(lambda out: None)

    def canon(self, w):
        if w is None:
            return b"none"
        return repr((w.script, sorted(w.divisor.items()), w.node)).encode()


# -- cli_corpus ----------------------------------------------------------------


def cli_call(argv):
    """One in-process CLI invocation: (exit code, stdout, stderr, escaped exception)."""
    out, err = io.StringIO(), io.StringIO()
    crash = None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.run(argv)
        except Exception as exc:  # an escaped exception is exit code 1 with a traceback
            rc, crash = 1, type(exc).__name__
    return rc, out.getvalue(), err.getvalue(), crash


def _dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True) + "\n"


def _graph_payload(g, op, depth):
    """What ``cypair graph --op OP`` prints, from direct library calls."""
    if op == "validate-cy":
        residuals = bg.validate_cy(g)
        return {"residuals": {vid: rational_to_json(r) for vid, r in residuals},
                "calabi_yau": all(r == 0 for _, r in residuals)}
    if op == "complexity":
        return {"complexity": rational_to_json(bg.complexity(g))}
    if op == "coregularity":
        return {"coregularity": bg.coregularity(g)}
    if op == "index-integral":
        return {"index_integral": bg.index_integral(g)}
    if op == "contract-chains":
        res = bg.contract_minus2_chains(g)
        return {"marks": [f"A{k}" for k in res.mark_ranks], "rho": res.singular.picard_rank,
                "graph": bg.graph_to_json(res.singular)}
    if op == "witness":
        w = fc.prop51_witness_search(g, max_blowups=depth, coeff_cap=WITNESS_CAP)
        if w is None:
            return {"witness": None}
        return {"witness": {"script": [list(s) for s in w.script], "divisor": w.divisor,
                            "node": list(w.node)}}
    raise ValueError(op)


def _apply(g, script):
    for step in script:
        if step["op"] == "blowup_corner" and "edge" in step:
            g = bg.blowup_corner(g, edge=tuple(step["edge"]))
        elif step["op"] == "blowup_corner":
            g = bg.blowup_corner(g, node=step["node"])
        elif step["op"] == "blowup_interior":
            g = bg.blowup_interior(g, step["vertex"])
        else:
            g = bg.blowdown(g, step["vertex"])
    return g


def _is_smooth(rays) -> bool:
    n = len(rays)
    return all(
        rays[i][0] * rays[(i + 1) % n][1] - rays[i][1] * rays[(i + 1) % n][0] == 1
        for i in range(n)
    )


def _resolve_ok(rays, out) -> bool:
    """Smooth, keeps every original ray, and inserts no (-1)-ray (minimal)."""
    if not _is_smooth(out) or not all(r in out for r in rays):
        return False
    n = len(out)
    for i, u in enumerate(out):
        if u in rays:
            continue
        s = [out[i - 1][j] + out[(i + 1) % n][j] for j in (0, 1)]
        # u_{i-1} + u_{i+1} = -c u_i with c the self-intersection; c = -1 is not minimal
        if s == [u[0], u[1]]:
            return False
    return True


class CliCorpus:
    """In-process ``cli.run`` calls, stdout and stderr captured.

    Every fixture with every applicable op (witness at depth <= 2); seeded
    ``classify``, ``decide-pair`` (all five cases and "infeasible") and
    ``check-fiber`` calls; fan ops including ``resolve`` on random singular
    fans; ``graph --apply`` surgery scripts; and a fixed share of malformed
    specs, among them the known crashers in ``gen.KNOWN_CRASHERS``.
    """

    name = "cli_corpus"

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        rng = random.Random(seed)
        cases = []  # (argv, what the check needs)
        names = fixtures.fixture_names()
        if tiny:
            names = ["ex62.graph", "ex62.pic1", "p123.fan"]
        for name in names:
            kind = fixtures.fixture_kind(name)
            cases.append((["fixture", name], ("ok",)))
            if kind == "graph":
                cases.append((["fixture", name, "--format", "dot"], ("dot", name)))
                for op in ("validate-cy", "complexity", "coregularity", "index-integral", "contract-chains"):
                    cases.append((["graph", f"fixture:{name}", "--op", op], ("graph", name, None, op, 0)))
                for d in range(3):
                    cases.append((["graph", f"fixture:{name}", "--op", "witness", "--depth", str(d)],
                                  ("graph", name, None, "witness", d)))
            elif kind == "fiber":
                cases.append((["check-fiber", f"fixture:{name}"], ("fixture_fiber", name)))
            else:
                for op in ("validate", "smooth", "self-intersections", "complexity", "resolve"):
                    cases.append((["fan", f"fixture:{name}", "--op", op], ("fan", name, op, None)))
                exp = fixtures.EXPECTED[name]
                forms = {"1,1"} | {
                    ",".join(map(str, exp[k])) for k in ("projects_along", "needs_subdivision_for") if k in exp
                }
                for form in sorted(forms):
                    for op in ("project", "prepare-projection"):
                        cases.append((["fan", f"fixture:{name}", "--op", op, "--form", form],
                                      ("fan", name, op, form)))
        cases += [(["fixture", "--list"], ("ok",)), (["catalog"], ("ok",)),
                  (["catalog", "--format", "text"], ("ok",))]
        # few seeded calls: a short pass gives each call more passes in which to
        # catch the host at full speed (see worker.run_timed)
        for _ in range(6):
            s = gen.random_singularities(rng)
            cases.append((["classify", s], ("classify", s)))
        for case in (1, 2, 3, 4, 5, "infeasible"):
            spec = gen.pair_spec(rng, case)
            cases.append((["decide-pair", json.dumps(spec)], ("decide_pair", spec)))
        for _ in range(4):
            spec = gen.fiber_spec(rng)
            argv = ["check-fiber", json.dumps(spec)]
            if rng.random() < 0.3:
                argv += ["--rank", str(rng.randint(1, 2))]
            cases.append((argv, ("check_fiber", spec, argv)))
        for i in range(5):
            rays = gen.random_fan(rng, singular=i % 3 != 2)
            spec = json.dumps(rays)
            cases.append((["fan", spec, "--op", "resolve"], ("resolve", rays)))
            op = rng.choice(["validate", "smooth", "self-intersections", "project", "prepare-projection"])
            argv = ["fan", spec, "--op", op]
            form = None
            if op in ("project", "prepare-projection"):
                form = f"{rng.randint(-2, 2)},{rng.randint(1, 2)}"
                argv.append(f"--form={form}")  # "=" keeps argparse from reading "-1,2" as a flag
            cases.append((argv, ("fan", rays, op, form)))
        graph_names = gen.graph_fixture_names()
        for _ in range(5):
            if rng.randrange(2):
                src = rng.choice(graph_names)
                g, spec = fixtures.load_fixture(src), f"fixture:{src}"
            else:
                g = gen.balanced_seed(rng)
                spec = json.dumps(bg.graph_to_json(g))
            script = gen.surgery_script(rng, g, rng.randint(1, 4))
            op = rng.choice(["validate-cy", "complexity", "coregularity", "contract-chains", "dot"])
            argv = ["graph", spec, "--apply", json.dumps(script), "--op", op]
            cases.append((argv, ("graph", None, (g, script), op, 0)))
        for _ in range(5):
            cases.append((gen.malformed_argv(rng), ("malformed",)))
        self.known_crashers = {}
        for name, make in gen.KNOWN_CRASHERS.items():
            if make is None:
                path = workdir / "not-utf8.json"
                path.write_bytes(b'{"rank": 1, "volume": "\xff\xfe"}')
                argv = ["check-fiber", str(path)]
            else:
                argv = make(rng)
            self.known_crashers[len(cases)] = name
            cases.append((argv, ("known_crasher", name)))
        self.cases = cases

    def ops(self):
        for argv, _ in self.cases:
            yield lambda argv=argv: cli_call(argv)

    def crash(self, out):
        return out[3]

    def check(self, i, out):
        rc, stdout, stderr, crash = out
        _, what = self.cases[i]
        kind = what[0]
        if kind == "known_crasher":
            return None if crash or rc in (2, 3) else f"exit {rc}"
        if crash:
            return f"crash {crash}"
        if rc not in (0, 2, 3):
            return f"exit {rc}"
        if kind == "malformed":
            return None if rc in (2, 3) and not stdout else "malformed accepted"
        if kind == "fixture_fiber" and "error" in fixtures.EXPECTED[what[1]]:
            error = fixtures.EXPECTED[what[1]]["error"]
            return None if rc == 3 and error in stderr and not stdout else "fixture verdict"
        try:
            expected = self._expected(what)
        except Mismatch as exc:
            return f"fixture verdict: {exc}"
        except (bg.GraphError, fc.FiberError, lf.FanError, atlas.AtlasError) as exc:
            # the library refuses the input, so the CLI must exit 2 or 3
            return None if rc in (2, 3) and not stdout else f"accepted: {type(exc).__name__}"
        if expected is None:
            return None if rc == 0 and stdout else f"exit {rc}"
        if rc != 0:
            return f"exit {rc}"
        if isinstance(expected, str):
            return None if stdout == expected else "stdout"
        return None if json.loads(stdout) == expected else "stdout"

    def _expected(self, what):
        """Expected stdout (a str) or parsed JSON (a dict); None when only exit 0 is checked.

        Raises the library's own error when the input is refused.
        """
        kind = what[0]
        if kind == "ok":
            return None
        if kind == "dot":
            return cli.emit_dot(fixtures.load_fixture(what[1]))
        if kind == "classify":
            sings = atlas.parse_singularities(what[1])
            v = atlas.classify_surface(sings)
            return _dumps({"cluster_type": v.cluster_type, "volume": atlas.volume_of(sings),
                           "singularities": atlas.format_singularities(sings), "reason": v.reason})
        if kind == "decide_pair":
            spec = what[1]
            b = spec["boundary"]
            if b["kind"] == "multi_component":
                ranks = b.get("ranks")
                boundary = atlas.MultiComponent(int(b.get("k", 2)), tuple(ranks) if ranks else None)
            elif b["kind"] == "nodal_smooth_locus":
                boundary = atlas.NodalSmoothLocus()
            else:
                boundary = atlas.NodalAtA(int(b["n"]))
            v = atlas.decide_pair(atlas.PairSpec.build(atlas.parse_singularities(spec["singularities"]), boundary))
            return _dumps({"cluster_type": v.cluster_type, "case": v.case, "volume": v.volume,
                           "reason": v.reason})
        if kind == "check_fiber":
            _, spec, argv = what
            f = fc.fiber_from_json(spec)
            if "--rank" in argv and int(argv[-1]) != f.rel_picard_rank:
                raise fc.FiberError("rank mismatch")
            v = fc.check_pic1(f) if f.rel_picard_rank == 1 else fc.check_pic2(f)
            return _dumps({"cluster_type": v.cluster_type, "failed_conditions": list(v.failed_conditions),
                           "rank": f.rel_picard_rank})
        if kind == "fixture_fiber":
            exp = fixtures.EXPECTED[what[1]]
            rank = fixtures.load_fixture(what[1]).rel_picard_rank
            return _dumps({"cluster_type": exp["cluster_type"],
                           "failed_conditions": exp["failed_conditions"], "rank": rank})
        if kind == "graph":
            _, name, scripted, op, depth = what
            g = fixtures.load_fixture(name) if name else _apply(*scripted)
            if op == "dot":
                return cli.emit_dot(g)
            payload = _graph_payload(g, op, depth)
            exp = fixtures.EXPECTED.get(name, {})
            for key, field in (("calabi_yau", "calabi_yau"), ("coregularity", "coregularity"),
                               ("index_integral", "index_integral")):
                if key in exp and field in payload and payload[field] != exp[key]:
                    raise Mismatch(f"{name}: {key} disagrees with fixtures.EXPECTED")
            if "complexity" in exp and "complexity" in payload and payload["complexity"] != exp["complexity"]:
                raise Mismatch(f"{name}: complexity disagrees with fixtures.EXPECTED")
            if "chains" in exp and "marks" in payload and payload["marks"] != [f"A{k}" for k in exp["chains"]]:
                raise Mismatch(f"{name}: chains disagree with fixtures.EXPECTED")
            return payload
        if kind == "resolve":
            rays = what[1]
            out = [[u.x, u.y] for u in lf.resolve(lf.make_fan(rays)).rays]
            if not _resolve_ok(rays, out):
                raise Mismatch("resolve reference is not a minimal resolution")
            return {"rays": out}
        if kind == "fan":
            _, src, op, form = what
            fan = fixtures.load_fixture(src) if isinstance(src, str) else lf.make_fan(src)
            exp = fixtures.EXPECTED.get(src, {}) if isinstance(src, str) else {}
            return self._fan_payload(fan, op, form, exp)
        raise ValueError(kind)

    @staticmethod
    def _fan_payload(fan, op, form, exp):
        pair = tuple(int(t) for t in form.split(",")) if form else None
        if op == "validate":
            return {"rays": lf.fan_to_json(fan)}
        if op == "smooth":
            smooth = lf.is_smooth(fan)
            if "smooth" in exp and smooth != exp["smooth"]:
                raise Mismatch("smooth disagrees with fixtures.EXPECTED")
            return {"smooth": smooth}
        if op == "self-intersections":
            si = lf.self_intersections(fan)
            if "self_intersections" in exp and si != exp["self_intersections"]:
                raise Mismatch("self-intersections disagree with fixtures.EXPECTED")
            return {"self_intersections": si}
        if op == "complexity":
            return {"complexity": rational_to_json(lf.toric_pair_complexity(fan))}
        if op == "resolve":
            rays = lf.fan_to_json(lf.resolve(fan))
            if "resolved_rays" in exp and len(rays) != exp["resolved_rays"]:
                raise Mismatch("resolve disagrees with fixtures.EXPECTED")
            return {"rays": rays}
        if op == "project":
            if exp.get("needs_subdivision_for") == list(pair):
                lf.p1_projection(fan, pair)  # must raise NoToricMorphism
                raise Mismatch("projection should need a subdivision")
            try:
                data = lf.p1_projection(fan, pair)
            except lf.NoToricMorphism:
                if exp.get("projects_along") == list(pair):
                    raise Mismatch("projection should exist") from None
                raise
            return {"vertical_rays": list(data.vertical_rays),
                    "fiber_over_zero": [list(t) for t in data.fiber_over_zero],
                    "fiber_over_infinity": [list(t) for t in data.fiber_over_infinity]}
        return {"rays": lf.fan_to_json(lf.subdivide_for_projection(fan, pair))}

    def canon(self, out):
        rc, stdout, stderr, crash = out
        return f"{rc} {crash}\n{stdout}\n{stderr}".encode()


WORKLOADS = {w.name: w for w in (SurgeryStream, WitnessGrid, CliCorpus)}
