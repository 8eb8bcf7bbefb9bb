"""Command-line front end.

Subcommands: ``classify`` (singularity string), ``decide-pair`` (pair
JSON), ``check-fiber`` (fiber JSON), ``graph`` (graph JSON plus an
operation), ``fan`` (fan JSON plus an operation), ``catalog`` and
``fixture``.  Verdicts are printed as JSON on stdout; DOT output goes to
``--out`` when given.  Exit codes: 0 for any computed verdict (including a
negative one), 2 for input validation failures, 3 for precondition errors
raised by the computation modules.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import boundary_graph as bgm
from . import fiber_criteria as fc
from . import fixtures
from . import gdp_atlas as atlas
from . import lattice_fan as lf
from .rationals import rational_to_json


class CliInputError(Exception):
    pass


# -- DOT -----------------------------------------------------------------


def _style(v: bgm.CurveVertex) -> str:
    if v.self_int == -2 and v.coeff == 1:
        return "solid"
    if v.self_int == -1:
        return "dashed"
    if v.coeff == 1:
        return "bold"
    return "dotted"


def emit_dot(g: bgm.BoundaryGraph) -> str:
    """Deterministic DOT rendering of a dual graph.

    Vertices are sorted by id and labelled "id (sq)"; (-2)-curves with
    coefficient one are solid, (-1)-curves dashed, other coefficient-one
    curves bold and everything else dotted.  Edge labels carry the
    multiplicities.  Equal graphs produce byte-identical output.
    """
    lines = ["graph boundary {"]
    for v in sorted(g.vertices, key=lambda v: v.id):
        label = f"{v.id} ({rational_to_json(v.self_int)})"
        lines.append(f'  "{v.id}" [label="{label}" style={_style(v)}];')
    for e in sorted(g.edges):
        lines.append(f'  "{e.a}" -- "{e.b}" [label={e.multiplicity}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- input plumbing ---------------------------------------------------------


def _read_spec(text: str):
    """Resolve a SPEC argument: '-', inline JSON, 'fixture:NAME' or a path."""
    if text == "-":
        return json.loads(sys.stdin.read())
    if text.startswith("fixture:"):
        return fixtures.load_fixture(text[len("fixture:"):])
    stripped = text.strip()
    if stripped.startswith("{") or stripped.startswith("["):
        return json.loads(stripped)
    try:
        with open(text, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliInputError(f"cannot read spec {text!r}: {exc}") from exc


def _read_value(text: str, cls, from_json, error):
    """Resolve a SPEC argument to a ``cls`` value.

    A fixture of that type is returned as is; anything else goes through
    ``from_json``, whose ``error`` becomes an input error.
    """
    spec = _read_spec(text)
    if isinstance(spec, cls):
        return spec
    try:
        return from_json(spec)
    except error as exc:
        raise CliInputError(str(exc)) from exc


def _emit(payload, args) -> None:
    if args.format == "text":
        lines = []
        for key in sorted(payload):
            value = payload[key]
            if not isinstance(value, (str, int, float, bool, type(None))):
                value = json.dumps(value, sort_keys=True)
            lines.append(f"{key}: {value}")
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(payload, sort_keys=True) + "\n"
    _write(text, args)


def _write(text: str, args) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- subcommands -------------------------------------------------------------


def _cmd_classify(args) -> int:
    try:
        sings = atlas.parse_singularities(args.singularities)
    except atlas.AtlasError as exc:
        raise CliInputError(str(exc)) from exc
    verdict = atlas.classify_surface(sings)
    _emit(
        {
            "cluster_type": verdict.cluster_type,
            "volume": atlas.volume_of(sings),
            "singularities": atlas.format_singularities(sings),
            "reason": verdict.reason,
        },
        args,
    )
    return 0


def _boundary_from_json(data) -> object:
    if not isinstance(data, dict) or "kind" not in data:
        raise CliInputError("boundary needs a 'kind' field")
    kind = data["kind"]
    if kind == "multi_component":
        ranks = data.get("ranks")
        return atlas.MultiComponent(int(data.get("k", 2)), tuple(ranks) if ranks else None)
    if kind == "nodal_smooth_locus":
        return atlas.NodalSmoothLocus()
    if kind == "nodal_at_A":
        return atlas.NodalAtA(int(data["n"]))
    raise CliInputError(f"unknown boundary kind {kind!r}")


def _cmd_decide_pair(args) -> int:
    data = _read_spec(args.spec)
    try:
        sings = atlas.parse_singularities(data["singularities"])
        boundary = _boundary_from_json(data["boundary"])
        spec = atlas.PairSpec.build(sings, boundary)
    except (KeyError, TypeError, atlas.AtlasError) as exc:
        raise CliInputError(f"bad pair spec: {exc}") from exc
    verdict = atlas.decide_pair(spec)
    _emit(
        {
            "cluster_type": verdict.cluster_type,
            "case": verdict.case,
            "volume": verdict.volume,
            "reason": verdict.reason,
        },
        args,
    )
    return 0


def _cmd_check_fiber(args) -> int:
    fiber = _read_value(args.spec, fc.FiberSpec, fc.fiber_from_json, fc.FiberError)
    if args.rank is not None and args.rank != fiber.rel_picard_rank:
        raise CliInputError(
            f"--rank {args.rank} disagrees with the spec's rank {fiber.rel_picard_rank}"
        )
    verdict = fc.check_pic1(fiber) if fiber.rel_picard_rank == 1 else fc.check_pic2(fiber)
    _emit(
        {
            "cluster_type": verdict.cluster_type,
            "failed_conditions": list(verdict.failed_conditions),
            "rank": fiber.rel_picard_rank,
        },
        args,
    )
    return 0


_GRAPH_OPS = (
    "validate-cy", "complexity", "coregularity", "index-integral",
    "contract-chains", "witness", "dot",
)


def _apply_script(g: bgm.BoundaryGraph, script) -> bgm.BoundaryGraph:
    if not isinstance(script, list):
        raise CliInputError("--apply takes a JSON array of steps")
    for step in script:
        if not isinstance(step, dict):
            raise CliInputError(f"script step must be an object, got {step!r}")
        op = step.get("op")
        if op == "blowup_corner" and "edge" in step:
            edge = step["edge"]
            if not (isinstance(edge, list) and len(edge) == 2
                    and all(isinstance(vid, str) for vid in edge)):
                raise CliInputError(
                    f"blowup_corner edge must be an array of two vertex ids, got {edge!r}"
                )
            g = bgm.blowup_corner(g, edge=tuple(edge))
        elif op == "blowup_corner" and "node" in step:
            g = bgm.blowup_corner(g, node=step["node"])
        elif op == "blowup_interior":
            g = bgm.blowup_interior(g, step["vertex"])
        elif op == "blowdown":
            g = bgm.blowdown(g, step["vertex"])
        else:
            raise CliInputError(f"unknown script step {step!r}")
    return g


def _cmd_graph(args) -> int:
    g = _read_value(args.spec, bgm.BoundaryGraph, bgm.graph_from_json, bgm.GraphError)
    if args.apply:
        g = _apply_script(g, json.loads(args.apply))
    op = "dot" if args.format == "dot" else args.op
    if op == "validate-cy":
        residuals = bgm.validate_cy(g)
        _emit(
            {
                "residuals": {vid: rational_to_json(r) for vid, r in residuals},
                "calabi_yau": all(r == 0 for _, r in residuals),
            },
            args,
        )
    elif op == "complexity":
        _emit({"complexity": rational_to_json(bgm.complexity(g))}, args)
    elif op == "coregularity":
        _emit({"coregularity": bgm.coregularity(g)}, args)
    elif op == "index-integral":
        _emit({"index_integral": bgm.index_integral(g)}, args)
    elif op == "contract-chains":
        res = bgm.contract_minus2_chains(g)
        _emit(
            {
                "marks": [f"A{k}" for k in res.mark_ranks],
                "rho": res.singular.picard_rank,
                "graph": bgm.graph_to_json(res.singular),
            },
            args,
        )
    elif op == "witness":
        w = fc.prop51_witness_search(g, max_blowups=args.depth, coeff_cap=args.cap)
        if w is None:
            _emit({"witness": None}, args)
        else:
            _emit(
                {
                    "witness": {
                        "script": [list(s) for s in w.script],
                        "divisor": w.divisor,
                        "node": list(w.node),
                    }
                },
                args,
            )
    elif op == "dot":
        _write(emit_dot(g), args)
    else:
        _emit({"graph": bgm.graph_to_json(g)}, args)
    return 0


_FAN_OPS = (
    "validate", "smooth", "self-intersections", "complexity",
    "resolve", "subdivide", "project", "prepare-projection",
)


def _parse_pair(text: str, what: str) -> tuple[int, int]:
    try:
        x, y = (int(t) for t in text.split(","))
    except ValueError as exc:
        raise CliInputError(f"{what} must look like 'x,y'") from exc
    return x, y


def _cmd_fan(args) -> int:
    fan = _read_value(args.spec, lf.Fan2, lf.fan_from_json, lf.FanError)
    op = args.op
    if op == "validate":
        _emit({"rays": lf.fan_to_json(fan)}, args)
    elif op == "smooth":
        _emit({"smooth": lf.is_smooth(fan)}, args)
    elif op == "self-intersections":
        _emit({"self_intersections": lf.self_intersections(fan)}, args)
    elif op == "complexity":
        _emit({"complexity": rational_to_json(lf.toric_pair_complexity(fan))}, args)
    elif op == "resolve":
        _emit({"rays": lf.fan_to_json(lf.resolve(fan))}, args)
    elif op == "subdivide":
        if not args.ray:
            raise CliInputError("subdivide needs --ray x,y")
        _emit({"rays": lf.fan_to_json(lf.star_subdivide(fan, _parse_pair(args.ray, "--ray")))}, args)
    elif op == "project":
        if not args.form:
            raise CliInputError("project needs --form a,b")
        data = lf.p1_projection(fan, _parse_pair(args.form, "--form"))
        _emit(
            {
                "vertical_rays": list(data.vertical_rays),
                "fiber_over_zero": [list(t) for t in data.fiber_over_zero],
                "fiber_over_infinity": [list(t) for t in data.fiber_over_infinity],
            },
            args,
        )
    elif op == "prepare-projection":
        if not args.form:
            raise CliInputError("prepare-projection needs --form a,b")
        _emit({"rays": lf.fan_to_json(lf.subdivide_for_projection(fan, _parse_pair(args.form, "--form")))}, args)
    return 0


def _cmd_catalog(args) -> int:
    rows = [
        {
            "singularities": fam.name,
            "volume": fam.volume,
            "toric": fam.toric,
            "cluster_type": fam.cluster_type,
            "has_resolution_graph": fam.resolution_graph is not None,
        }
        for fam in atlas.catalog()
    ]
    _emit({"families": rows, "count": len(rows)}, args)
    return 0


def _cmd_fixture(args) -> int:
    if args.list:
        _emit({"fixtures": fixtures.fixture_names()}, args)
        return 0
    if not args.name:
        raise CliInputError("pass a fixture name or --list")
    try:
        obj = fixtures.load_fixture(args.name)
    except fixtures.UnknownFixture as exc:
        raise CliInputError(f"UnknownFixture: {exc}") from exc
    if isinstance(obj, bgm.BoundaryGraph):
        if args.format == "dot":
            _write(emit_dot(obj), args)
        else:
            _emit({"kind": "graph", "graph": bgm.graph_to_json(obj)}, args)
    elif isinstance(obj, fc.FiberSpec):
        _emit({"kind": "fiber", "fiber": fc.fiber_to_json(obj)}, args)
    else:
        _emit({"kind": "fan", "rays": lf.fan_to_json(obj)}, args)
    return 0


# -- dispatch -----------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``cypair`` parser, built on the first ``run`` and then shared.

    Building it costs far more than parsing a command line; parsing does
    not change it, and every ``parse_args`` returns a fresh namespace.
    """
    p = argparse.ArgumentParser(
        prog="cypair",
        description="Exact decision procedures for log Calabi-Yau surface pairs",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="cluster-type verdict for a singularity string")
    c.add_argument("singularities", help='e.g. "A1+A2+A5", "4A2", "smooth"')
    c.set_defaults(func=_cmd_classify)

    d = sub.add_parser("decide-pair", help="five-case decision for a pair spec")
    d.add_argument("spec", help="JSON file, inline JSON, '-' or fixture:NAME")
    d.set_defaults(func=_cmd_decide_pair)

    f = sub.add_parser("check-fiber", help="standard-model fiber criteria")
    f.add_argument("spec", help="fiber JSON file, inline JSON, '-' or fixture:NAME")
    f.add_argument("--rank", type=int, choices=(1, 2))
    f.set_defaults(func=_cmd_check_fiber)

    g = sub.add_parser("graph", help="dual-graph operations")
    g.add_argument("spec", help="graph JSON file, inline JSON, '-' or fixture:NAME")
    g.add_argument("--op", choices=_GRAPH_OPS, default="validate-cy")
    g.add_argument("--apply", help="JSON array of blow-up/blow-down steps")
    g.add_argument("--depth", type=int, default=3, help="witness search depth cap")
    g.add_argument("--cap", type=int, default=6, help="witness divisor coefficient cap")
    g.set_defaults(func=_cmd_graph)

    n = sub.add_parser("fan", help="complete-fan operations")
    n.add_argument("spec", help="fan JSON file, inline JSON, '-' or fixture:NAME")
    n.add_argument("--op", choices=_FAN_OPS, default="validate")
    n.add_argument("--ray", help="x,y for subdivide")
    n.add_argument("--form", help="a,b for project / prepare-projection")
    n.set_defaults(func=_cmd_fan)

    t = sub.add_parser("catalog", help="list the sixteen rank-one A-type families")
    t.set_defaults(func=_cmd_catalog)

    x = sub.add_parser("fixture", help="dump a bundled fixture")
    x.add_argument("name", nargs="?")
    x.add_argument("--list", action="store_true")
    x.set_defaults(func=_cmd_fixture)

    for name, parser in sub.choices.items():
        formats = ("json", "dot", "text") if name in ("graph", "fixture") else ("json", "text")
        parser.add_argument("--format", choices=formats, default="json")
        parser.add_argument("--out")
    return p


_INPUT_ERRORS = (
    CliInputError,
    json.JSONDecodeError,
    fixtures.UnknownFixture,
)

_MODULE_ERRORS = (
    lf.FanError,
    bgm.GraphError,
    fc.FiberError,
    atlas.AtlasError,
)


def run(argv=None) -> int:
    """Parse argv, dispatch, and map errors to exit codes (2 input, 3 module)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _MODULE_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
