"""Command-line front end.

Subcommands: ``classify`` (singularity string), ``decide-pair`` (pair
JSON), ``check-fiber`` (fiber JSON), ``graph`` (graph JSON plus an
operation), ``fan`` (fan JSON plus an operation), ``catalog`` and
``fixture``.  Each handler returns its payload and ``run`` writes it once,
as JSON (or ``--format text``/``dot``) on stdout or to ``--out``.  Exit
codes: 0 for any computed verdict (including a negative one), 2 for input
validation failures, 3 for precondition errors raised by the computation
modules.
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


def _json(text: str):
    """``json.loads``, with any ``ValueError`` it raises as an input error:
    a decode error, or an integer literal past CPython's digit limit."""
    try:
        return json.loads(text)
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc


def _read_spec(text: str):
    """Resolve a SPEC argument: '-', inline JSON, 'fixture:NAME' or a path."""
    if text == "-":
        return _json(sys.stdin.read())
    if text.startswith("fixture:"):
        return fixtures.load_fixture(text[len("fixture:"):])
    stripped = text.strip()
    if stripped.startswith("{") or stripped.startswith("["):
        return _json(stripped)
    try:
        with open(text, "r", encoding="utf-8") as fh:
            source = fh.read()
    except OSError as exc:
        raise CliInputError(f"cannot read spec {text!r}: {exc}") from exc
    return _json(source)


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
    """The one writer: a dict as JSON or text, a ``str`` (DOT) as is, to stdout or ``--out``."""
    if isinstance(payload, str):
        text = payload
    elif args.format == "text":
        lines = []
        for key in sorted(payload):
            value = payload[key]
            if not isinstance(value, (str, int, float, bool, type(None))):
                value = json.dumps(value, sort_keys=True)
            lines.append(f"{key}: {value}")
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(payload, sort_keys=True) + "\n"
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliInputError(f"cannot write --out {args.out!r}: {exc}") from exc


# -- subcommands: each returns its payload -----------------------------------


def _cmd_classify(args) -> dict:
    try:
        sings = atlas.parse_singularities(args.singularities)
    except atlas.AtlasError as exc:
        raise CliInputError(str(exc)) from exc
    verdict = atlas.classify_surface(sings)
    return {
        "cluster_type": verdict.cluster_type,
        "volume": atlas.volume_of(sings),
        "singularities": atlas.format_singularities(sings),
        "reason": verdict.reason,
    }


def _boundary_from_json(data) -> object:
    if not isinstance(data, dict) or "kind" not in data:
        raise CliInputError("boundary needs a 'kind' field")
    kind = data["kind"]
    if kind == "multi_component":
        k, ranks = data.get("k", 2), data.get("ranks")
        if isinstance(k, (bool, float)):
            raise CliInputError(f"boundary k must be an integer, got {k!r}")
        if ranks is not None and not isinstance(ranks, list):
            raise CliInputError(f"boundary ranks must be an array, got {ranks!r}")
        return atlas.MultiComponent(int(k), None if ranks is None else tuple(ranks))
    if kind == "nodal_smooth_locus":
        return atlas.NodalSmoothLocus()
    if kind == "nodal_at_A":
        n = data["n"]
        if type(n) is not int:
            raise CliInputError(f"boundary n must be an integer, got {n!r}")
        return atlas.NodalAtA(n)
    raise CliInputError(f"unknown boundary kind {kind!r}")


def _cmd_decide_pair(args) -> dict:
    data = _read_spec(args.spec)
    if isinstance(data, tuple):
        # a fixture value (no fixture holds a pair spec): name its type
        # rather than fail below on tuple indices
        raise CliInputError(f"bad pair spec: {type(data).__name__!r} object is not subscriptable")
    try:
        sings = atlas.parse_singularities(data["singularities"])
        boundary = _boundary_from_json(data["boundary"])
        spec = atlas.PairSpec.build(sings, boundary)
    except (KeyError, TypeError, atlas.AtlasError) as exc:
        raise CliInputError(f"bad pair spec: {exc}") from exc
    verdict = atlas.decide_pair(spec)
    return {
        "cluster_type": verdict.cluster_type,
        "case": verdict.case,
        "volume": verdict.volume,
        "reason": verdict.reason,
    }


def _cmd_check_fiber(args) -> dict:
    fiber = _read_value(args.spec, fc.FiberSpec, fc.fiber_from_json, fc.FiberError)
    if args.rank is not None and args.rank != fiber.rel_picard_rank:
        raise CliInputError(
            f"--rank {args.rank} disagrees with the spec's rank {fiber.rel_picard_rank}"
        )
    verdict = fc.check_pic1(fiber) if fiber.rel_picard_rank == 1 else fc.check_pic2(fiber)
    return {
        "cluster_type": verdict.cluster_type,
        "failed_conditions": list(verdict.failed_conditions),
        "rank": fiber.rel_picard_rank,
    }


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
        elif op == "blowup_interior" and "vertex" in step:
            g = bgm.blowup_interior(g, step["vertex"])
        elif op == "blowdown":
            g = bgm.blowdown(g, step["vertex"])
        else:
            raise CliInputError(f"unknown script step {step!r}")
    return g


def _validate_cy(g, args) -> dict:
    residuals = bgm.validate_cy(g)
    return {
        "residuals": {vid: rational_to_json(r) for vid, r in residuals},
        "calabi_yau": all(r == 0 for _, r in residuals),
    }


def _contract_chains(g, args) -> dict:
    res = bgm.contract_minus2_chains(g)
    return {
        "marks": [f"A{k}" for k in res.mark_ranks],
        "rho": res.singular.picard_rank,
        "graph": bgm.graph_to_json(res.singular),
    }


def _witness(g, args) -> dict:
    w = fc.prop51_witness_search(g, max_blowups=args.depth, coeff_cap=args.cap)
    if w is None:
        return {"witness": None}
    return {"witness": {"script": [list(s) for s in w.script], "divisor": w.divisor, "node": list(w.node)}}


# ``graph --op`` name -> (graph, args) -> payload, in ``--help`` order.
_GRAPH_OPS = {
    "validate-cy": _validate_cy,
    "complexity": lambda g, args: {"complexity": rational_to_json(bgm.complexity(g))},
    "coregularity": lambda g, args: {"coregularity": bgm.coregularity(g)},
    "index-integral": lambda g, args: {"index_integral": bgm.index_integral(g)},
    "contract-chains": _contract_chains,
    "witness": _witness,
    "dot": lambda g, args: emit_dot(g),
}


def _cmd_graph(args):
    g = _read_value(args.spec, bgm.BoundaryGraph, bgm.graph_from_json, bgm.GraphError)
    if args.apply:
        g = _apply_script(g, _json(args.apply))
    return _GRAPH_OPS["dot" if args.format == "dot" else args.op](g, args)


def _pair_arg(text, flag: str, missing_msg: str) -> tuple[int, int]:
    """Parse an ``x,y`` option value; ``missing_msg`` is the error when it is absent."""
    if not text:
        raise CliInputError(missing_msg)
    try:
        x, y = (int(t) for t in text.split(","))
    except ValueError as exc:
        raise CliInputError(f"{flag} must look like 'x,y'") from exc
    return x, y


def _project(fan, args) -> dict:
    data = lf.p1_projection(fan, _pair_arg(args.form, "--form", "project needs --form a,b"))
    return {
        "vertical_rays": list(data.vertical_rays),
        "fiber_over_zero": [list(t) for t in data.fiber_over_zero],
        "fiber_over_infinity": [list(t) for t in data.fiber_over_infinity],
    }


def _prepare_projection(fan, args) -> dict:
    form = _pair_arg(args.form, "--form", "prepare-projection needs --form a,b")
    return {"rays": lf.fan_to_json(lf.subdivide_for_projection(fan, form))}


def _subdivide(fan, args) -> dict:
    ray = _pair_arg(args.ray, "--ray", "subdivide needs --ray x,y")
    return {"rays": lf.fan_to_json(lf.star_subdivide(fan, ray))}


# ``fan --op`` name -> (fan, args) -> payload, in ``--help`` order.
_FAN_OPS = {
    "validate": lambda fan, args: {"rays": lf.fan_to_json(fan)},
    "smooth": lambda fan, args: {"smooth": lf.is_smooth(fan)},
    "self-intersections": lambda fan, args: {"self_intersections": lf.self_intersections(fan)},
    "complexity": lambda fan, args: {"complexity": rational_to_json(lf.toric_pair_complexity(fan))},
    "resolve": lambda fan, args: {"rays": lf.fan_to_json(lf.resolve(fan))},
    "subdivide": _subdivide,
    "project": _project,
    "prepare-projection": _prepare_projection,
}


def _cmd_fan(args) -> dict:
    fan = _read_value(args.spec, lf.Fan2, lf.fan_from_json, lf.FanError)
    return _FAN_OPS[args.op](fan, args)


def _cmd_catalog(args) -> dict:
    rows = [
        {
            "singularities": fam.name,
            "volume": fam.volume,
            "toric": fam.toric,
            "cluster_type": fam.cluster_type,
            "has_resolution_graph": fam.fixture is not None,
        }
        for fam in atlas.catalog()
    ]
    return {"families": rows, "count": len(rows)}


def _cmd_fixture(args):
    if args.list:
        return {"fixtures": fixtures.fixture_names()}
    if not args.name:
        raise CliInputError("pass a fixture name or --list")
    try:
        obj = fixtures.load_fixture(args.name)
    except fixtures.UnknownFixture as exc:
        raise CliInputError(f"UnknownFixture: {exc}") from exc
    if isinstance(obj, bgm.BoundaryGraph):
        return emit_dot(obj) if args.format == "dot" else {"kind": "graph", "graph": bgm.graph_to_json(obj)}
    if isinstance(obj, fc.FiberSpec):
        return {"kind": "fiber", "fiber": fc.fiber_to_json(obj)}
    return {"kind": "fan", "rays": lf.fan_to_json(obj)}


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
    g.add_argument("--op", choices=tuple(_GRAPH_OPS), default="validate-cy")
    g.add_argument("--apply", help="JSON array of blow-up/blow-down steps")
    g.add_argument("--depth", type=int, default=3, help="witness search depth cap")
    g.add_argument("--cap", type=int, default=6, help="witness divisor coefficient cap")
    g.set_defaults(func=_cmd_graph)

    n = sub.add_parser("fan", help="complete-fan operations")
    n.add_argument("spec", help="fan JSON file, inline JSON, '-' or fixture:NAME")
    n.add_argument("--op", choices=tuple(_FAN_OPS), default="validate")
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


_INPUT_ERRORS = (CliInputError, fixtures.UnknownFixture)

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
        _emit(args.func(args), args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _MODULE_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
