"""Command-line front end.

``_COMMANDS`` declares the subcommands once, and the parsers are built
from it: ``classify`` (singularity string), ``decide-pair`` (pair JSON),
``check-fiber`` (fiber JSON), ``graph`` (graph JSON plus an operation),
``fan`` (fan JSON plus an operation), ``catalog`` and ``fixture``.  Each
handler returns its payload and ``run`` writes it once, as JSON (or
``--format text``/``dot``) on stdout or to ``--out``.  Exit codes: 0 for
any computed verdict (including a negative one), 2 for input validation
failures, 3 for precondition errors raised by the computation modules.
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
from .rationals import rational_to_json, typed


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

    Vertices come in id order and edges in (a, b) order, as ``build``
    and surgery store them.  A vertex is labelled "id (sq)"; (-2)-curves
    with coefficient one are solid, (-1)-curves dashed, other
    coefficient-one curves bold and everything else dotted.  Edge labels
    carry the multiplicities.  Equal graphs produce byte-identical output.
    """
    lines = ["graph boundary {"]
    for v in g.vertices:
        label = f"{v.id} ({rational_to_json(v.self_int)})"
        lines.append(f'  "{v.id}" [label="{label}" style={_style(v)}];')
    for e in g.edges:
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
        if ranks is not None:
            ranks = tuple(typed(ranks, list, "boundary ranks", CliInputError))
        return atlas.MultiComponent(int(k), ranks)
    if kind == "nodal_smooth_locus":
        return atlas.NodalSmoothLocus()
    if kind == "nodal_at_A":
        return atlas.NodalAtA(typed(data["n"], int, "boundary n", CliInputError))
    raise CliInputError(f"unknown boundary kind {kind!r}")


def _cmd_decide_pair(args) -> dict:
    data = _read_spec(args.spec)
    if not isinstance(data, dict):
        # no fixture holds a pair spec, and arrays and scalars are not one
        raise CliInputError("bad pair spec: a pair spec is a JSON object")
    try:
        sings = atlas.parse_singularities(data["singularities"])
        boundary = _boundary_from_json(data["boundary"])
        spec = atlas.PairSpec.build(sings, boundary)
    except KeyError as exc:
        raise CliInputError(f"bad pair spec: missing field {exc.args[0]!r}") from exc
    except (TypeError, atlas.AtlasError) as exc:
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
        typed(step, dict, "script step", CliInputError)
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


# name -> (handler, help, ``--format`` choices, arguments): each argument is
# (name, ``add_argument`` keywords), in ``--help`` order
_COMMANDS = {
    "classify": (_cmd_classify, "cluster-type verdict for a singularity string", ("json", "text"), [
        ("singularities", dict(help='e.g. "A1+A2+A5", "4A2", "smooth"'))]),
    "decide-pair": (_cmd_decide_pair, "five-case decision for a pair spec", ("json", "text"), [
        ("spec", dict(help="JSON file, inline JSON, '-' or fixture:NAME"))]),
    "check-fiber": (_cmd_check_fiber, "standard-model fiber criteria", ("json", "text"), [
        ("spec", dict(help="fiber JSON file, inline JSON, '-' or fixture:NAME")),
        ("--rank", dict(type=int, choices=(1, 2)))]),
    "graph": (_cmd_graph, "dual-graph operations", ("json", "dot", "text"), [
        ("spec", dict(help="graph JSON file, inline JSON, '-' or fixture:NAME")),
        ("--op", dict(choices=tuple(_GRAPH_OPS), default="validate-cy")),
        ("--apply", dict(help="JSON array of blow-up/blow-down steps")),
        ("--depth", dict(type=int, default=3, help="witness search depth cap")),
        ("--cap", dict(type=int, default=6, help="witness divisor coefficient cap"))]),
    "fan": (_cmd_fan, "complete-fan operations", ("json", "text"), [
        ("spec", dict(help="fan JSON file, inline JSON, '-' or fixture:NAME")),
        ("--op", dict(choices=tuple(_FAN_OPS), default="validate")),
        ("--ray", dict(help="x,y for subdivide")),
        ("--form", dict(help="a,b for project / prepare-projection"))]),
    "catalog": (_cmd_catalog, "list the sixteen rank-one A-type families", ("json", "text"), []),
    "fixture": (_cmd_fixture, "dump a bundled fixture", ("json", "dot", "text"), [
        ("name", dict(nargs="?")),
        ("--list", dict(action="store_true"))]),
}


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The ``cypair`` parser and its subcommand name -> parser map, built
    from ``_COMMANDS`` on the first ``run`` and then shared.

    Building them costs far more than parsing a command line; parsing
    does not change them, and every parse returns a fresh namespace.
    ``_parse_args`` parses each command with its subcommand's parser
    alone; the top-level parser runs only for top-level help and errors.
    """
    p = argparse.ArgumentParser(
        prog="cypair",
        description="Exact decision procedures for log Calabi-Yau surface pairs",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, summary, formats, arguments) in _COMMANDS.items():
        parser = sub.add_parser(name, help=summary)
        for arg, keywords in arguments:
            parser.add_argument(arg, **keywords)
        parser.add_argument("--format", choices=formats, default="json")
        parser.add_argument("--out")
    return p, sub.choices


_INPUT_ERRORS = (CliInputError, fixtures.UnknownFixture)

_MODULE_ERRORS = (
    lf.FanError,
    bgm.GraphError,
    fc.FiberError,
    atlas.AtlasError,
)


def _parse_args(argv):
    """What ``parse_args(argv)`` of the top-level parser returns or raises.

    That parser's subparsers action hands every token after the command
    name to that command's parser, and adds only its own "unrecognized
    arguments" error when tokens are left over.  So a command line that
    starts with a command name and leaves nothing over is parsed by the
    command's parser alone; any other goes through the top-level parser,
    which prints its own usage and error (or help).
    """
    parser, commands = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in commands:
        args, extras = commands[argv[0]].parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def run(argv=None) -> int:
    """Parse argv (``sys.argv[1:]`` when None), dispatch, and map errors to
    exit codes (2 input, 3 module).

    A command is parsed by its subcommand's parser only; the top-level
    parser runs for top-level help and errors (see ``_parse_args``).
    Repeated calls in one process share the parsers and do not affect
    each other.
    """
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _emit(_COMMANDS[args.command][0](args), args)
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
