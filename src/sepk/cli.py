"""Command-line front end.

Subcommands cover validation, the K-group computations, the graph
transformations, and the symbolic generator checks.  Graphs come either
from a file (positional argument) or from a built-in family via
--builtin "E(2,3)" / --builtin "lamplighter(2)"; exactly one source must be
given.  Output is deterministic: identical invocations print identical
bytes.

Exit codes: 0 success, 1 usage error, 2 validation or file-format failure,
3 generated-vertex budget exceeded, 4 precondition rejection.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from . import graph_model, ktheory, transform
from .formal_star import build_generator_matrices, verify_partial_unitary
from .graph_model import (
    GraphFormatError,
    GroupKey,
    ParameterRangeError,
    SeparatedGraph,
    dump_json,
    group_label,
)
from .transform import BudgetExceededError, PreconditionError, ValidationError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3
EXIT_PRECONDITION = 4


def _invariants_obj(inv) -> dict:
    return {"rank": inv.rank, "factors": list(inv.factors)}


class _Loaded:
    def __init__(self, graph: SeparatedGraph, aliases: dict[str, GroupKey]):
        self.graph = graph
        self.aliases = aliases
        self.names = {key: name for name, key in aliases.items()}

    def label(self, key: GroupKey) -> str:
        return self.names.get(key, group_label(key))


def _load_graph(args) -> _Loaded:
    if args.builtin and args.input:
        raise UsageError("give either an input file or --builtin, not both")
    if args.builtin:
        g = graph_model.builtin_from_spec(args.builtin)
        return _Loaded(g, graph_model.builtin_group_aliases(args.builtin))
    if args.input:
        with open(args.input, "rb") as fh:
            return _Loaded(graph_model.parse(fh.read()), {})
    raise UsageError("an input file or --builtin is required")


class UsageError(Exception):
    pass


def _budget(args) -> int:
    if getattr(args, "budget", None) is not None:
        budget, source = args.budget, "--budget"
    else:
        env = os.environ.get("SEPK_BUDGET")
        if env is None:
            return transform.DEFAULT_BUDGET
        try:
            budget, source = int(env), "SEPK_BUDGET"
        except ValueError:
            raise UsageError(f"SEPK_BUDGET must be an integer, got {env!r}")
    if budget < 0:
        raise UsageError(f"{source} must not be negative, got {budget}")
    return budget


# A term runs to the first comma after a ":<integer>" coefficient, so group
# names may contain commas, as generated vertex names do.
_TERM = re.compile(r"[\s,]*(.*?:\s*[+-]?\d+)\s*(?:,|\Z)")


def _element_terms(text: str):
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if m is None:  # no coefficient left: one term, reported below
            yield text[pos:]
            return
        yield m[1]
        pos = m.end()


def _parse_element(text: str, loaded: _Loaded) -> dict[GroupKey, int]:
    """Parse comma-separated "group:coef" pairs.

    Groups are named "v.k" (k-th group of C_v, 1-based); built-in graphs
    also accept their conventional group names (X, Y).
    """
    g = loaded.graph
    out: dict[GroupKey, int] = {}
    for chunk in _element_terms(text):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise PreconditionError(f"element term {chunk!r} is not of the form group:coef")
        name, _, coef_text = chunk.rpartition(":")
        name = name.strip()
        try:
            coef = int(coef_text.strip())
        except ValueError:
            raise PreconditionError(f"bad coefficient {coef_text.strip()!r} in {chunk!r}")
        if name in loaded.aliases:
            key = loaded.aliases[name]
        else:
            vertex, _, k_text = name.rpartition(".")
            try:
                k = int(k_text)
            except ValueError:
                raise PreconditionError(f"group name {name!r} is not of the form v.k")
            key = (vertex, k - 1)
        v, idx = key
        if not g.has_vertex(v) or not 0 <= idx < len(g.groups_at(v)):
            raise PreconditionError(f"unknown group {name!r}")
        out[key] = out.get(key, 0) + coef
    return {k: c for k, c in out.items() if c}


def _element_obj(x: dict[GroupKey, int], loaded: _Loaded) -> dict:
    return {loaded.label(k): c for k, c in sorted(x.items())}


def _is_number(val) -> bool:
    # JSON true/false decode to bool, which is a subclass of int.
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _character_value(val) -> complex | None:
    """The value an entry of a character file denotes, None if it names none.

    A number is an angle in turns (0.25 means i); a two-element list is
    [re, im].  NaN, Infinity and numbers beyond float range name no value.
    """
    import cmath

    try:
        if _is_number(val):
            z = cmath.exp(2j * cmath.pi * val)
        elif isinstance(val, list) and len(val) == 2 and all(map(_is_number, val)):
            z = complex(val[0], val[1])
        else:
            return None
    except (OverflowError, ValueError):
        return None
    return z if cmath.isfinite(z) else None


def _load_character_file(path: str) -> dict[str, complex]:
    """JSON map from vertex name to a value on the unit circle."""
    with open(path, "rb") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"malformed character file: {exc.msg}", path)
        except UnicodeDecodeError as exc:
            raise GraphFormatError(f"character file is not UTF-8 text: {exc.reason}", path)
        except RecursionError:
            raise GraphFormatError("malformed character file: nesting too deep", path)
    if not isinstance(obj, dict):
        raise GraphFormatError("character file must be a map", path)
    out = {}
    for name, val in obj.items():
        z = _character_value(val)
        if z is None:
            raise GraphFormatError(
                f"value at {name!r} must be an angle in turns or [re, im]", path
            )
        out[name] = z
    return out


# subcommand implementations ---------------------------------------------------


def _cmd_validate(args) -> int:
    report = graph_model.validate(_load_graph(args).graph)
    if args.format == "json":
        print(dump_json({
            "ok": report.ok,
            "violations": [
                {"kind": v.kind, "subject": v.subject, "detail": v.detail}
                for v in report.violations
            ],
        }))
    else:
        print(str(report))
    return EXIT_OK if report.ok else EXIT_INVALID


def _cmd_ktheory(args) -> int:
    """K_0 and K_1; with args.tame only K_1, which the tame quotient shares."""
    loaded = _load_graph(args)
    kg = ktheory.k_groups_full(loaded.graph)
    if args.format == "json":
        obj = {} if args.tame else {"k0": _invariants_obj(kg.k0)}
        obj["k1"] = {
            "rank": kg.k1_rank,
            "basis": [_element_obj(vec, loaded) for vec in kg.k1_basis],
        }
        print(dump_json(obj))
    else:
        k1 = ktheory.AbelianGroupInvariants(kg.k1_rank)
        line = f"K1(tame) = {k1}" if args.tame else f"K0 = {kg.k0}, K1 = {k1}"
        if kg.k1_basis:
            line += ", basis: " if args.tame else ", K1 basis: "
            line += "; ".join(ktheory.format_element(vec, loaded.names) for vec in kg.k1_basis)
        print(line)
    return EXIT_OK


def _cmd_k0_tame(args) -> int:
    loaded = _load_graph(args)
    result = ktheory.k0_tame(loaded.graph, args.depth, budget=_budget(args))
    if args.format == "json":
        print(dump_json({
            "base": _invariants_obj(result.base),
            "layer_ranks": {str(k + 2): r for k, r in enumerate(result.layer_ranks)},
            "depth": result.depth,
            "truncated": result.truncated,
            "via_companion": result.via_companion,
            "total": _invariants_obj(result.total()),
        }))
    else:
        note = " [via bipartite companion]" if result.via_companion else ""
        print(f"K0(tame) = {result.describe()}{note}")
    return EXIT_OK


def _vertex_list(text: str, g: SeparatedGraph) -> list[str]:
    """Split comma-separated vertices; a vertex name may contain commas.

    From each nonempty piece on, the shortest run of pieces that names a
    vertex is taken; a piece that starts no such run stands alone, so that
    the resolved-set check reports it.
    """
    pieces = text.split(",")
    longest = 1 + max((v.count(",") for v in g.vertices), default=0)
    out, i = [], 0
    while i < len(pieces):
        j = i + 1
        if pieces[i].strip():  # empty pieces, as in "a,,b", are skipped
            runs = range(j, min(i + longest, len(pieces)) + 1)
            j = next((k for k in runs if g.has_vertex(",".join(pieces[i:k]).strip())), j)
            out.append(",".join(pieces[i:j]).strip())
        i = j
    return out


def _cmd_multires(args) -> int:
    loaded = _load_graph(args)
    out = transform.multiresolution_at(loaded.graph, _vertex_list(args.at, loaded.graph))
    print(dump_json(graph_model.to_obj(out)))
    return EXIT_OK


def _cmd_sequence(args) -> int:
    loaded = _load_graph(args)
    seq = transform.canonical_sequence(loaded.graph, args.depth, budget=_budget(args))
    if args.format == "json":
        print(dump_json(seq.to_json_obj()))
    else:
        for n, g in enumerate(seq.graphs):
            print(
                f"layer {n}: {len(g.vertices)} vertices, {len(g.edges)} edges, "
                f"{len(g.group_keys())} groups"
            )
        for k in sorted(seq.w_sets):
            print(f"|W_{k}| = {len(seq.w_sets[k])}")
    return EXIT_OK


def _cmd_companion(args) -> int:
    loaded = _load_graph(args)
    out = transform.bipartite_companion(loaded.graph)
    print(dump_json(graph_model.to_obj(out)))
    return EXIT_OK


def _cmd_k1_generator(args) -> int:
    loaded = _load_graph(args)
    x = _parse_element(args.element, loaded)
    gm = build_generator_matrices(loaded.graph, x, seed=args.sigma_seed)
    if args.format == "json":
        print(dump_json({
            "element": _element_obj(x, loaded),
            "rows": [str(r) for r in gm.z.rows],
            "cols": [str(c) for c in gm.z.cols],
            "Z": gm.z.cells(),
            "T": gm.t.cells(),
            "sigmaT": gm.sigma_t.cells(),
            "U": gm.u.cells(),
        }))
    else:
        for title, m in (
            ("Z", gm.z), ("T", gm.t), ("sigma(T)", gm.sigma_t), ("U_x = Z sigma(T)*", gm.u)
        ):
            print(f"{title} =")
            print(m.format_grid())
    return EXIT_OK


def _cmd_verify_generator(args) -> int:
    loaded = _load_graph(args)
    x = _parse_element(args.element, loaded)
    gm = build_generator_matrices(loaded.graph, x, seed=args.sigma_seed)
    report = verify_partial_unitary(gm)
    if args.format == "json":
        print(dump_json({
            "ok": report.ok,
            "checks": [
                {"name": c.name, "ok": c.ok, "detail": c.detail} for c in report.checks
            ],
        }))
    else:
        print(str(report))
    return EXIT_OK if report.ok else EXIT_PRECONDITION


def _cmd_phi(args) -> int:
    loaded = _load_graph(args)
    x = _parse_element(args.element, loaded)
    image, step = ktheory._phi_with_step(loaded.graph, x)
    provenance = {key: f"X({eid})" for eid, key in step.group_of_edge.items()}
    if args.format == "json":
        print(dump_json({
            "element": _element_obj(x, loaded),
            "image": {group_label(k): c for k, c in sorted(image.items())},
            "groups": {group_label(k): provenance[k] for k in sorted(provenance)},
        }))
    else:
        print(ktheory.format_element(image, provenance))
    return EXIT_OK


def _cmd_delta(args) -> int:
    loaded = _load_graph(args)
    x = _parse_element(args.element, loaded)
    image = ktheory.connecting_map_image(loaded.graph, x)
    if args.format == "json":
        print(dump_json({
            "element": _element_obj(x, loaded),
            "image": dict(sorted(image.items())),
        }))
    else:
        terms = [f"{c:+d} {v}" for v, c in sorted(image.items())]
        print(" ".join(terms) if terms else "0")
    return EXIT_OK


def _cmd_character(args) -> int:
    loaded = _load_graph(args)
    g = loaded.graph
    if args.at:
        vertex_set = _vertex_list(args.at, g)
    elif g.bipartite is not None:
        vertex_set = list(g.layer0)
    else:
        raise PreconditionError("--at is required for a graph without a bipartite split")
    base = ktheory.CharacterAssignment(_load_character_file(args.base))
    free = _load_character_file(args.free)
    result, data = ktheory._extend_character_with_data(g, vertex_set, base, free)
    out_graph = data.graph
    errors = ktheory.character_relation_errors(out_graph, result.values)
    max_err = max((e for _, e in errors), default=0.0)
    if args.format == "json":
        print(dump_json({
            "values": {
                v: [result.values[v].real, result.values[v].imag]
                for v in out_graph.vertices
            },
            "max_relation_error": max_err,
        }))
    else:
        for v in out_graph.vertices:
            z = result.values[v]
            print(f"{v}: {z.real:+.12f}{z.imag:+.12f}i")
        print(f"max relation error: {max_err:.3e}")
    return EXIT_OK


# parser ------------------------------------------------------------------------


def _add_common(sub, budget=False):
    sub.add_argument("input", nargs="?", help="graph file (JSON)")
    sub.add_argument("--builtin", help='built-in graph, e.g. "E(2,3)" or "lamplighter(2)"')
    sub.add_argument("--format", choices=("text", "json"), default="text")
    if budget:
        sub.add_argument(
            "--budget", type=int,
            help=f"generated-vertex budget per step (default {transform.DEFAULT_BUDGET}, "
            "or the SEPK_BUDGET environment variable)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepk",
        description="Exact K-theory workbench for separated graph algebras.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="check the separated-graph invariants")
    _add_common(p)
    p.set_defaults(func=_cmd_validate)

    p = subs.add_parser("ktheory", help="K0 and K1 of the graph algebra")
    _add_common(p)
    p.set_defaults(func=_cmd_ktheory, tame=False)

    p = subs.add_parser("k1-tame", help="K1 of the tame algebra (same as K1)")
    _add_common(p)
    p.set_defaults(func=_cmd_ktheory, tame=True)

    p = subs.add_parser("k0-tame", help="truncated K0 of the tame algebra")
    _add_common(p, budget=True)
    p.add_argument("--depth", type=int, required=True, help="canonical-sequence depth")
    p.set_defaults(func=_cmd_k0_tame)

    p = subs.add_parser("multires", help="multiresolution at a vertex set")
    _add_common(p)
    p.add_argument("--at", required=True, help="comma-separated vertices")
    p.set_defaults(func=_cmd_multires)

    p = subs.add_parser("sequence", help="canonical bipartite sequence")
    _add_common(p, budget=True)
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(func=_cmd_sequence)

    p = subs.add_parser("companion", help="bipartite companion graph")
    _add_common(p)
    p.set_defaults(func=_cmd_companion)

    p = subs.add_parser("k1-generator", help="generator matrices of a kernel element")
    _add_common(p)
    p.add_argument("--element", required=True, help='e.g. "X:+1,Y:-1" or "v.1:+1,v.2:-1"')
    p.add_argument("--sigma-seed", type=int, help="random (seeded) bijection choice")
    p.set_defaults(func=_cmd_k1_generator)

    p = subs.add_parser("verify-generator", help="verify the generator identities")
    _add_common(p)
    p.add_argument("--element", required=True)
    p.add_argument("--sigma-seed", type=int)
    p.set_defaults(func=_cmd_verify_generator)

    p = subs.add_parser("phi", help="transport a kernel element one canonical step")
    _add_common(p)
    p.add_argument("--element", required=True)
    p.set_defaults(func=_cmd_phi)

    p = subs.add_parser("delta", help="connecting-map image of a kernel element")
    _add_common(p)
    p.add_argument("--element", required=True)
    p.set_defaults(func=_cmd_delta)

    p = subs.add_parser("character", help="extend a character across a multiresolution")
    _add_common(p)
    p.add_argument("--base", required=True, help="JSON file of base values")
    p.add_argument("--free", required=True, help="JSON file of free values on W vertices")
    p.add_argument("--at", help="comma-separated vertices (default: the range layer)")
    p.set_defaults(func=_cmd_character)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # Parsing leaves no state on the parser: each call fills a new namespace.
    return build_parser()


# Each error class and its exit code; the first class that matches wins.
_EXIT_CODES = {
    UsageError: EXIT_USAGE,
    GraphFormatError: EXIT_INVALID,
    ValidationError: EXIT_INVALID,
    BudgetExceededError: EXIT_BUDGET,
    PreconditionError: EXIT_PRECONDITION,
    ParameterRangeError: EXIT_PRECONDITION,
    OSError: EXIT_USAGE,  # missing, unreadable or directory input paths
}


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; remap to the documented code 1.
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
