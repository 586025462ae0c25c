"""Command-line front end.

Subcommands cover validation, the K-group computations, the graph
transformations, and the symbolic generator checks.  Graphs come either
from a file (positional argument) or from a built-in family via
--builtin "E(2,3)" / --builtin "lamplighter(2)"; exactly one source must be
given.  Output is deterministic: identical invocations print identical
bytes.

Each subcommand is one row of _COMMANDS, which builds the parser.  main
is the one place that loads the graph, prints the rendering asked for and
maps an error to its exit code: 0 success, 1 usage error, 2 validation or
file-format failure, 3 generated-vertex budget exceeded or memory
exhausted, 4 precondition rejection; a reader that closes stdout early ends it with 0.
"""

from __future__ import annotations

import argparse
import dataclasses
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
    group_label,
    json_chunks,
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


def _load_graph(args) -> _Loaded:
    if args.builtin and args.input:
        raise UsageError("give either an input file or --builtin, not both")
    if args.builtin:
        g = graph_model.builtin_from_spec(args.builtin)
        return _Loaded(g, graph_model.builtin_group_aliases())
    if args.input:
        return _Loaded(graph_model._parse_file(args.input), {})
    raise UsageError("an input file or --builtin is required")


class UsageError(Exception):
    pass


def _budget(args) -> int:
    if args.budget < 0:
        raise UsageError(f"--budget must not be negative, got {args.budget}")
    return args.budget


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


def _printable(*elements: dict) -> None:
    """Refuse elements with a coefficient past the digits str() writes of an int.

    Run before any output is made, so such an answer ends in one error line.
    """
    for x in elements:
        for c in x.values():
            try:
                str(c)
            except ValueError:
                raise PreconditionError(
                    f"a coefficient of {transform._decimal(abs(c))} in absolute value "
                    "has too many digits to print"
                ) from None


def _element_obj(x: dict[GroupKey, int], loaded: _Loaded) -> dict:
    return {loaded.names.get(k, group_label(k)): c for k, c in sorted(x.items())}


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
    try:
        obj = json.loads(graph_model._read_utf8(path))
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
# Each returns its exit code, a renderer of its JSON object, or of the list
# of pieces of its JSON text, and a renderer of its text (None where the
# JSON is printed in either format).


def _report_output(report, key: str, failure: int):
    # a validation or verification report: report.<key> as JSON, str(report) as text
    return (
        EXIT_OK if report.ok else failure,
        lambda: {"ok": report.ok, key: [dataclasses.asdict(e) for e in getattr(report, key)]},
        lambda: str(report),
    )


def _cmd_validate(loaded: _Loaded, args):
    report = graph_model.validate(loaded.graph)
    return _report_output(report, "violations", EXIT_INVALID)


def _cmd_ktheory(loaded: _Loaded, args):
    """K_0 and K_1; with args.tame only K_1, which the tame quotient shares."""
    kg = ktheory.k_groups_full(loaded.graph)

    def as_json():
        k1 = {"rank": kg.k1_rank, "basis": [_element_obj(vec, loaded) for vec in kg.k1_basis]}
        return {"k1": k1} if args.tame else {"k0": _invariants_obj(kg.k0), "k1": k1}

    def as_text():
        k1 = ktheory.AbelianGroupInvariants(kg.k1_rank)
        line = f"K1(tame) = {k1}" if args.tame else f"K0 = {kg.k0}, K1 = {k1}"
        if kg.k1_basis:
            line += ", basis: " if args.tame else ", K1 basis: "
            line += "; ".join(ktheory.format_element(vec, loaded.names) for vec in kg.k1_basis)
        return line

    return EXIT_OK, as_json, as_text


def _cmd_k0_tame(loaded: _Loaded, args):
    result = ktheory.k0_tame(loaded.graph, args.depth, budget=_budget(args))
    note = " [via bipartite companion]" if result.via_companion else ""
    return (
        EXIT_OK,
        lambda: {
            "base": _invariants_obj(result.base),
            "layer_ranks": {str(k + 2): r for k, r in enumerate(result.layer_ranks)},
            "depth": result.depth,
            "truncated": result.truncated,
            "via_companion": result.via_companion,
            "total": _invariants_obj(result.total()),
        },
        lambda: f"K0(tame) = {result.describe()}{note}",
    )


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


def _graph_output(g: SeparatedGraph):
    # A graph prints in the graph file format whatever --format says.
    return EXIT_OK, lambda: g, None


def _cmd_multires(loaded: _Loaded, args):
    g = loaded.graph
    return _graph_output(transform.multiresolution_at(g, _vertex_list(args.at, g)))


def _cmd_companion(loaded: _Loaded, args):
    return _graph_output(transform.bipartite_companion(loaded.graph))


def _cmd_sequence(loaded: _Loaded, args):
    g, depth, budget = loaded.graph, args.depth, _budget(args)

    def as_json():  # written from the walk of each step: no layer is built
        return transform._sequence_json(g, depth, budget)

    def as_text():  # counted on the quotient: no layer is built
        counts, sizes = transform._sequence_counts(g, depth, budget)
        largest = max(map(max, counts))  # no |W_k| exceeds a layer's vertex count
        try:  # refused before any line is made, as _printable refuses an answer
            str(largest)
        except ValueError:
            raise PreconditionError(
                f"a count of {transform._decimal(largest)} has too many digits to print"
            ) from None
        return "\n".join([
            *(f"layer {n}: {v} vertices, {e} edges, {k} groups"
              for n, (v, e, k) in enumerate(counts)),
            *(f"|W_{k}| = {w}" for k, w in enumerate(sizes, 2)),
        ])

    return EXIT_OK, as_json, as_text


def _generator_matrices(loaded: _Loaded, args):
    x = _parse_element(args.element, loaded)
    return x, build_generator_matrices(loaded.graph, x, seed=args.sigma_seed)


def _cmd_k1_generator(loaded: _Loaded, args):
    x, gm = _generator_matrices(loaded, args)
    # (JSON key, text title, matrix)
    named = (
        ("Z", "Z", gm.z), ("T", "T", gm.t), ("sigmaT", "sigma(T)", gm.sigma_t),
        ("U", "U_x = Z sigma(T)*", gm.u),
    )
    return (
        EXIT_OK,
        lambda: {
            "element": _element_obj(x, loaded),
            "rows": [str(r) for r in gm.z.rows],
            "cols": [str(c) for c in gm.z.cols],
            **{key: m.cells() for key, _, m in named},
        },
        lambda: "\n".join(f"{title} =\n{m.format_grid()}" for _, title, m in named),
    )


def _cmd_verify_generator(loaded: _Loaded, args):
    report = verify_partial_unitary(_generator_matrices(loaded, args)[1])
    return _report_output(report, "checks", EXIT_PRECONDITION)


def _cmd_phi(loaded: _Loaded, args):
    x = _parse_element(args.element, loaded)
    image = ktheory.phi_transport(loaded.graph, x)
    _printable(x, image)
    provenance = {key: f"X({eid})" for eid, key in transform._step_groups(loaded.graph).items()}
    return (
        EXIT_OK,
        lambda: {
            "element": _element_obj(x, loaded),
            "image": {group_label(k): c for k, c in sorted(image.items())},
            "groups": {group_label(k): provenance[k] for k in sorted(provenance)},
        },
        lambda: ktheory.format_element(image, provenance),
    )


def _cmd_delta(loaded: _Loaded, args):
    x = _parse_element(args.element, loaded)
    image = ktheory.connecting_map_image(loaded.graph, x)
    _printable(x, image)
    return (
        EXIT_OK,
        lambda: {"element": _element_obj(x, loaded), "image": dict(sorted(image.items()))},
        lambda: " ".join(f"{c:+d} {v}" for v, c in sorted(image.items())) or "0",
    )


def _cmd_character(loaded: _Loaded, args):
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
    errors = ktheory.character_relation_errors(data.graph, result.values)
    max_err = max((e for _, e in errors), default=0.0)
    values = {v: result.values[v] for v in data.graph.vertices}
    return (
        EXIT_OK,
        lambda: {
            "values": {v: [z.real, z.imag] for v, z in values.items()},
            "max_relation_error": max_err,
        },
        lambda: "\n".join([
            *(f"{v}: {z.real:+.12f}{z.imag:+.12f}i" for v, z in values.items()),
            f"max relation error: {max_err:.3e}",
        ]),
    )


# parser ------------------------------------------------------------------------

# Every subcommand reads a graph and takes these arguments first.
_COMMON = (
    ("input", {"nargs": "?", "help": "graph file (JSON)"}),
    ("--builtin", {"help": 'built-in graph, e.g. "E(2,3)" or "lamplighter(2)"'}),
    ("--format", {"choices": ("text", "json"), "default": "text"}),
)
_BUDGET = ("--budget", {
    "type": int,
    "default": transform.DEFAULT_BUDGET,
    "help": f"generated-vertex budget per step (default {transform.DEFAULT_BUDGET})",
})
_ELEMENT = ("--element", {"required": True})

# name, function, help, arguments after the common ones, defaults
_COMMANDS = (
    ("validate", _cmd_validate, "check the separated-graph invariants", (), {}),
    ("ktheory", _cmd_ktheory, "K0 and K1 of the graph algebra", (), {"tame": False}),
    ("k1-tame", _cmd_ktheory, "K1 of the tame algebra (same as K1)", (), {"tame": True}),
    ("k0-tame", _cmd_k0_tame, "truncated K0 of the tame algebra", (
        _BUDGET,
        ("--depth", {"type": int, "required": True, "help": "canonical-sequence depth"}),
    ), {}),
    ("multires", _cmd_multires, "multiresolution at a vertex set", (
        ("--at", {"required": True, "help": "comma-separated vertices"}),
    ), {}),
    ("sequence", _cmd_sequence, "canonical bipartite sequence", (
        _BUDGET, ("--depth", {"type": int, "required": True}),
    ), {}),
    ("companion", _cmd_companion, "bipartite companion graph", (), {}),
    ("k1-generator", _cmd_k1_generator, "generator matrices of a kernel element", (
        ("--element", {"required": True, "help": 'e.g. "X:+1,Y:-1" or "v.1:+1,v.2:-1"'}),
        ("--sigma-seed", {"type": int, "help": "random (seeded) bijection choice"}),
    ), {}),
    ("verify-generator", _cmd_verify_generator, "verify the generator identities", (
        _ELEMENT, ("--sigma-seed", {"type": int}),
    ), {}),
    ("phi", _cmd_phi, "transport a kernel element one canonical step", (_ELEMENT,), {}),
    ("delta", _cmd_delta, "connecting-map image of a kernel element", (_ELEMENT,), {}),
    ("character", _cmd_character, "extend a character across a multiresolution", (
        ("--base", {"required": True, "help": "JSON file of base values"}),
        ("--free", {"required": True, "help": "JSON file of free values on W vertices"}),
        ("--at", {"help": "comma-separated vertices (default: the range layer)"}),
    ), {}),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepk",
        description="Exact K-theory workbench for separated graph algebras.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, arguments, defaults in _COMMANDS:
        sub = subs.add_parser(name, help=help_text)
        for flag, options in (*_COMMON, *arguments):
            sub.add_argument(flag, **options)
        sub.set_defaults(func=func, **defaults)
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
    MemoryError: EXIT_BUDGET,  # a step under the vertex budget may still not fit in memory
}


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; remap to the documented code 1.
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        code, as_json, as_text = args.func(_load_graph(args), args)
        if args.format == "json" or as_text is None:
            # in pieces, all made before the first: one write past 2 GiB can be cut
            # short (a graph's or the sequence's laid out, the stdlib encoder's)
            out = as_json()
            if not isinstance(out, list):  # no JSON value here is a bare list
                out = json_chunks(out)
            out.append("\n")
        else:
            out = [as_text(), "\n"]
        # UTF-8 whatever stdout's encoding, as graph files are; a stream
        # without bytes underneath, such as io.StringIO, takes the text
        raw = getattr(sys.stdout, "buffer", None)
        if raw is None:
            sys.stdout.writelines(out)
        else:
            sys.stdout.flush()
            raw.writelines(map(str.encode, out))
            raw.flush()
    except BrokenPipeError:  # the reader stopped on purpose: exit quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the final flush
        return EXIT_OK
    except tuple(_EXIT_CODES) as exc:
        message = "out of memory" if isinstance(exc, MemoryError) else exc
        print(f"error: {message}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))
    return code


if __name__ == "__main__":
    sys.exit(main())
