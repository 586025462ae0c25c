"""The argument parser's structure, pinned as a literal.

Rendered --help text differs between Python versions, so the pin is the
structure behind it: each subcommand in order with its help string and its
non-callable defaults, and each of its arguments in order with flags,
dest, nargs, help, required, type name, choices and default.
"""

import argparse

from sepk.cli import build_parser

HELP = (("-h", "--help"), "help", 0, "show this help message and exit", False, None, None,
        "==SUPPRESS==")
INPUT = ((), "input", "?", "graph file (JSON)", False, None, None, None)
BUILTIN = (("--builtin",), "builtin", None, 'built-in graph, e.g. "E(2,3)" or "lamplighter(2)"',
           False, None, None, None)
FORMAT = (("--format",), "format", None, None, False, None, ("text", "json"), "text")
COMMON = [HELP, INPUT, BUILTIN, FORMAT]
BUDGET = (
    ("--budget",), "budget", None,
    "generated-vertex budget per step (default 1000000)", False, "int", None, 1000000,
)
ELEMENT = (("--element",), "element", None, None, True, None, None, None)

PARSER = [
    ("validate", "check the separated-graph invariants", {}, COMMON),
    ("ktheory", "K0 and K1 of the graph algebra", {"tame": False}, COMMON),
    ("k1-tame", "K1 of the tame algebra (same as K1)", {"tame": True}, COMMON),
    ("k0-tame", "truncated K0 of the tame algebra", {}, [
        *COMMON, BUDGET,
        (("--depth",), "depth", None, "canonical-sequence depth", True, "int", None, None),
    ]),
    ("multires", "multiresolution at a vertex set", {}, [
        *COMMON, (("--at",), "at", None, "comma-separated vertices", True, None, None, None),
    ]),
    ("sequence", "canonical bipartite sequence", {}, [
        *COMMON, BUDGET, (("--depth",), "depth", None, None, True, "int", None, None),
    ]),
    ("companion", "bipartite companion graph", {}, COMMON),
    ("k1-generator", "generator matrices of a kernel element", {}, [
        *COMMON,
        (("--element",), "element", None, 'e.g. "X:+1,Y:-1" or "v.1:+1,v.2:-1"', True, None,
         None, None),
        (("--sigma-seed",), "sigma_seed", None, "random (seeded) bijection choice", False, "int",
         None, None),
    ]),
    ("verify-generator", "verify the generator identities", {}, [
        *COMMON, ELEMENT,
        (("--sigma-seed",), "sigma_seed", None, None, False, "int", None, None),
    ]),
    ("phi", "transport a kernel element one canonical step", {}, [*COMMON, ELEMENT]),
    ("delta", "connecting-map image of a kernel element", {}, [*COMMON, ELEMENT]),
    ("character", "extend a character across a multiresolution", {}, [
        *COMMON,
        (("--base",), "base", None, "JSON file of base values", True, None, None, None),
        (("--free",), "free", None, "JSON file of free values on W vertices", True, None, None,
         None),
        (("--at",), "at", None, "comma-separated vertices (default: the range layer)", False,
         None, None, None),
    ]),
]


def _structure(parser):
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    out = []
    for choice in subs._get_subactions():
        sub = subs.choices[choice.dest]
        arguments = [
            (tuple(a.option_strings), a.dest, a.nargs, a.help, a.required,
             getattr(a.type, "__name__", None), a.choices, a.default)
            for a in sub._actions
        ]
        defaults = {k: v for k, v in sub._defaults.items() if not callable(v)}
        out.append((choice.dest, choice.help, defaults, arguments))
    return subs, out


def test_parser_structure_is_pinned():
    parser = build_parser()
    assert (parser.prog, parser.description) == (
        "sepk", "Exact K-theory workbench for separated graph algebras."
    )
    subs, structure = _structure(parser)
    assert (subs.dest, subs.required) == ("command", True)
    assert [name for name, *_ in structure] == [name for name, *_ in PARSER]
    for got, want in zip(structure, PARSER):
        assert got == want, got[0]
