"""The stdlib encoder as the byte oracle of sepk's JSON, and seeded inputs for it.

Every JSON text sepk writes must read as json.dumps(value, indent=2,
ensure_ascii=False) on its dict form: a graph's is graph_model.to_obj(g), a
canonical sequence's is to_json_obj(seq) below.  Graphs are laid out by
sepk's own writer, so they are what the seeded comparison draws: vertex
names and edge ids that need escaping (quotes, backslashes, control
characters, lone surrogates, non-ASCII text), repeated vertex names, edgeless
graphs, and ends, group members and layer entries that name no vertex or
edge.  serialize(g) must equal the reference bytes, or raise the same error
class, and the text beneath must be the reference text.  The seeded values
(strings as above, long and negative ints, the float corner cases, non-str
dict keys, empty containers, tuples) and the unsupported ones check that
json_chunks hands other values to the stdlib encoder unchanged.

Run as a script, the graph comparison needs no pytest, so it also runs under
interpreters that lack it:

    PYTHONPATH=src python tests/json_oracles.py [count] [seed]
"""

import json
import random
import sys

from sepk.graph_model import Edge, SeparatedGraph, json_chunks, serialize, to_obj

STRINGS = (
    "", "v", "X", 'say "hi"', "back\\slash", "v|a1,b1", "v\\|a1\\,b1",
    "\x00\x01\x1f\x7f", "\n\r\t\b\f", "ünïcödé ✓ 𝔸", "  ",
    "\ud800", "x\udfffy", "😀",
)
NUMBERS = (
    0, 1, -1, 2**63, -(10**300) - 7, 10**305 + 3,
    0.0, -0.0, 5e-324, 1e308, -1e308, 0.1, 1 / 3, 1e16, 1e-7,
    float("nan"), float("inf"), float("-inf"),
)
KEYS = STRINGS + (0, -5, 10**300, 1.5, -0.0, float("nan"), float("-inf"), True, False, None)
UNSUPPORTED = {
    "set": {1, 2},
    "frozenset": frozenset(),
    "bytes": b"bytes",
    "bytearray": bytearray(b"x"),
    "complex": 1j,
    "object": object(),
    "set-in-list": [1, {2}],
    "bytes-value": {"k": b""},
    "tuple-key": {(1, 2): 1},
    "object-in-dict": {"k": [object()]},
}


def dump_json(value) -> str:
    """json_chunks(value) joined: the text graph files and JSON output hold."""
    return "".join(json_chunks(value))


def reference(value) -> str:
    return json.dumps(value, indent=2, ensure_ascii=False)


def to_json_obj(seq) -> dict:
    """The dict form of a canonical sequence, which its JSON reads as."""
    return {
        "depth": seq.depth,
        "layers": [to_obj(g) for g in seq.graphs],
        "w_sets": {str(k): list(ws) for k, ws in sorted(seq.w_sets.items())},
        "root_tables": {
            str(k): dict(sorted(t.items())) for k, t in sorted(seq.root_tables.items())
        },
    }


def graph_reference(g: SeparatedGraph) -> bytes:
    """The bytes serialize(g) must return: g's dict form through the stdlib, with a newline."""
    return (reference(to_obj(g)) + "\n").encode("utf-8")


def outcome(write, g):
    """write(g), or the class of the error it raises."""
    try:
        return write(g)
    except Exception as exc:
        return type(exc)


def random_string(rng: random.Random) -> str:
    """Random code points below U+10000, so lone surrogates occur."""
    return "".join(chr(rng.choice((rng.randrange(0x80), rng.randrange(0x10000))))
                   for _ in range(rng.randrange(6)))


def random_value(rng: random.Random, depth: int = 3):
    kind = rng.randrange(7 if depth else 4)
    if kind == 0:
        return rng.choice(STRINGS)  # few distinct strings, so they repeat
    if kind == 1:
        return random_string(rng)
    if kind == 2:
        return rng.choice(NUMBERS + (None, True, False, rng.randint(-(10**400), 10**400)))
    if kind == 3:
        return rng.uniform(-1e6, 1e6)
    items = [random_value(rng, depth - 1) for _ in range(rng.randrange(5))]
    if kind == 4:
        return items
    if kind == 5:
        return tuple(items)
    return {rng.choice(KEYS + (random_string(rng),)): item for item in items}


def random_graph(rng: random.Random) -> SeparatedGraph:
    """A seeded graph with escaped names, written as it is, valid or not.

    Names come mostly from STRINGS, so vertex names repeat.  In about one
    graph in five, an edge end, group member or layer entry may name no
    vertex or edge.
    """
    loose = rng.random() < 0.2

    def name() -> str:
        return rng.choice(STRINGS) if rng.random() < 0.7 else random_string(rng)

    def pick(names):
        return rng.choice(names) if names and not (loose and rng.random() < 0.3) else name()

    vertices = tuple(name() for _ in range(rng.randrange(5)))
    edges = tuple(
        Edge(name(), pick(vertices), pick(vertices)) for _ in range(rng.randrange(6))
    )
    ids = [e.id for e in edges]
    separation = tuple(
        tuple(tuple(pick(ids) for _ in range(rng.randrange(3))) for _ in range(rng.randrange(3)))
        for _ in vertices
    )
    bipartite = None if rng.random() < 0.5 else tuple(
        tuple(pick(vertices) for _ in range(rng.randrange(3))) for _ in range(2)
    )
    return SeparatedGraph(vertices, edges, separation, bipartite)


def serializes_as_reference(g: SeparatedGraph) -> bool:
    """serialize(g) against graph_reference(g), and the text beneath both.

    The text is compared too, since a name with a lone surrogate makes both
    sides raise UnicodeEncodeError whatever text they wrote.
    """
    return (
        dump_json(g) == reference(to_obj(g))
        and outcome(serialize, g) == outcome(graph_reference, g)
    )


def main(argv: list[str]) -> int:
    count = int(argv[0]) if argv else 2000
    rng = random.Random(int(argv[1]) if len(argv) > 1 else 0)
    for i in range(count):
        g = random_graph(rng)
        if not serializes_as_reference(g):
            print(f"graph {i} differs: {g!r:.300}")
            return 1
    print(
        f"Python {sys.version.split()[0]}: serialize writes the stdlib encoder's bytes "
        f"of to_obj(g), or raises its error class, on {count} seeded graphs"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
