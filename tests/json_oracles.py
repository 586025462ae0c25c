"""Seeded values that compare graph_model.json_chunks with the stdlib encoder.

dump_json joins json_chunks' pieces.  The reference is json.dumps(value,
indent=2, ensure_ascii=False); dump_json must return the same string for
every value the stdlib call accepts and raise TypeError wherever it does.  The values mix strings that need
escaping (quotes, backslashes, control characters, lone surrogates,
non-ASCII text), long and negative ints, the float corner cases, non-str
dict keys, empty containers, tuples and repeated strings.

Run as a script, the comparison needs no pytest, so it also runs under
interpreters that lack it:

    PYTHONPATH=src python tests/json_oracles.py [count] [seed]
"""

import json
import random
import sys

from sepk.graph_model import json_chunks

STRINGS = (
    "", "v", "X", 'say "hi"', "back\\slash", "v|a1,b1", "v\\|a1\\,b1",
    "\x00\x01\x1f\x7f", "\n\r\t\b\f", "ünïcödé ✓ 𝔸", "  ",
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


def raises_type_error(write, value) -> bool:
    try:
        write(value)
    except TypeError:
        return True
    return False


def main(argv: list[str]) -> int:
    count = int(argv[0]) if argv else 2000
    rng = random.Random(int(argv[1]) if len(argv) > 1 else 0)
    for i in range(count):
        value = random_value(rng)
        if dump_json(value) != reference(value):
            print(f"value {i} differs: {value!r:.200}")
            return 1
    for value in UNSUPPORTED.values():
        if not (raises_type_error(reference, value) and raises_type_error(dump_json, value)):
            print(f"{value!r:.200} does not raise TypeError in both writers")
            return 1
    print(
        f"Python {sys.version.split()[0]}: dump_json equals json.dumps on {count} "
        f"seeded values; {len(UNSUPPORTED)} unsupported values raise TypeError in both"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
