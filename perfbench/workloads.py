"""The benchmark's workloads: their inputs, their ops and the check of each output.

A workload is a list of ops.  An op is one call into sepk, timed on its own;
its result is checked after the clock stops.  An op with fixed inputs
carries a reference digest of its canonical output (reference.json, written
by make_reference.py).  The seeded proof-batch graphs are checked with
oracles instead.  NOTES.md says why each workload was chosen.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from sepk import cli, formal_star, graph_model, ktheory, transform
from sepk.graph_model import SeparatedGraph, group_label

REFERENCE = Path(__file__).with_name("reference.json")
X_MINUS_Y = {("v", 0): 1, ("v", 1): -1}

# (command, built-in, depth)
TAME_TOWER = (
    ("k0-tame", "E(2,2)", 3),
    ("k0-tame", "E(2,3)", 3),
    ("k0-tame", "E(3,3)", 2),
    ("k0-tame", "E(2,6)", 2),
    ("k0-tame", "lamplighter(2)", 7),
    ("k0-tame", "lamplighter(3)", 5),
    ("sequence", "lamplighter(2)", 6),
    ("sequence", "E(2,3)", 2),
)
# (built-in, canonical-sequence layer)
LAYER_KGROUPS = (
    ("E(2,2)", 3),
    ("E(3,3)", 2),
    ("lamplighter(3)", 4),
    ("lamplighter(4)", 3),
    ("lamplighter(5)", 3),
    ("lamplighter(2)", 6),
)
PROOF_CHAINS = (
    ("E(2,2)", 3),
    ("lamplighter(3)", 3),
    ("lamplighter(5)", 2),
    ("lamplighter(2)", 5),
)
PROOF_GRAPHS = 150


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str


@dataclass(frozen=True)
class Op:
    name: str
    call: Callable[[], object]
    oracle: Callable[[object], str | None]  # failure kind, None when right
    render: Callable[[object], bytes] | None = None  # canonical output to digest


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    pass_s: float  # nominal time of one pass; fixes how many passes a run makes
    layers: tuple[tuple[SeparatedGraph, int], ...] = ()  # graphs at a known layer


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_references(workload: str) -> dict[str, str]:
    return json.loads(REFERENCE.read_text(encoding="utf-8")).get(workload, {})


def check(op: Op, result, references: dict[str, str]) -> str | None:
    """The failure kind of an op's result, or None when it is right."""
    failure = op.oracle(result)
    if failure or op.render is None:
        return failure
    want = references.get(op.name)
    if want is None:
        return "no-reference"
    return None if digest(op.render(result)) == want else "digest"


def _slug(spec: str) -> str:
    return spec.replace("(", "").replace(")", "").replace(",", "-")


# in-process CLI ops --------------------------------------------------------------


def run_cli(argv: list[str]) -> CliResult:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return CliResult(code, out.getvalue())


def _cli_op(name: str, argv: list[str]) -> Op:
    return Op(
        name,
        functools.partial(run_cli, argv),
        oracle=lambda r: None if r.code == 0 else f"exit-{r.code}",
        render=lambda r: r.stdout.encode("utf-8"),
    )


def tame_tower(seed: int, workdir: Path) -> Workload:
    ops = tuple(
        _cli_op(
            f"{cmd} {spec} d{depth}",
            [cmd, "--builtin", spec, "--depth", str(depth), "--format", "json"],
        )
        for cmd, spec, depth in TAME_TOWER
    )
    return Workload("tame-tower", ops, pass_s=1.0)


def layer_kgroups(seed: int, workdir: Path) -> Workload:
    ops = []
    for spec, n in LAYER_KGROUPS:
        g = transform.canonical_sequence(graph_model.builtin_from_spec(spec), n).graphs[n]
        path = workdir / f"{_slug(spec)}-L{n}.json"
        path.write_bytes(graph_model.serialize(g))
        ops.append(_cli_op(f"ktheory {spec} L{n}", ["ktheory", str(path), "--format", "json"]))
    return Workload("layer-kgroups", tuple(ops), pass_s=1.6)


# library ops: proofs over many seeded graphs, and transport chains -------------------


def random_graph_with_kernel(rng: random.Random):
    """A seeded bipartite graph of fixed shape and a nonzero kernel element.

    Three range vertices carry three groups of two or three edges each, from
    four source vertices.  A twin of one group (same sources) is added at its
    vertex, so c * (group - twin) is in the kernel, with c in {1, 2}.
    """
    layer0 = [f"u{i}" for i in range(3)]
    layer1 = [f"w{i}" for i in range(4)]
    edges = []
    separation = {}
    for v in layer0:
        separation[v] = []
        for _ in range(3):
            group = []
            for _ in range(rng.choice((2, 3))):
                group.append(f"e{len(edges)}")
                edges.append((group[-1], rng.choice(layer1), v))
            separation[v].append(group)
    silent = set(layer1) - {src for _, src, _ in edges}
    for w in sorted(silent):
        v = rng.choice(layer0)
        separation[v][rng.randrange(3)].append(f"e{len(edges)}")
        edges.append((f"e{len(edges)}", w, v))
    v = rng.choice(layer0)
    gi = rng.randrange(3)
    src = {eid: s for eid, s, _ in edges}
    twin = [f"t{k}" for k in range(len(separation[v][gi]))]
    edges += [(t, src[e], v) for t, e in zip(twin, separation[v][gi])]
    separation[v].append(twin)
    g = SeparatedGraph.build(layer0 + layer1, edges, separation, (layer0, layer1))
    c = rng.choice((1, 2))
    return g, {(v, gi): c, (v, 3): -c}


def _prove(path: Path, x):
    g = graph_model.parse(path.read_bytes())
    kg = ktheory.k_groups_full(g)
    report = formal_star.verify_partial_unitary(formal_star.build_generator_matrices(g, x))
    return kg, report, ktheory.connecting_map_image(g, x)


def _proof_oracle(monoid_k0, result) -> str | None:
    kg, report, image = result
    if not report.ok:
        return "oracle-verify"
    if not image:
        return "oracle-delta"
    return None if kg.k0 == monoid_k0 else "oracle-k0"


def _transport(graphs):
    x = dict(X_MINUS_Y)
    for g in graphs[:-1]:
        x = ktheory.phi_transport(g, x)
    gm = formal_star.build_generator_matrices(graphs[-1], x)
    return x, gm, formal_star.verify_partial_unitary(gm)


def _render_chain(result) -> bytes:
    x, gm, report = result
    return json.dumps({
        "element": [[group_label(k), c] for k, c in sorted(x.items())],
        "z": [len(gm.z.rows), len(gm.z.cols)],
        "u": gm.u.format_grid(),
        "checks": [[c.name, c.ok] for c in report.checks],
    }, ensure_ascii=False).encode("utf-8")


def proof_batch(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    ops = []
    for i in range(PROOF_GRAPHS):
        g, x = random_graph_with_kernel(rng)
        path = workdir / f"graph-{i:03d}.json"
        path.write_bytes(graph_model.serialize(g))
        monoid_k0 = ktheory.monoid_universal_group(g)
        ops.append(Op(
            f"graph {i}",
            functools.partial(_prove, path, x),
            oracle=functools.partial(_proof_oracle, monoid_k0),
        ))
    layers = []
    for spec, n in PROOF_CHAINS:
        graphs = transform.canonical_sequence(graph_model.builtin_from_spec(spec), n).graphs
        layers += [(g, k) for k, g in enumerate(graphs)]
        ops.append(Op(
            f"chain {spec} L{n}",
            functools.partial(_transport, graphs),
            oracle=lambda r: None if r[2].ok else "oracle-verify",
            render=_render_chain,
        ))
    return Workload("proof-batch", tuple(ops), pass_s=0.8, layers=tuple(layers))


WORKLOADS = {
    "tame-tower": tame_tower,
    "layer-kgroups": layer_kgroups,
    "proof-batch": proof_batch,
}
