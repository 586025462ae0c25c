"""Write reference.json: the digest of each fixed-input op's canonical output.

    python3 perfbench/make_reference.py

Run from the root of a checkout whose outputs are known to be right.  Every
output is first checked against oracles independent of the code that made
it, and nothing is written unless all of them hold:

- tame ranks: each W_k count printed by k0-tame and sequence equals
  w_count_formula on the layer it resolves;
- layer K-groups: K0(layer n) = K0(base) + Z^(sum of |W| over the n steps
  below it), with the torsion and the K1 rank of the base unchanged;
- transport chains: the transported element lies in the integer kernel of
  the top layer, its connecting-map image is nonzero, and the generator
  identities verify.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import ROOT, load_sepk


def _w_counts(graphs) -> list[int]:
    from sepk.transform import w_count_formula

    return [w_count_formula(g, g.layer0) for g in graphs]


def _tame_oracle(cmd: str, spec: str, depth: int, stdout: str) -> None:
    from sepk import graph_model, transform

    obj = json.loads(stdout)
    if cmd == "k0-tame":
        seq = transform.canonical_sequence(graph_model.builtin_from_spec(spec), depth)
        got = [obj["layer_ranks"][str(k + 2)] for k in range(depth)]
        want = _w_counts(seq.graphs[:depth])
    else:
        layers = [graph_model.from_obj(o) for o in obj["layers"]]
        got = [len(obj["w_sets"][str(k + 2)]) for k in range(depth)]
        want = _w_counts(layers[:depth])
    if got != want:
        raise AssertionError(f"{cmd} {spec} d{depth}: W ranks {got} != formula {want}")


def _layer_oracle(spec: str, n: int, stdout: str) -> None:
    from sepk import graph_model, ktheory, transform

    base_graph = graph_model.builtin_from_spec(spec)
    base = ktheory.k_groups_full(base_graph)
    seq = transform.canonical_sequence(base_graph, n)
    rank = base.k0.rank + sum(_w_counts(seq.graphs[:n]))
    obj = json.loads(stdout)
    got = (obj["k0"]["rank"], tuple(obj["k0"]["factors"]), obj["k1"]["rank"])
    want = (rank, base.k0.factors, base.k1_rank)
    if got != want:
        raise AssertionError(f"ktheory {spec} L{n}: (K0 rank, torsion, K1 rank) {got} != {want}")


def _chain_oracle(graphs, result) -> None:
    from sepk import exact_linalg, ktheory

    x, _, report = result
    top = graphs[-1]
    pair = ktheory.incidence(top)
    vec = [x.get(key, 0) for key in pair.cols]
    if not exact_linalg.in_lattice_span(exact_linalg.kernel_basis(pair.difference()), vec):
        raise AssertionError("transported element is not in the kernel of the top layer")
    if not ktheory.connecting_map_image(top, x):
        raise AssertionError("transported element has a zero connecting-map image")
    if not report.ok:
        raise AssertionError(f"generator identities fail:\n{report}")


def main() -> int:
    load_sepk()
    import workloads

    refs: dict[str, dict[str, str]] = {name: {} for name in workloads.WORKLOADS}

    def record(workload: str, op):
        result = op.call()
        failure = op.oracle(result)
        if failure:
            raise AssertionError(f"{op.name}: {failure}")
        refs[workload][op.name] = workloads.digest(op.render(result))
        print(f"ok  {workload}: {op.name}", file=sys.stderr)
        return result

    (ROOT / ".bench_build").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
        wl = workloads.tame_tower(0, Path(tmp))
        for (cmd, spec, depth), op in zip(workloads.TAME_TOWER, wl.ops):
            _tame_oracle(cmd, spec, depth, record(wl.name, op).stdout)
        wl = workloads.layer_kgroups(0, Path(tmp))
        for (spec, n), op in zip(workloads.LAYER_KGROUPS, wl.ops):
            _layer_oracle(spec, n, record(wl.name, op).stdout)
        wl = workloads.proof_batch(0, Path(tmp))
        for op in wl.ops[workloads.PROOF_GRAPHS:]:
            _chain_oracle(op.call.args[0], record(wl.name, op))
    workloads.REFERENCE.write_text(json.dumps(refs, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {workloads.REFERENCE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
