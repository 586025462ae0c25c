"""Seeded random generators shared by the property and acceptance tests."""

import random

from sepk.exact_linalg import kernel_basis
from sepk.graph_model import SeparatedGraph
from sepk.ktheory import incidence


def random_separated_graph(rng: random.Random, max_range=5, max_groups=3, max_size=3):
    """A random valid finitely separated graph.

    Up to max_range vertices receive edges, each with up to max_groups groups
    of up to max_size edges; sources are drawn from the whole vertex set, so
    loops and parallel edges occur.
    """
    n_range = rng.randint(1, max_range)
    vertices = [f"v{i}" for i in range(n_range)]
    vertices += [f"s{i}" for i in range(rng.randint(0, 3))]
    edges = []
    separation = {}
    eid = 0
    for v in vertices[:n_range]:
        groups = []
        for _ in range(rng.randint(0, max_groups)):
            grp = []
            for _ in range(rng.randint(1, max_size)):
                edges.append((f"e{eid}", rng.choice(vertices), v))
                grp.append(f"e{eid}")
                eid += 1
            groups.append(grp)
        separation[v] = groups
    return SeparatedGraph.build(vertices, edges, separation)


def admissible_vertex_set(g: SeparatedGraph, rng: random.Random):
    """A random nonempty V with nonempty groups and no edges inside V."""
    candidates = [v for v in g.vertices if g.groups_at(v)]
    rng.shuffle(candidates)
    chosen: list[str] = []
    for u in candidates:
        trial = set(chosen) | {u}
        if all(not (e.dst in trial and e.src in trial) for e in g.edges):
            chosen.append(u)
    return chosen or None


def random_bipartite_graph(rng: random.Random, max_l0=3, max_l1=3, max_groups=3, max_size=3):
    """A random valid bipartite separated graph."""
    layer0 = [f"u{i}" for i in range(rng.randint(1, max_l0))]
    layer1 = [f"w{i}" for i in range(rng.randint(1, max_l1))]
    edges = []
    separation = {}
    eid = 0
    for v in layer0:
        groups = []
        for _ in range(rng.randint(1, max_groups)):
            grp = []
            for _ in range(rng.randint(1, max_size)):
                edges.append((f"e{eid}", rng.choice(layer1), v))
                grp.append(f"e{eid}")
                eid += 1
            groups.append(grp)
        separation[v] = groups
    # Every source vertex must emit an edge; patch silent ones into a group.
    used = {e[1] for e in edges}
    for w in layer1:
        if w not in used:
            v = rng.choice(layer0)
            edges.append((f"e{eid}", w, v))
            separation[v][rng.randrange(len(separation[v]))].append(f"e{eid}")
            eid += 1
    return SeparatedGraph.build(layer0 + layer1, edges, separation, (layer0, layer1))


def bipartite_graph_with_kernel(rng: random.Random):
    """A random bipartite graph with a guaranteed nonzero kernel element.

    Duplicates the source profile of one group into a fresh group at the
    same vertex, so the difference of the two group basis vectors is in the
    kernel.
    """
    g = random_bipartite_graph(rng)
    v = rng.choice(g.layer0)
    gi = rng.randrange(len(g.groups_at(v)))
    twin = [f"t{i}" for i in range(len(g.group((v, gi))))]
    edges = [tuple(e) for e in g.edges]
    edges += [
        (tid, g.edge(orig).src, v) for tid, orig in zip(twin, g.group((v, gi)))
    ]
    separation = {
        u: [list(grp) for grp in g.groups_at(u)] for u in g.vertices
    }
    separation[v].append(twin)
    g2 = SeparatedGraph.build(g.vertices, edges, separation, g.bipartite)
    x = {(v, gi): 1, (v, len(separation[v]) - 1): -1}
    return g2, x


def random_kernel_element(g: SeparatedGraph, rng: random.Random, bound=2):
    """A random nonzero kernel element, or None when the kernel is trivial."""
    pair = incidence(g)
    basis = kernel_basis(pair.difference())
    if not basis:
        return None
    for _ in range(20):
        coeffs = [rng.randint(-bound, bound) for _ in basis]
        combo = {}
        for c, vec in zip(coeffs, basis):
            if not c:
                continue
            for key, val in zip(pair.cols, vec):
                if val:
                    combo[key] = combo.get(key, 0) + c * val
        combo = {k: v for k, v in combo.items() if v}
        if combo:
            return combo
    return None


def name_collision_graphs():
    """Bipartite graphs whose names meet generated ones: (label, graph, step, kind).

    The canonical step numbered step (0 or 1) would generate a vertex or an
    edge ("kind") that the graph, or step 0 from it, already names.
    """
    # step 0 names the tuple (a1,) over v "v|a1"
    vertex0 = SeparatedGraph.build(
        ["v", "w", "v|a1"],
        [("a1", "w", "v"), ("a2", "v|a1", "v")],
        {"v": [["a1", "a2"]]},
        (["v"], ["w", "v|a1"]),
    )
    # step 0 names the arrow of the tuple (a1, b1) with distinguished edge a1 "a^a1|b1"
    edge0 = SeparatedGraph.build(
        ["v", "w"],
        [("a1", "w", "v"), ("b1", "w", "v"), ("a^a1|b1", "w", "v")],
        {"v": [["a1"], ["b1", "a^a1|b1"]]},
        (["v"], ["w"]),
    )
    # step 0 makes the arrow "a^a|b" leaving w; step 1 names the tuple over w
    # "w|a^a\|b", which is an input vertex (of layer1)
    s = "w|a^a\\|b"
    vertex1 = SeparatedGraph.build(
        ["v", "w", s],
        [("a", "w", "v"), ("b", s, "v")],
        {"v": [["a"], ["b"]]},
        (["v"], ["w", s]),
    )
    # step 0 names the tuple (a1,) over "v|x" "v\|x|a1": its head holds a "|",
    # so both are cut at that first "|", not after the escaped head
    s = "v\\|x|a1"
    bar0 = SeparatedGraph.build(
        ["v|x", "w", s],
        [("a1", "w", "v|x"), ("a2", s, "v|x")],
        {"v|x": [["a1", "a2"]]},
        (["v|x"], ["w", s]),
    )
    return [
        ("step0-vertex", vertex0, 0, "vertex"),
        ("step0-edge", edge0, 0, "edge"),
        ("step1-vertex", vertex1, 1, "vertex"),
        ("step0-bar-in-head", bar0, 0, "vertex"),
    ]
