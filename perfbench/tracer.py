"""Span tracing of sepk's layers from outside the package.

A Tracer replaces a fixed list of coarse public sepk functions with wrappers
that record one span per call (name, start, end, parent span, op) and count
the work each call did, then puts the original objects back.  Nothing under
src/ changes: the wrappers are installed into every sepk module namespace
that holds the function, so calls made through an imported name
(``ktheory`` calling ``canonical_step_data``, ``cli`` calling
``build_generator_matrices``) are traced too.  Hot helpers such as
``SeparatedGraph.edge`` or ``group_label`` are left alone.

A span's self time is its duration minus the time its child spans cover.
The work counting done after a call is excluded from every span, so it
shows only in the trace overhead, never in a layer's self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
import weakref

from sepk import exact_linalg

LAYERS = ("graph_model", "transform", "exact_linalg", "ktheory", "formal_star", "cli")
MAX_STEP_LAYER = 7

# module -> coarse public functions ("Class.method" for methods).
WRAPPED = {
    "graph_model": (
        "parse", "serialize", "to_obj", "validate", "builtin_from_spec",
        "SeparatedGraph.build",
    ),
    "transform": ("canonical_step_data", "canonical_sequence"),
    "exact_linalg": (
        "cokernel_invariants", "smith_normal_form", "kernel_basis", "matrix_rank",
        "hnf_column_basis",
    ),
    "ktheory": (
        "incidence", "IncidencePair.difference", "element_residual", "k_groups_full",
        "k0_tame", "phi_transport", "connecting_map_image",
    ),
    "formal_star": ("build_generator_matrices", "verify_partial_unitary"),
    "cli": ("main",),
}

# (name, unit) of every per-layer metric, in print order.
METRICS = (
    ("transform.self_s", "s"),
    ("transform.step_s", "s"),
    *((f"transform.step_s.L{n}", "s") for n in range(1, MAX_STEP_LAYER + 1)),
    ("transform.vertices_out", "count"),
    ("transform.edges_out", "count"),
    ("transform.name_chars", "chars"),
    ("transform.max_name_len", "chars"),
    ("transform.vertices_per_s", "1/s"),
    ("graph_model.self_s", "s"),
    ("graph_model.build_s", "s"),
    ("graph_model.parse_s", "s"),
    ("graph_model.parse_mb", "MB"),
    ("graph_model.serialize_s", "s"),
    ("graph_model.out_mb", "MB"),
    ("graph_model.validate_calls", "count"),
    ("graph_model.validate_per_graph", "ratio"),
    ("exact_linalg.self_s", "s"),
    ("exact_linalg.smith_s", "s"),
    ("exact_linalg.kernel_s", "s"),
    ("exact_linalg.calls", "count"),
    ("exact_linalg.cells", "count"),
    ("exact_linalg.nnz", "count"),
    ("exact_linalg.density", "ratio"),
    ("exact_linalg.max_out_bits", "bits"),
    ("exact_linalg.cells_per_s", "1/s"),
    ("ktheory.self_s", "s"),
    ("ktheory.incidence_s", "s"),
    ("ktheory.incidence_cells", "count"),
    ("ktheory.incidence_per_graph", "ratio"),
    ("ktheory.difference_s", "s"),
    ("ktheory.residual_s", "s"),
    ("formal_star.self_s", "s"),
    ("formal_star.build_s", "s"),
    ("formal_star.verify_s", "s"),
    ("formal_star.z_cells", "count"),
    ("formal_star.checks", "count"),
    ("formal_star.checks_failed", "count"),
    ("cli.self_s", "s"),
    ("cli.calls", "count"),
    ("cli.stdout_mb", "MB"),
    ("trace.overhead", "ratio"),
    ("trace.unattributed", "ratio"),
)


# work counted at the layer boundaries ----------------------------------------


def _bits(values) -> int:
    return max((abs(x).bit_length() for x in values), default=0)


def _rows_bits(rows) -> int:
    return max((_bits(r) for r in rows), default=0)


def _nnz(rows) -> int:
    return sum(1 for r in rows for x in r if x)


def _count_matrix(tr, args, out, self_s):
    m = args[0]
    tr.add("exact_linalg.cells", len(m.rows) * len(m.cols))
    tr.add("exact_linalg.nnz", _nnz(m.data))
    if isinstance(out, exact_linalg.AbelianGroupInvariants):
        tr.peak("exact_linalg.max_out_bits", _bits(out.factors))
    elif isinstance(out, tuple):  # smith_normal_form: (U, D, V)
        tr.peak("exact_linalg.max_out_bits", max(_rows_bits(x.data) for x in out))
    elif isinstance(out, list):  # kernel_basis
        tr.peak("exact_linalg.max_out_bits", _rows_bits(out))


def _count_vectors(tr, args, out, self_s):
    vectors, dim = args  # hnf_column_basis(vectors, dim)
    tr.add("exact_linalg.cells", len(vectors) * dim)
    tr.add("exact_linalg.nnz", _nnz(vectors))
    tr.peak("exact_linalg.max_out_bits", _rows_bits(out))


def _count_step(tr, args, out, self_s):
    layer = tr.layer_of(args[0]) + 1
    tr.set_layer(out.graph, layer)
    if layer <= MAX_STEP_LAYER:
        tr.add(f"transform.step_s.L{layer}", self_s)
    generated = out.graph.layer1
    edge_ids = [e.id for e in out.graph.edges]
    tr.add("transform.vertices_out", len(generated))
    tr.add("transform.edges_out", len(edge_ids))
    tr.add("transform.name_chars", sum(map(len, generated)) + sum(map(len, edge_ids)))
    tr.peak("transform.max_name_len", max(map(len, (*generated, *edge_ids)), default=0))


def _count_validate(tr, args, out, self_s):
    tr.add("graph_model.validate_calls", 1)
    tr.add("graph_model.validate_graphs", tr.first_in_op("validate", args[0]))


def _count_parse(tr, args, out, self_s):
    data = args[0]
    size = len(data) if isinstance(data, bytes) else len(data.encode("utf-8"))
    tr.add("graph_model.parse_mb", size / 1e6)


def _count_serialize(tr, args, out, self_s):
    tr.add("graph_model.out_mb", len(out) / 1e6)


def _count_incidence(tr, args, out, self_s):
    tr.add("ktheory.incidence_calls", 1)
    tr.add("ktheory.incidence_graphs", tr.first_in_op("incidence", args[0]))
    tr.add("ktheory.incidence_cells", len(out.one.rows) * len(out.one.cols))


def _count_generator(tr, args, out, self_s):
    tr.add("formal_star.z_cells", len(out.z.rows) * len(out.z.cols))


def _count_verify(tr, args, out, self_s):
    tr.add("formal_star.checks", len(out.checks))
    tr.add("formal_star.checks_failed", sum(1 for c in out.checks if not c.ok))


COUNTERS = {
    "graph_model.parse": _count_parse,
    "graph_model.serialize": _count_serialize,
    "graph_model.validate": _count_validate,
    "transform.canonical_step_data": _count_step,
    "exact_linalg.cokernel_invariants": _count_matrix,
    "exact_linalg.smith_normal_form": _count_matrix,
    "exact_linalg.kernel_basis": _count_matrix,
    "exact_linalg.matrix_rank": _count_matrix,
    "exact_linalg.hnf_column_basis": _count_vectors,
    "ktheory.incidence": _count_incidence,
    "formal_star.build_generator_matrices": _count_generator,
    "formal_star.verify_partial_unitary": _count_verify,
}


# the tracer ---------------------------------------------------------------------


class Tracer:
    """Records spans and work counts while installed; inert otherwise."""

    def __init__(self):
        self.spans: list[tuple] = []  # (op, span id, parent id, name, start, end, self_s)
        self.counts: dict[str, float] = {}
        self.op_times: list[float] = []
        self.unattributed = 0.0
        self.counting = 0.0  # time spent counting work, excluded from every layer
        self._next_id = 0
        self._stack: list[list] = []  # [span id, start, child time]
        self._op = -1
        self._op_seen: dict[str, dict[int, weakref.ref]] = {}
        self._layers: dict[int, tuple[weakref.ref, int]] = {}
        self._undo: list[tuple[object, str, object]] = []

    # counters
    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)

    def first_in_op(self, kind: str, obj) -> int:
        """1 the first time obj is seen under kind in the current op, else 0."""
        seen = self._op_seen.setdefault(kind, {})
        ref = seen.get(id(obj))
        if ref is not None and ref() is obj:
            return 0
        seen[id(obj)] = weakref.ref(obj)
        return 1

    # canonical-sequence layer of a graph, for the per-layer step times
    def set_layer(self, g, layer: int) -> None:
        self._layers[id(g)] = (weakref.ref(g), layer)

    def layer_of(self, g) -> int:
        entry = self._layers.get(id(g))
        return entry[1] if entry is not None and entry[0]() is g else 0

    # ops: the benchmark brackets each op so that top-level spans have a parent
    def begin_op(self) -> None:
        self._op += 1
        self._op_seen.clear()
        self._stack = [[None, time.perf_counter(), 0.0]]

    def end_op(self, op_time: float) -> None:
        root = self._stack[0]
        self._stack = []
        self.op_times.append(op_time)
        self.unattributed += max(0.0, op_time - root[2])
        self._layers = {k: v for k, v in self._layers.items() if v[0]() is not None}

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = tracer._stack
            if not stack:  # called outside an op: not traced
                return fn(*args, **kwargs)
            parent = stack[-1]
            tracer._next_id += 1
            frame = [tracer._next_id, clock(), 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self_s = end - frame[1] - frame[2]
                tracer.spans.append((tracer._op, frame[0], parent[0], name, frame[1], end, self_s))
                parent[2] += end - frame[1]
            if count is not None:
                # The counting is nobody's self time: charge it to the tracer.
                t0 = clock()
                count(tracer, args, out, self_s)
                spent = clock() - t0
                parent[2] += spent
                tracer.counting += spent
            return out

        return span

    @contextlib.contextmanager
    def installed(self):
        """Wrap every listed function in every sepk namespace; restore on exit."""
        try:
            wrappers: dict[int, tuple] = {}
            for module, names in WRAPPED.items():
                mod = importlib.import_module(f"sepk.{module}")
                for qual in names:
                    key = f"{module}.{qual.rsplit('.', 1)[-1]}"
                    if "." not in qual:
                        orig = getattr(mod, qual)
                        wrappers[id(orig)] = (orig, self._wrap(key, orig))
                        continue
                    cls_name, attr = qual.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[attr]
                    if isinstance(orig, classmethod):
                        new = classmethod(self._wrap(key, orig.__func__))
                    else:
                        new = self._wrap(key, orig)
                    self._undo.append((cls, attr, orig))
                    setattr(cls, attr, new)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "sepk" and not mod_name.startswith("sepk."):
                    continue
                for attr, value in list(vars(mod).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._undo.append((mod, attr, value))
                        setattr(mod, attr, hit[1])
            yield self
        finally:
            while self._undo:
                obj, attr, orig = self._undo.pop()
                setattr(obj, attr, orig)

    # metrics
    def _self_times(self):
        by_name: dict[str, float] = {}
        for _, _, _, name, _, _, self_s in self.spans:
            by_name[name] = by_name.get(name, 0.0) + self_s
        by_layer = {m: 0.0 for m in LAYERS}
        for name, s in by_name.items():
            by_layer[name.split(".")[0]] += s
        return by_name, by_layer

    def traced_s(self) -> float:
        """Time the traced ops took, less the time spent counting their work."""
        return sum(self.op_times) - self.counting

    def layer_shares(self) -> dict[str, float]:
        """Each layer's share of the traced op time, plus the unattributed share."""
        _, by_layer = self._self_times()
        by_layer["unattributed"] = self.unattributed
        total = self.traced_s()
        return {m: (s / total if total else 0.0) for m, s in by_layer.items()}

    def metrics(self, passes: int, overhead: float):
        """Per-layer metrics: times and counts per traced pass; ratios and peaks as is."""
        by_name, by_layer = self._self_times()

        def total(*names):
            return sum(by_name.get(n, 0.0) for n in names)

        def ratio(a, b):
            return a / b if b else 0.0

        c = self.counts
        summed = {
            **c,
            **{f"{m}.self_s": by_layer[m] for m in LAYERS},
            "transform.step_s": total("transform.canonical_step_data"),
            "graph_model.build_s": total("graph_model.build"),
            "graph_model.parse_s": total("graph_model.parse"),
            "graph_model.serialize_s": total("graph_model.serialize", "graph_model.to_obj"),
            "exact_linalg.smith_s": total(
                "exact_linalg.cokernel_invariants", "exact_linalg.smith_normal_form"),
            "exact_linalg.kernel_s": total(
                "exact_linalg.kernel_basis", "exact_linalg.matrix_rank",
                "exact_linalg.hnf_column_basis"),
            "exact_linalg.calls": sum(1 for s in self.spans if s[3].startswith("exact_linalg.")),
            "cli.calls": sum(1 for s in self.spans if s[3] == "cli.main"),
            "ktheory.incidence_s": total("ktheory.incidence"),
            "ktheory.difference_s": total("ktheory.difference"),
            "ktheory.residual_s": total("ktheory.element_residual"),
            "formal_star.build_s": total("formal_star.build_generator_matrices"),
            "formal_star.verify_s": total("formal_star.verify_partial_unitary"),
        }
        out = {name: summed.get(name, 0) / passes for name, _ in METRICS}
        out.update({
            "transform.max_name_len": c.get("transform.max_name_len", 0),
            "transform.vertices_per_s": ratio(
                c.get("transform.vertices_out", 0), summed["transform.step_s"]),
            "graph_model.validate_per_graph": ratio(
                c.get("graph_model.validate_calls", 0), c.get("graph_model.validate_graphs", 0)),
            "exact_linalg.density": ratio(
                c.get("exact_linalg.nnz", 0), c.get("exact_linalg.cells", 0)),
            "exact_linalg.max_out_bits": c.get("exact_linalg.max_out_bits", 0),
            "exact_linalg.cells_per_s": ratio(
                c.get("exact_linalg.cells", 0), by_layer["exact_linalg"]),
            "ktheory.incidence_per_graph": ratio(
                c.get("ktheory.incidence_calls", 0), c.get("ktheory.incidence_graphs", 0)),
            "trace.overhead": overhead,
            "trace.unattributed": ratio(self.unattributed, self.traced_s()),
        })
        return out
