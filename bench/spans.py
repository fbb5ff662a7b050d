"""Span recorder for the traced benchmark runs.

Spans are kept in memory as (name, start, end, parent) tuples, parent being
the index of the enclosing span or -1.  A layer's self time is its spans'
durations minus the part covered by their child spans.  Wrappers are
installed on the attributes the benchmark calls and on the module globals
where the package looks up its own public functions; nothing in the package
source is edited.
"""

from __future__ import annotations

from time import perf_counter

# starts the stderr line on which bench/cliprobe.py reports to its parent
PROBE_MARK = "stringbands-bench-probe "


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack = [-1]
        self.paused = False

    def wrap(self, name, fn, observe=None):
        """A stand-in for fn that records one span per call.

        observe(args, result) runs after the span closes, so bookkeeping on
        the arguments is not charged to the layer.
        """
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = (name, t0, t1, parent)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def totals(self):
        """{name: [calls, total seconds, self seconds]} over all spans."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, list] = {}
        for (name, t0, t1, _), c in zip(self.spans, child):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - c
        return out


# Public functions and the span each call records, keyed by the name under
# which callers look them up.  Hot inner calls (occurrence counts, band
# tallies) are left unwrapped and measured through their cache counters.
LAYER_CALLS = {
    "load_algebra": "algebra.load",
    "validate_algebra": "algebra.validate",
    "enumerate_strings": "words.enumerate",
    "enumerate_bands": "bands.enumerate",
    "hom_string_string": "hom.string_string",
    "hom_band_string": "hom.band_string",
    "hom_string_band": "hom.string_band",
    "hom_band_band": "hom.band_band",
    "seq_count_from": "hom.seq_count_from",
    "seq_count_into": "hom.seq_count_into",
    "realize_string": "oracle.realize_string",
    "realize_band": "oracle.realize_band",
    "dim_hom": "oracle.dim_hom",
    "syzygy": "oracle.syzygy",
    "dim_ext1": "oracle.dim_ext1",
    "extendable": "components.extendable",
    "negligible": "components.negligible",
    "decide_component": "components.decide",
    "split_band": "components.rewrite",
    "reverse_piece": "components.rewrite",
    "concat_extension": "components.rewrite",
}


def install_layers(tracer: Tracer, counters: "Counters", modules) -> None:
    """Wrap every LAYER_CALLS entry that each module defines or imports.

    Pass the modules whose globals the package's own callers read (oracle
    for dim_ext1 and syzygy, components for decide_component) together with
    the module the benchmark calls through.
    """
    observers = {
        "dim_hom": counters.dim_hom,
        "extendable": counters.search,
        "negligible": counters.search,
    }
    for module in modules:
        for attr, name in LAYER_CALLS.items():
            if hasattr(module, attr):
                fn = getattr(module, attr)
                setattr(module, attr, tracer.wrap(name, fn, observers.get(attr)))


class _Key:
    """A module as a set or dict key, hashed once instead of on every lookup."""

    __slots__ = ("value", "hash")

    def __init__(self, value):
        self.value = value
        self.hash = hash(value)

    def __hash__(self):
        return self.hash

    def __eq__(self, other):
        return self.hash == other.hash and self.value == other.value


class Counters:
    """Exact counts taken from outside the program.

    unknowns is the sum over vertices v of |X_v| * |Y_v| read from the
    public grading, rank is unknowns minus dim_hom, nnz counts the nonzero
    entries of both modules' mats.  Every dim_hom call counts, cache hits
    included; repeats are calls whose (X, Y) already occurred.
    """

    EXACT = (
        "oracle.dim_hom_calls",
        "oracle.unknowns_total",
        "oracle.rank_total",
        "oracle.module_nnz",
        "components.searches",
    )

    def __init__(self):
        self.dim_hom_calls = 0
        self.unknowns_total = 0
        self.unknowns_max = 0
        self.rank_total = 0
        self.module_nnz = 0
        self.repeats = 0
        self.searches = 0
        self.witnesses = 0
        self._modules: dict[int, tuple] = {}
        self._pairs: set = set()

    def _module(self, X):
        entry = self._modules.get(id(X))
        if entry is None or entry[0] is not X:
            nnz = sum(1 for _, m in X.mats for row in m for x in row if x)
            sizes = {u: len(idx) for u, idx in X.grading}
            entry = (X, _Key(X), nnz, sizes)
            self._modules[id(X)] = entry
        return entry

    def dim_hom(self, args, result):
        _, kx, nx, sx = self._module(args[0])
        _, ky, ny, sy = self._module(args[1])
        unknowns = sum(n * sy.get(u, 0) for u, n in sx.items())
        self.dim_hom_calls += 1
        self.unknowns_total += unknowns
        self.unknowns_max = max(self.unknowns_max, unknowns)
        self.rank_total += unknowns - result
        self.module_nnz += nx + ny
        pair = (kx, ky)
        if pair in self._pairs:
            self.repeats += 1
        else:
            self._pairs.add(pair)

    def search(self, args, result):
        self.searches += 1
        self.witnesses += result is not None

    def as_dict(self) -> dict:
        return {
            "oracle.dim_hom_calls": self.dim_hom_calls,
            "oracle.unknowns_total": self.unknowns_total,
            "oracle.unknowns_max": self.unknowns_max,
            "oracle.rank_total": self.rank_total,
            "oracle.module_nnz": self.module_nnz,
            "oracle.dim_hom_repeats": self.repeats,
            "components.searches": self.searches,
            "components.witnesses": self.witnesses,
        }
