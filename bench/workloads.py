"""The in-process workloads: operation lists made from a seed, one timed call
per operation, and the correctness checks run outside the timed region.

Every workload takes the freshly imported package module and the validated
fixture specs, so one round never sees another round's caches.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

FIXTURES = ("two_loops_rad2", "two_loops_cubic", "kronecker", "dumbbell")

# Integer and non-integer band parameters; the non-integers exercise the
# Fraction-to-integer row scaling in the oracle.  Every hom and Ext value
# the workloads check is the same for any two distinct members.
POOL = tuple(
    Fraction(p) for p in ("2", "3", "5", "7/2", "-1", "2/3", "11/5")
)


def load_fixtures(sb, root):
    """Load and validate the four reference algebras, in a fixed order."""
    specs = {}
    for name in FIXTURES:
        spec = sb.load_algebra(root / "fixtures" / f"{name}.alg")
        report = sb.validate_algebra(spec)
        if not report.valid:
            raise RuntimeError(f"fixture {name} fails validation: {report.violations}")
        specs[name] = spec
    return specs


def band_text(sb, B) -> str:
    return sb.format_word(B.canonical.as_word())


def digest(lines) -> str:
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()[:16]


class Workload:
    """One round of a workload: ops, a timed step and an untimed check.

    strings/classes count what setup enumerated; finish() runs after the
    timed loop and returns {op index: reason} for operations whose answers
    a whole-round check rejected.

    tail_percentile leaves at least 10 of one round's operations beyond it.
    round_s is about what one round took at the seed commit on a 2-core
    Xeon; it fixes the number of timed rounds for a given --seconds, so a
    faster program gets the same number of rounds, just sooner.
    """

    tail_percentile = 99.0
    round_s = 2.0

    def __init__(self, sb, specs, seed):
        self.sb = sb
        self.specs = specs
        self.rng = random.Random(seed)
        self.strings = 0
        self.classes = 0
        self.ops: list = []

    def enumerate(self, spec, max_len, max_period):
        strings = self.sb.enumerate_strings(spec, max_len)
        bands = self.sb.enumerate_bands(spec, max_period)
        self.strings += len(strings)
        self.classes += len(bands)
        return strings, bands

    def do(self, op):
        raise NotImplementedError

    def check(self, i, op, result) -> bool:
        raise NotImplementedError

    def finish(self) -> dict:
        return {}


def _hom_grid_ops(wl, max_len, max_period):
    """(kind, fixture, source, target, lambda, mu) for every pair of the grid."""
    ops = []
    draw = wl.rng.choice
    for fx, spec in wl.specs.items():
        strings, bands = wl.enumerate(spec, max_len, max_period)
        for c in strings:
            for d in strings:
                ops.append(("ss", fx, c, d, None, None))
        for B in bands:
            for c in strings:
                ops.append(("bs", fx, B, c, draw(POOL), None))
                ops.append(("sb", fx, c, B, None, draw(POOL)))
        for B in bands:
            for C in bands:
                lam, mu = wl.rng.sample(POOL, 2)
                ops.append(("bb", fx, B, C, lam, mu))
    wl.rng.shuffle(ops)
    return ops


def _count(sb, spec, kind, x, y):
    if kind == "ss":
        return sb.hom_string_string(spec, x, y)
    if kind == "bs":
        return sb.hom_band_string(spec, x, y)
    if kind == "sb":
        return sb.hom_string_band(spec, x, y)
    return sb.hom_band_band(spec, x, y)


def _realize(sb, spec, kind, x, param):
    if kind == "s":
        return sb.realize_string(spec, x)
    return sb.realize_band(spec, x, param)


def _oracle(sb, spec, kind, x, y, lam, mu):
    X = _realize(sb, spec, kind[0], x, lam)
    Y = _realize(sb, spec, kind[1], y, mu)
    return sb.dim_hom(X, Y)


class HomGrid(Workload):
    """Counted hom against the oracle on every pair: strings <= 4, bands <= 6."""

    def __init__(self, sb, specs, seed):
        super().__init__(sb, specs, seed)
        self.ops = _hom_grid_ops(self, 4, 6)

    def do(self, op):
        kind, fx, x, y, lam, mu = op
        spec = self.specs[fx]
        return _count(self.sb, spec, kind, x, y), _oracle(self.sb, spec, kind, x, y, lam, mu)

    def check(self, i, op, result):
        return result[0] == result[1]


class HomCounts(Workload):
    """Counted hom only, strings <= 7 and bands <= 8; the oracle is never
    called while timing.  Answers are checked against digests recorded for
    the whole grid and, on a seeded sample, against dim_hom afterwards."""

    tail_percentile = 99.9
    SAMPLE = 48

    def __init__(self, sb, specs, seed, expected):
        super().__init__(sb, specs, seed)
        self.ops = _hom_grid_ops(self, 7, 8)
        self.expected = expected
        self.sample_rng = random.Random(seed + 1)
        self.results: list = [None] * len(self.ops)

    def do(self, op):
        kind, fx, x, y, _, _ = op
        return _count(self.sb, self.specs[fx], kind, x, y)

    def check(self, i, op, result):
        self.results[i] = result
        return isinstance(result, int) and result >= 0

    def _text(self, kind, x):
        return self.sb.format_word(x) if kind == "s" else band_text(self.sb, x)

    def finish(self):
        bad = {}
        lines: dict[str, list[str]] = {fx: [] for fx in self.specs}
        members: dict[str, list[int]] = {fx: [] for fx in self.specs}
        for i, (op, dim) in enumerate(zip(self.ops, self.results)):
            if dim is None:
                continue
            kind, fx, x, y, _, _ = op
            lines[fx].append(f"{kind} {self._text(kind[0], x)} {self._text(kind[1], y)} {dim}")
            members[fx].append(i)
        for fx in self.specs:
            if digest(lines[fx]) != self.expected.get(fx):
                bad.update((i, f"{fx} digest differs") for i in members[fx])
        done = [i for i, r in enumerate(self.results) if r is not None]
        for i in self.sample_rng.sample(done, min(self.SAMPLE, len(done))):
            kind, fx, x, y, _, _ = self.ops[i]
            lam, mu = self.sample_rng.sample(POOL, 2)
            if _oracle(self.sb, self.specs[fx], kind, x, y, lam, mu) != self.results[i]:
                bad[i] = "count differs from dim_hom"
        return bad


class ExtSurvey(Workload):
    """Band pairs with period <= 7: extendable + decide_component + Ext^1,
    then Ext^1 both ways between strings <= 3 and those bands.  lambda and
    mu are fixed per fixture from the seed."""

    tail_percentile = 98.0
    round_s = 2.5

    def __init__(self, sb, specs, seed, expected):
        super().__init__(sb, specs, seed)
        self.expected = expected
        self.quadratic = {fx: all(len(r) == 2 for r in s.relations) for fx, s in specs.items()}
        ops = []
        for fx, spec in specs.items():
            lam, mu = self.rng.sample(POOL, 2)
            strings, bands = self.enumerate(spec, 3, 7)
            for B in bands:
                for C in bands:
                    ops.append(("pair", fx, B, C, lam, mu))
            for B in bands:
                for c in strings:
                    ops.append(("sb", fx, c, B, None, mu))
                    ops.append(("bs", fx, B, c, lam, None))
        self.rng.shuffle(ops)
        self.ops = ops
        self.results: list = [None] * len(ops)

    def do(self, op):
        kind, fx, x, y, lam, mu = op
        sb, spec = self.sb, self.specs[fx]
        if kind != "pair":
            X = _realize(sb, spec, kind[0], x, lam)
            Y = _realize(sb, spec, kind[1], y, mu)
            return sb.dim_ext1(X, Y)
        witness = sb.extendable(spec, x, y)
        verdict = sb.decide_component(spec, [x, y])
        ext = sb.dim_ext1(sb.realize_band(spec, x, lam), sb.realize_band(spec, y, mu))
        return witness, verdict, ext

    def check(self, i, op, result):
        kind, fx, x, y, _, _ = op
        if kind != "pair":
            self.results[i] = result
            return isinstance(result, int) and result >= 0
        witness, verdict, ext = result
        self.results[i] = ext
        if (witness is None) != (ext == 0):
            return False
        sb, spec = self.sb, self.specs[fx]
        refuted = (
            witness is not None
            or sb.extendable(spec, y, x) is not None
            or sb.negligible(spec, x) is not None
            or sb.negligible(spec, y) is not None
        )
        if refuted:
            return verdict.status == "NotComponent"
        return verdict.status == ("IsComponent" if self.quadratic[fx] else "Unknown")

    def finish(self):
        bad = {}
        lines: dict[str, list[str]] = {fx: [] for fx in self.specs}
        members: dict[str, list[int]] = {fx: [] for fx in self.specs}
        fmt = self.sb.format_word
        for i, (op, ext) in enumerate(zip(self.ops, self.results)):
            if ext is None:
                continue
            kind, fx, x, y, _, _ = op
            if kind == "pair":
                text = f"{band_text(self.sb, x)} {band_text(self.sb, y)}"
            elif kind == "sb":
                text = f"{fmt(x)} {band_text(self.sb, y)}"
            else:
                text = f"{band_text(self.sb, x)} {fmt(y)}"
            lines[fx].append(f"{kind} {text} {ext}")
            members[fx].append(i)
        for fx in self.specs:
            if digest(lines[fx]) != self.expected.get(fx):
                bad.update((i, f"{fx} digest differs") for i in members[fx])
        return bad
