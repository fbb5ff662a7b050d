#!/usr/bin/env python3
"""Time counted hom against the matrix oracle on long inputs over dumbbell.

Two series, each on a freshly loaded algebra per size, so every tally starts
cold:

- a string w of n = 100, 200, 400, 800 letters repeating x.a^-1.y.a,
  counted by hom_string_string(w, w) against dim_hom(M(w), M(w));
- with p = x.a^-1.y.a and q = x.a^-1.y^-1.a, dumbbell's two bands of
  period 4, the bands B = p^k q and C = q^k p for k = 8, 16, 32, 64
  (periods 36, 68, 132, 260), counted by hom_band_band(B, C) against dim_hom
  of their realizations at parameters 2 and 3, and the quadratic criterion
  extendable_quadratic(B, C) against the search extendable(B, C).

Each line gives the count and the milliseconds of the count, of realizing
the modules, of dim_hom and of syzygy of the realized modules, each cold,
and the ratio of the counted time to the dim_hom time (counted/oracle); a
string line after the first also gives the exponent e with counted
time growing as n^e since the size before, and a band line the milliseconds
of extendable_quadratic.  Under each line, what the algebra object kept
(`AlgebraSpec.kept_sizes`): its trie's nodes and band tallies, then the
entries of every table it keeps (`words.KEPT`), its classes among them;
nothing gates on these.  Exit status 1 when a count differs from dim_hom,
when extendable_quadratic finds a witness where extendable finds none or the
other way round, when a syzygy read off the line table differs from the
one found by elimination, or when the columns a kept projective cover
holds differ from a fresh read of its P0 (`_columns`, the oracle's one
column view; neither check is timed).  Both syzygy paths read P0's action
from the kept columns, so only the last check sees a fault in them.
--steps s runs the s smallest sizes of each series.

    PYTHONPATH=src python3 scripts/scaling.py
"""

import argparse
import time
from math import log
from pathlib import Path

from stringbands import (
    canonical_class,
    dim_hom,
    extendable,
    extendable_quadratic,
    hom_band_band,
    hom_string_string,
    load_algebra,
    parse_word,
    realize_band,
    realize_string,
    syzygy,
)
from stringbands.cli import run
from stringbands.oracle import _columns, _presentation

DUMBBELL = Path(__file__).resolve().parent.parent / "fixtures" / "dumbbell.alg"
P, Q = "x.a^-1.y.a", "x.a^-1.y^-1.a"


def timed(fn):
    started = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - started


def string_case(n: int):
    spec = load_algebra(DUMBBELL)
    w = parse_word(".".join([P] * (n // 4)))
    realize = lambda: (realize_string(spec, w),) * 2
    return f"string n={n}", lambda: hom_string_string(spec, w, w), realize, spec, None


def band_case(k: int):
    spec = load_algebra(DUMBBELL)
    B = canonical_class(spec, parse_word(".".join([P] * k + [Q])))
    C = canonical_class(spec, parse_word(".".join([Q] * k + [P])))
    realize = lambda: (realize_band(spec, B, 2), realize_band(spec, C, 3))
    return f"bands m=n={B.period}", lambda: hom_band_band(spec, B, C), realize, spec, (spec, B, C)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--steps", type=int, choices=(1, 2, 3, 4), default=4,
                    help="sizes run per series, smallest first (default 4)")
    args = ap.parse_args(argv)
    cases = [(string_case, n) for n in (100, 200, 400, 800)[: args.steps]]
    cases += [(band_case, k) for k in (8, 16, 32, 64)[: args.steps]]
    bad = 0
    before = None  # (n, counted seconds) of the string size before
    for make, size in cases:
        label, count, realize, spec, pair = make(size)
        modules, realize_s = timed(realize)
        counted, counted_s = timed(count)
        oracle, oracle_s = timed(lambda: dim_hom(*modules))
        distinct = list(dict.fromkeys(modules))
        syzygies, syzygy_s = timed(lambda: [syzygy(M) for M in distinct])
        extra = ""
        if make is string_case:
            if before:
                extra = f"  growth n^{log(counted_s / before[1]) / log(size / before[0]):.2f}"
            before = (size, counted_s)
        else:
            witness, quadratic_s = timed(lambda: extendable_quadratic(*pair))
            extra = f"  quadratic {quadratic_s * 1e3:9.2f} ms"
            if (witness is None) != (extendable(*pair) is None):
                extra += "  MISMATCH: extendable"
                bad += 1
        verdict = "" if counted == oracle else f"  MISMATCH: oracle {oracle}"
        bad += counted != oracle
        if syzygies != [_presentation(M, False) for M in distinct]:
            verdict += "  MISMATCH: echelon syzygy"
            bad += 1
        if any(maps != _columns(P0) for P0, maps in spec.covers.values()):
            verdict += "  MISMATCH: kept cover maps"
            bad += 1
        print(f"{label:<16} hom {counted:>4}  counted {counted_s * 1e3:9.2f} ms  "
              f"realize {realize_s * 1e3:8.2f} ms  oracle {oracle_s * 1e3:9.2f} ms  "
              f"counted/oracle {counted_s / oracle_s:5.2f}  syzygy {syzygy_s * 1e3:8.2f} ms{extra}{verdict}")
        sizes = spec.kept_sizes()
        print(f"{'':<16} kept: trie {sizes.pop('middle_trie')} nodes, band_tallies {sizes.pop('band_tallies')}")
        print(f"{'':<16} tables: " + ", ".join(f"{name} {n}" for name, n in sizes.items()))
    return 1 if bad else 0


if __name__ == "__main__":
    run(main)
