#!/usr/bin/env python3
"""Cross-check combinatorial hom counts against the matrix oracle.

Enumerates strings and bands of an algebra up to the given bounds, computes
every hom dimension twice (occurrence counting vs. exact rational linear
algebra on realized modules) and reports mismatches.  Each band class is
also checked against itself at one parameter, where both ends are the same
module and the count includes the identity.  Exit status 1 on any
disagreement, 2 on a usage fault or an algebra file that cannot be read or
parsed, 3 on an algebra that is not a string algebra.

    python3 scripts/oracle_crosscheck.py fixtures/kronecker.alg --max-len 5 --max-period 4
"""

import argparse
import itertools
import sys
import time
from fractions import Fraction

from stringbands import (
    InvalidAlgebra,
    ParseError,
    dim_hom,
    enumerate_bands,
    enumerate_strings,
    format_word,
    hom_band_band,
    hom_band_string,
    hom_string_band,
    hom_string_string,
    load_algebra,
    realize_band,
    realize_string,
    require_string_algebra,
)
from stringbands.cli import _fraction, nonnegative_int, run


def parameter_pair(text: str) -> tuple[Fraction, Fraction]:
    """argparse type for --params: two nonzero rationals, comma-separated."""
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"need two comma-separated rationals: {text!r}")
    lam, mu = (_fraction(p) for p in parts)
    if lam == 0 or mu == 0:
        raise argparse.ArgumentTypeError(f"band parameters must be nonzero: {text!r}")
    return lam, mu


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("file", help="algebra description file")
    ap.add_argument("--max-len", type=nonnegative_int, default=4,
                    help="string length bound (default 4)")
    ap.add_argument("--max-period", type=nonnegative_int, default=4,
                    help="band period bound (default 4)")
    ap.add_argument("--params", type=parameter_pair, default="2,3",
                    help="two distinct nonzero band parameters (default 2,3); "
                         "write a negative one as --params=-1,2")
    args = ap.parse_args(argv)

    try:
        spec = require_string_algebra(load_algebra(args.file))
    except (OSError, ParseError) as exc:
        print(f"{args.file}: cannot load algebra: {exc}", file=sys.stderr)
        return 2
    except InvalidAlgebra as exc:
        print(f"{args.file}: invalid algebra: {exc}", file=sys.stderr)
        return 3
    lam, mu = args.params
    if lam == mu:
        ap.error("band parameters must be distinct")

    strings = enumerate_strings(spec, args.max_len)
    bands = enumerate_bands(spec, args.max_period)
    smods = {w: realize_string(spec, w) for w in strings}
    bmods = {(cls, p): realize_band(spec, cls, p)
             for cls in bands for p in (lam, mu)}

    checks = 0
    bad = []
    started = time.perf_counter()

    def check(kind, label, counted, left, right):
        nonlocal checks
        checks += 1
        measured = dim_hom(left, right)
        if counted != measured:
            bad.append((kind, label, counted, measured))

    for v, w in itertools.product(strings, repeat=2):
        check("str-str", f"{format_word(v)} -> {format_word(w)}",
              hom_string_string(spec, v, w), smods[v], smods[w])
    for cls, w in itertools.product(bands, strings):
        name = format_word(cls.canonical.as_word())
        check("band-str", f"{name}({lam}) -> {format_word(w)}",
              hom_band_string(spec, cls, w), bmods[(cls, lam)], smods[w])
        check("str-band", f"{format_word(w)} -> {name}({lam})",
              hom_string_band(spec, w, cls), smods[w], bmods[(cls, lam)])
    for B, C in itertools.product(bands, repeat=2):
        nb = format_word(B.canonical.as_word())
        nc = format_word(C.canonical.as_word())
        check("band-band", f"{nb}({lam}) -> {nc}({mu})",
              hom_band_band(spec, B, C), bmods[(B, lam)], bmods[(C, mu)])
    for B in bands:
        # one module on both ends: the count includes the identity
        nb = format_word(B.canonical.as_word())
        check("band-self", f"{nb}({lam}) -> {nb}({lam})",
              hom_band_band(spec, B, B, same_module=True), bmods[(B, lam)], bmods[(B, lam)])

    elapsed = time.perf_counter() - started
    print(f"{args.file}: {len(strings)} strings, {len(bands)} band classes, "
          f"params {lam},{mu}")
    print(f"{checks} hom dimensions checked in {elapsed:.1f}s")
    if bad:
        print(f"{len(bad)} MISMATCHES:")
        for kind, label, counted, measured in bad:
            print(f"  [{kind}] {label}: counted {counted}, oracle {measured}")
        return 1
    print("all counts agree with the oracle")
    return 0


if __name__ == "__main__":
    run(main)
