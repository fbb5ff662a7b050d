#!/usr/bin/env python3
"""Cross-check combinatorial hom counts against the matrix oracle.

Enumerates strings and bands of an algebra up to the given bounds and takes
as modules each string and each band class at both parameters.  For every
ordered pair of modules it computes the hom dimension twice (`count_hom`'s
occurrence counting vs. exact rational linear algebra on the realized
modules) and reports mismatches.  A band class against itself at one
parameter is one module on both ends, and the count includes the identity;
at the two parameters it does not.  Exit status 1 on any
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
    count_hom,
    dim_hom,
    enumerate_bands,
    enumerate_strings,
    format_word,
    load_algebra,
    realize_band,
    realize_string,
    require_string_algebra,
)
from stringbands.cli import nonnegative_int, rational, run


def parameter_pair(text: str) -> tuple[Fraction, Fraction]:
    """argparse type for --params: two nonzero rationals, comma-separated."""
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"need two comma-separated rationals: {text!r}")
    lam, mu = (rational(p) for p in parts)
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
    # (value, parameter, label, realization) of each string and each band
    # class at both parameters
    modules = [(w, None, format_word(w), realize_string(spec, w)) for w in strings]
    modules += [(cls, p, f"{format_word(cls)}({p})", realize_band(spec, cls, p))
                for cls in bands for p in (lam, mu)]

    bad = []
    started = time.perf_counter()
    for (x, p, nx, X), (y, q, ny, Y) in itertools.product(modules, repeat=2):
        counted, measured = count_hom(spec, x, y, p, q), dim_hom(X, Y)
        if counted != measured:
            bad.append((f"{nx} -> {ny}", counted, measured))

    elapsed = time.perf_counter() - started
    print(f"{args.file}: {len(strings)} strings, {len(bands)} band classes, "
          f"params {lam},{mu}")
    print(f"{len(modules) ** 2} hom dimensions checked in {elapsed:.1f}s")
    if bad:
        print(f"{len(bad)} MISMATCHES:")
        for label, counted, measured in bad:
            print(f"  {label}: counted {counted}, oracle {measured}")
        return 1
    print("all counts agree with the oracle")
    return 0


if __name__ == "__main__":
    run(main)
