#!/usr/bin/env python3
"""Survey component verdicts for the band families of an algebra.

Walks every band class up to a period bound, decides singleton component
status, then does the same for unordered pairs of classes.  Witnesses are
shown in compact form.

    python3 scripts/component_survey.py fixtures/two_loops_cubic.alg --max-period 6
"""

import argparse
import itertools
import sys

from stringbands import (
    Case1Witness,
    InvalidAlgebra,
    ParseError,
    band_dimension,
    decide_component,
    enumerate_bands,
    format_word,
    load_algebra,
    require_string_algebra,
)
from stringbands.cli import nonnegative_int, run


def describe_negligible(wit):
    if wit is None:
        return "-"
    if isinstance(wit, Case1Witness):
        pieces = " + ".join(format_word(p) for p in wit.pieces)
        return f"case1 n={wit.n} -> {pieces}"
    return (
        f"case2 w={format_word(wit.w)} u={format_word(wit.u)}"
        f" v={format_word(wit.v)}"
    )


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("file", help="algebra description file")
    ap.add_argument("--max-period", type=nonnegative_int, default=6)
    ap.add_argument("--pairs", action="store_true",
                    help="also decide every unordered pair of classes")
    args = ap.parse_args(argv)

    try:
        spec = require_string_algebra(load_algebra(args.file))
    except (OSError, ParseError) as exc:
        print(f"{args.file}: cannot load algebra: {exc}", file=sys.stderr)
        return 2
    except InvalidAlgebra as exc:
        print(f"{args.file}: invalid algebra: {exc}", file=sys.stderr)
        return 3
    classes = enumerate_bands(spec, args.max_period)
    print(f"{args.file}: {len(classes)} band classes of period <= {args.max_period}\n")

    width = max((len(format_word(c)) for c in classes), default=10)
    print(f"{'class':<{width}}  dim  verdict       negligible")
    for cls in classes:
        verdict = decide_component(spec, [cls])
        line = (
            f"{format_word(cls):<{width}}  {band_dimension(cls):>3}"
            f"  {verdict.status:<12}"
        )
        if verdict.dimension is not None:
            line += f" dim {verdict.dimension:<4}"
        else:
            line += " " * 9
        print(line + describe_negligible(dict(verdict.witnesses).get((0,))))

    if not args.pairs:
        return 0

    print("\nunordered pairs")
    for B, C in itertools.combinations_with_replacement(classes, 2):
        verdict = decide_component(spec, [B, C])
        tag = verdict.status
        if verdict.dimension is not None:
            tag += f" dim {verdict.dimension}"
        joins = [format_word(wit.d) for ix, wit in verdict.witnesses if len(ix) == 2]
        extra = f"  joins: {', '.join(joins)}" if joins else ""
        print(f"  [{format_word(B)}, {format_word(C)}]  {tag}{extra}")
    return 0


if __name__ == "__main__":
    run(main)
