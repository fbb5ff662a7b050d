"""Command-line front end.

Every subcommand prints one JSON document on stdout with a fixed key order,
so outputs are byte-stable for golden tests.  `main` loads the algebra
file once and, for every subcommand but `validate`, refuses one that is not
a string algebra; each handler takes the loaded spec.  One `except` in
`main` maps a failure to its exit code: 2 parse error (an unreadable file
among them), 3 domain-precondition error, 4 internal invariant violation;
0 is success.  A process ends through `run`, which exits with `main`'s
status as soon as the output is flushed; a reader that closes stdout early
ends the run quietly.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction
from typing import NoReturn

from .algebra import (
    is_gentle_algebra,
    load_algebra,
    require_string_algebra,
    validate_algebra,
)
from .bands import BandClass, QuasiBand, band_parameter, canonical_class, enumerate_bands
from .components import (
    Case1Witness,
    Case2Witness,
    ExtendabilityWitness,
    concat_extension,
    decide_component,
    extendable,
    negligible,
    reverse_piece,
    split_band,
)
from .errors import DomainError, InvalidWitness, NotAString, NotBand, ParseError
from .hom import count_hom, make_sequence
from .oracle import dim_hom, realize_band, realize_string
from .words import Word, canonical_word, enumerate_strings, format_word, is_string, parse_word

_PARAMETER_POOL = (Fraction(2), Fraction(3), Fraction(5))


def _result(command, inputs, result, witnesses=None):
    out = {"command": command, "inputs": inputs, "result": result}
    if witnesses:
        out["witnesses"] = witnesses
    return out


def _class_or_none(spec, qb):
    try:
        return format_word(canonical_class(spec, qb))
    except NotBand:
        return None


_KINDS = {
    ExtendabilityWitness: "extendable",
    Case1Witness: "negligible-case1",
    Case2Witness: "negligible-case2",
}
_RENAMED = {"d": "concat", "reversed_band": "reversed"}


def _fmt_witness(wit) -> dict:
    """The witness's fields in order, with d printed as concat and
    reversed_band as reversed."""
    out = {}
    for key, value in wit._asdict().items():
        if isinstance(value, (QuasiBand, Word)):
            value = format_word(value)
        elif isinstance(value, tuple):
            value = [format_word(p) for p in value]
        out[_RENAMED.get(key, key)] = value
    return out


def cmd_validate(args, spec) -> dict:
    report = validate_algebra(spec)
    result = {
        "valid": report.valid,
        "violations": [list(v) for v in report.violations],
        "quadratic": report.quadratic,
        "admissibility_bound": report.admissibility_bound,
        "redundant_relations": [".".join(r) for r in report.redundant_relations],
        "gentle_vertices": None,
        "gentle": None,
    }
    if report.valid:
        result["gentle_vertices"] = [u for u in spec.vertices if spec.gentle[u]]
        result["gentle"] = is_gentle_algebra(spec)
    return _result("validate", {"file": args.file}, result)


def cmd_enumerate(args, spec) -> dict:
    listed = enumerate_strings if args.kind == "strings" else enumerate_bands
    entries = [format_word(x) for x in listed(spec, args.max_len)]
    inputs = {"file": args.file, "kind": args.kind, "max_len": args.max_len}
    return _result("enumerate", inputs, {"count": len(entries), "entries": entries})


def _parse_module(spec, text: str):
    """The module that string:<word> or band:<word> names: its canonical
    string word or band class."""
    if text.startswith("string:"):
        word = parse_word(text[len("string:") :])
        if not is_string(spec, word):
            raise NotAString(text[len("string:") :])
        return canonical_word(spec, word)
    if text.startswith("band:"):
        return canonical_class(spec, parse_word(text[len("band:") :]))
    raise ParseError(f"module must be string:<word> or band:<word>, got {text!r}")


def _fmt_module(x) -> str:
    return f"{'band' if isinstance(x, BandClass) else 'string'}:{format_word(x)}"


def cmd_hom(args, spec) -> dict:
    src = _parse_module(spec, args.src)
    dst = _parse_module(spec, args.dst)
    lam, mu = (None if p is None else band_parameter(p) for p in (args.lam, args.mu))
    inputs = {
        "file": args.file,
        "from": _fmt_module(src),
        "to": _fmt_module(dst),
        "oracle": args.oracle,
        "lambda": str(lam) if lam is not None else None,
        "mu": str(mu) if mu is not None else None,
        "seed": args.seed,
    }
    if args.oracle:
        src_band, dst_band = isinstance(src, BandClass), isinstance(dst, BandClass)
        # a string has no parameter: one given for it is echoed, never used
        lam = lam if src_band else None
        mu = mu if dst_band else None
        rng = random.Random(args.seed)
        if src_band and lam is None:
            lam = rng.choice(_PARAMETER_POOL)
            if lam == mu:  # an explicit --mu: draw again from the rest of the pool
                lam = rng.choice([p for p in _PARAMETER_POOL if p != mu])
        if dst_band and mu is None:
            mu = rng.choice([p for p in _PARAMETER_POOL if p != lam])
        X = realize_band(spec, src, lam) if src_band else realize_string(spec, src)
        Y = realize_band(spec, dst, mu) if dst_band else realize_string(spec, dst)
        result = {
            "dim": dim_hom(X, Y),
            "backend": "oracle",
            "lambda": str(lam) if lam is not None else None,
            "mu": str(mu) if mu is not None else None,
        }
    else:
        result = {"dim": count_hom(spec, src, dst, lam, mu), "backend": "counts", "lambda": None, "mu": None}
    return _result("hom", inputs, result)


def cmd_component(args, spec) -> dict:
    words = [parse_word(w) for w in args.bands.split(",") if w.strip()]
    if not words:
        raise ParseError("--bands needs at least one band word")
    seq = make_sequence(spec, words)
    verdict = decide_component(spec, seq)
    witnesses = []
    for ix, wit in verdict.witnesses:
        at = {"class": ix[0]} if len(ix) == 1 else {"pair": list(ix)}
        witnesses.append({"kind": _KINDS[type(wit)], **at, **_fmt_witness(wit)})
    inputs = {"file": args.file, "bands": [format_word(c) for c in seq.classes]}
    result = {
        "status": verdict.status,
        "reasons": list(verdict.reasons),
        "dimension": verdict.dimension,
    }
    return _result("component", inputs, result, witnesses)


def cmd_degenerate(args, spec) -> dict:
    band_word = parse_word(args.band)
    inputs = {"file": args.file, "band": args.band, "mode": args.mode}
    if args.mode == "reverse":
        if args.w is None or args.u is None or args.v is None:
            raise ParseError("reverse mode needs --w, --u and --v")
        inputs.update(w=args.w, u=args.u, v=args.v)
        out = reverse_piece(
            spec,
            band_word,
            parse_word(args.w),
            parse_word(args.u),
            parse_word(args.v),
        )
        result = {
            "rotation": format_word(out),
            "dominating": _class_or_none(spec, out),
        }
    elif args.mode == "split":
        wit = negligible(spec, canonical_class(spec, band_word))
        if not isinstance(wit, Case1Witness):
            raise InvalidWitness("band admits no case 1 witness")
        pieces = split_band(spec, wit)
        result = {**_fmt_witness(wit), "piece_classes": [_class_or_none(spec, p) for p in pieces]}
    else:
        if args.other is None:
            raise ParseError("concat mode needs --with")
        inputs["with"] = args.other
        wit = extendable(spec, band_word, parse_word(args.other))
        if wit is None:
            raise InvalidWitness("pair is not extendable")
        d = concat_extension(spec, wit)
        result = {**_fmt_witness(wit), "class": _class_or_none(spec, d)}
    return _result("degenerate", inputs, result)


def rational(text: str) -> Fraction:
    """argparse type for band parameters: an exact rational."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def nonnegative_int(text: str) -> int:
    """argparse type for length and period bounds."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative: {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stringbands",
        description="string and band module calculator for string algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    file_arg = argparse.ArgumentParser(add_help=False)
    file_arg.add_argument("file")

    p = sub.add_parser("validate", parents=[file_arg], help="check the algebra axioms")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("enumerate", parents=[file_arg], help="list strings or band classes")
    p.add_argument("kind", choices=("strings", "bands"))
    p.add_argument("--max-len", type=nonnegative_int, required=True)
    p.set_defaults(handler=cmd_enumerate)

    p = sub.add_parser("hom", parents=[file_arg], help="hom dimension between two modules")
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dst", required=True)
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--lambda", dest="lam", type=rational, default=None,
                   help="parameter of a --from band, an exact rational; "
                        "write a negative fraction as --lambda=-2/3")
    p.add_argument("--mu", dest="mu", type=rational, default=None,
                   help="parameter of a --to band; write a negative fraction as --mu=-2/3")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_hom)

    p = sub.add_parser("component", parents=[file_arg], help="decide a band sequence's closure")
    p.add_argument("--bands", required=True, help="comma separated band words")
    p.set_defaults(handler=cmd_component)

    p = sub.add_parser("degenerate", parents=[file_arg], help="rewrite a band along a degeneration")
    p.add_argument("--band", required=True)
    p.add_argument("--mode", choices=("reverse", "split", "concat"), required=True)
    p.add_argument("--w", default=None)
    p.add_argument("--u", default=None)
    p.add_argument("--v", default=None)
    p.add_argument("--with", dest="other", default=None)
    p.set_defaults(handler=cmd_degenerate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        spec = load_algebra(args.file)
        if args.command != "validate":
            require_string_algebra(spec)
        payload = args.handler(args, spec)
    except Exception as exc:  # noqa: BLE001 -- invariant violations map to 4
        kind = type(exc).__name__
        if isinstance(exc, (ParseError, OSError)):
            status, kind = 2, "ParseError"
        else:
            status = 3 if isinstance(exc, DomainError) else 4
        print(json.dumps({"error": kind, "detail": str(exc)}), file=sys.stderr)
        return status
    print(json.dumps(payload, indent=2))
    return 0


def run(fn=main) -> NoReturn:
    """End the process with fn() as its exit status (0 for None), once
    stdout and stderr are flushed.  os._exit skips the interpreter's
    teardown, which takes longer than most commands, so atexit handlers do
    not run.  A reader that closes stdout early ends the run quietly with
    status 0.  Every process entry point ends here; `main` is for callers
    that stay."""
    try:
        status = fn() or 0
        sys.stdout.flush()
    except BrokenPipeError:
        status = 0
    sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    run()
