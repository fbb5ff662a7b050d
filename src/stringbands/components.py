"""Extendability and negligibility of bands, the component verdict for a
band sequence, the dimension formula, and the degeneration rewrites.

Witness searches are deterministic (rotations in class-member order, canonical
ones first; split positions and segment lengths ascending; first witness wins),
and the algebra object keeps each answer, in spec.extensions[B, C] and
spec.negligibles[B] (`words.Table`).

The searches read letter codes (`AlgebraSpec.code_letters`).  A class's one
member table (spec.member_readings[B]) holds each distinct rotation once as
its tuple of codes, and nothing else: a rotation's first vertex is read off
`AlgebraSpec.code_targets`, and every seam is `glues` on two whole code
tuples, one lookup in `AlgebraSpec.string_windows`.  The steps test
vertices, divergence and seams on ints, and decode letters only for the
witness they return.  The replays encode the rotations they are given and
run the same step.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain, product
from typing import Optional, Union

from .bands import (
    BandClass,
    QuasiBand,
    _as_letters,
    _turns,
    canonical_class,
    is_quasi_band,
)
from .errors import (
    BadDecomposition,
    InvalidWitness,
    NotAComponent,
    NotQuadratic,
    NotQuasiBand,
)
from .hom import BandSequence, make_sequence, seq_count_from, seq_count_into
from .words import (
    KEPT,
    Word,
    _check_word,
    flanked,
    format_word,
    glues,
    inverse_codes,
    inverse_letters,
    reading,
    trivial_word,
)

IS_COMPONENT = "IsComponent"
NOT_COMPONENT = "NotComponent"
UNKNOWN = "Unknown"

# In the witnesses, rot, rot_b, rot_c, reversed_band and an extension's
# glued d are QuasiBands, and pieces is a pair of them; w, u, v and a
# quadratic d are Words; alpha to delta are arrow names; n is a split position.
ExtendabilityWitness = namedtuple("ExtendabilityWitness", "rot_b rot_c w beta delta d")
Case1Witness = namedtuple("Case1Witness", "rot n w pieces")
Case2Witness = namedtuple("Case2Witness", "rot w u v reversed_band")
NegligibilityWitness = Union[Case1Witness, Case2Witness]
Witness = Union[ExtendabilityWitness, Case1Witness, Case2Witness]
QuadraticWitness = namedtuple("QuadraticWitness", "d alpha beta gamma delta")


class ComponentVerdict(
    namedtuple("ComponentVerdict", "status reasons dimension witnesses", defaults=(None, ()))
):
    """witnesses pairs each refutation, in the order of reasons, with the
    indices it concerns: (x, y) for an extendable ordered pair and (i,) for
    a negligible class.  dimension is an int or None."""

    __slots__ = ()


def _fork(x: tuple[int, ...], y: tuple[int, ...], cap: int) -> Optional[int]:
    """The length k of the prefix w that the periodic words of the code
    tuples x and y share, when they then diverge within cap letters with an
    arrow of x against an inverse letter of y; None otherwise."""
    m, n = len(x), len(y)
    k = 0
    while k < cap and x[k % m] == y[k % n]:
        k += 1
    if k == cap or x[k % m] & 1 or not y[k % n] & 1:
        return None
    return k


def _prefix(spec, cs: tuple[int, ...], k: int) -> Word:
    """The first k letters of the periodic word of the codes cs, which may
    run past a period; the trivial word at the target of its first letter
    when k is 0."""
    if not k:
        return trivial_word(spec.vertices[spec.code_targets[cs[0]]])
    return Word(None, spec.decode(reading(cs, k, cyclic=True)[:k]))


def _try_extension(spec, b: tuple[int, ...], c: tuple[int, ...]) -> Optional[ExtendabilityWitness]:
    """The extension of rot_b by rot_c, the rotations of codes b and c, when
    rot_b ends with an inverse letter, rot_c with an arrow, their periodic
    words share a prefix w that diverges within period(B) + period(C)
    letters with an arrow beta of rot_b against an inverse letter delta^-1
    of rot_c, and rot_c.rot_b is a quasi-band; None otherwise."""
    if not b[-1] & 1 or c[-1] & 1:
        return None
    # both periodic words must leave from the same vertex for a common
    # prefix to exist at all
    if spec.code_targets[b[0]] != spec.code_targets[c[0]]:
        return None
    # both rotations are quasi-bands: only the two seams of rot_c.rot_b can
    # fail.  They fail more often than the fork does, so they come first
    if not (glues(spec, c, b) and glues(spec, b, c)):
        return None
    k = _fork(b, c, len(b) + len(c))
    if k is None:
        return None
    b_ls, c_ls = spec.decode(b), spec.decode(c)
    beta, delta = b_ls[k % len(b)].arrow, c_ls[k % len(c)].arrow
    rot_b, rot_c = QuasiBand(b_ls), QuasiBand(c_ls)
    return ExtendabilityWitness(rot_b, rot_c, _prefix(spec, b, k), beta, delta, QuasiBand(c_ls + b_ls))


def _extendable(spec, pair: tuple[BandClass, BandClass]) -> Optional[ExtendabilityWitness]:
    B, C = pair
    # _try_extension tests the end letters itself; filtering here first
    # skips most pairs before the inner loop
    c_rots = [c for c in spec.member_readings[C] if not c[-1] & 1]
    for b in spec.member_readings[B]:
        if b[-1] & 1:
            for c in c_rots:
                if wit := _try_extension(spec, b, c):
                    return wit
    return None


def extendable(spec, B, C) -> Optional[ExtendabilityWitness]:
    """Decides extendability of the ordered pair (B, C) from the definition.

    Rotations of B ending in an inverse letter are matched against rotations
    of C ending in an arrow; the common prefix of the two periodic words is
    capped at period(B) + period(C), where any true witness has already
    diverged.  The divergence must read as an arrow on the B side and an
    inverse letter on the C side, and the cyclic concatenation of the two
    rotations must be a quasi-band.
    """
    return spec.extensions[canonical_class(spec, B), canonical_class(spec, C)]


def _case1_split(spec, cs: tuple[int, ...], n: int) -> Optional[Case1Witness]:
    """The case 1 split of the rotation of codes cs after its n-th letter,
    when 1 <= n < period, it ends with an inverse letter and letter n is an
    arrow, both windows are quasi-bands, and its periodic word diverges from
    its own shift by n the right way; None otherwise."""
    if not 1 <= n < len(cs) or not cs[-1] & 1 or cs[n - 1] & 1:
        return None
    left, right = cs[:n], cs[n:]
    for piece in (left, right):
        # a window of rot is a quasi-band once it turns and its own seam passes
        if not _turns(piece) or not glues(spec, piece, piece):
            return None
    # compare the periodic word against its own shift by n
    k = _fork(cs, right + left, len(cs))
    if k is None:
        return None
    ls = spec.decode(cs)
    return Case1Witness(QuasiBand(ls), n, _prefix(spec, cs, k), (QuasiBand(ls[:n]), QuasiBand(ls[n:])))


def _case2_frame(cs: tuple[int, ...], p: int, q: int):
    """The frame cs = w.u.w^-1.v with |w| = p and |u| = q, as the code
    tuples (w, u, v), when u is nonempty and runs from an arrow to an arrow
    and v is nonempty and runs from an inverse letter to an inverse letter;
    None otherwise."""
    j = 2 * p + q  # where v starts
    if not (q and j < len(cs)) or cs[p] & 1 or cs[p + q - 1] & 1:
        return None
    if not (cs[j] & 1 and cs[-1] & 1):
        return None
    if cs[p + q : j] != inverse_codes(cs[:p]):
        return None
    return cs[:p], cs[p : p + q], cs[j:]


def _case2_at(spec, cs: tuple[int, ...]) -> Optional[Case2Witness]:
    """The first case 2 frame of the rotation of codes cs, by |w| then |u|,
    whose reversal w.u^-1.w^-1.v is again a quasi-band."""
    for p in range(0, (len(cs) - 2) // 2 + 1):
        for q in range(1, len(cs) - 2 * p):
            frame = _case2_frame(cs, p, q)
            if frame is None:
                continue
            w, u, v = frame
            rev = w + inverse_codes(u) + inverse_codes(w) + v
            # its four pieces are strings, so the reversal is a quasi-band
            # exactly when it turns and glues at each cut between pieces and
            # at its own seam
            cuts = (j for j in (p, p + q, 2 * p + q) if j)
            if (
                _turns(rev)
                and all(glues(spec, rev[:j], rev[j:]) for j in cuts)
                and glues(spec, rev, rev)
            ):
                ls = spec.decode(cs)
                w, u, v = ls[:p], ls[p : p + q], ls[2 * p + q :]
                rev_ls = w + inverse_letters(u) + inverse_letters(w) + v
                return Case2Witness(
                    QuasiBand(ls), _prefix(spec, cs, p), Word(None, u), Word(None, v), QuasiBand(rev_ls)
                )
    return None


def _negligible(spec, B: BandClass) -> Optional[NegligibilityWitness]:
    members = spec.member_readings[B]
    # _case1_split tests the last letter itself; skipping the rotations that
    # end with an arrow here saves a call per split position
    case1 = (
        _case1_split(spec, cs, n)
        for cs in members
        if cs[-1] & 1
        for n in range(1, len(cs))
    )
    case2 = (_case2_at(spec, cs) for cs in members)
    return next(filter(None, chain(case1, case2)), None)


KEPT.update(extensions=_extendable, negligibles=_negligible)


def negligible(spec, B) -> Optional[NegligibilityWitness]:
    """Decides negligibility from the definition, case 1 before case 2.

    Case 1 splits a rotation into two quasi-band pieces whose shifted
    periodic words diverge the right way; case 2 finds a palindromic frame
    w.u.w^-1.v whose u-reversal is again a quasi-band.
    """
    return spec.negligibles[canonical_class(spec, B)]


def _flank_pairs(spec, codes: tuple[int, ...], bound: int, left_inverted: bool):
    """The flanked middles (`flanked`) of length at most bound in the cyclic
    word of codes, each in both orientations of its occurrence, keyed by
    (length, vertex index, codes): the trivial middle at the i-th vertex is
    (0, i, ()), any other (length, 0, codes).  Each key holds the arrow
    indices (a, b) of its left and right neighbours, each pair once, in the
    order first read."""
    by_mid: dict[tuple, dict[tuple[int, int], None]] = {}
    ls = reading(codes, bound, cyclic=True)
    # the inverse of ls[k:j] is back[n-j:n-k]
    n, back = len(ls), inverse_codes(ls)
    for k, row in flanked(codes, left_inverted, bound, cyclic=True):
        a = ls[k - 1] >> 1
        for j in row:
            b = ls[j] >> 1
            if j > k:
                mid, inv = (j - k, 0, ls[k:j]), (j - k, 0, back[n - j : n - k])
            else:
                mid = inv = (0, spec.code_sources[ls[k - 1]], ())
            by_mid.setdefault(mid, {})[a, b] = None
            by_mid.setdefault(inv, {})[b, a] = None
    return by_mid


def extendable_quadratic(spec, B, C, bound=None) -> Optional[QuadraticWitness]:
    """Occurrence-based criterion equivalent to `extendable` over quadratic
    relations: a shared middle word d, read as alpha^-1.d.beta in B or its
    inverse and as gamma.d.delta^-1 in C or its inverse, such that the
    recombined words alpha^-1.d.delta^-1 and gamma.d.beta are strings.  The
    default bound is m+n, the periods' sum, where every shared middle ends
    (`bands._scan_cap`).

    Every two-letter window of a recombined word around a nonempty d is a
    window of B or of C, so with relations of length 2 both are strings;
    only a trivial d is checked, by two lookups in `AlgebraSpec.string_windows`.
    The witness is the least d, trivial ones first by vertex, then by length
    and codes, with its first flank pairs in reading order."""
    if not spec.quadratic:
        raise NotQuadratic("criterion needs relations of length exactly 2")
    B = canonical_class(spec, B)
    C = canonical_class(spec, C)
    if bound is None:
        bound = B.period + C.period
    if bound < 0:
        raise ValueError(f"bound must be non-negative, got {bound}")
    b_side = _flank_pairs(spec, spec.encode(B.letters), bound, left_inverted=True)
    c_side = _flank_pairs(spec, spec.encode(C.letters), bound, left_inverted=False)
    windows = spec.string_windows
    for key in sorted(b_side.keys() & c_side.keys()):
        length, v, codes = key
        for (alpha, beta), (gamma, delta) in product(b_side[key], c_side[key]):
            # alpha^-1.delta^-1 and gamma.beta, in codes
            if length or windows[2 * alpha + 1, 2 * delta + 1] and windows[2 * gamma, 2 * beta]:
                d = Word(None, spec.decode(codes)) if length else trivial_word(spec.vertices[v])
                arrows = (spec.arrow_names[x] for x in (alpha, beta, gamma, delta))
                return QuadraticWitness(d, *arrows)
    return None


def negligible_quadratic(spec, B, bound=None) -> Optional[QuadraticWitness]:
    """`extendable_quadratic` with both sides read off the one band, so to 2m
    by default."""
    return extendable_quadratic(spec, B, B, bound)


def _dimension_formula(spec, seq: BandSequence) -> int:
    d = seq.total_dim
    total = d * d
    for u in spec.vertices:
        if not spec.gentle[u]:
            t = trivial_word(u)
            total -= seq_count_from(spec, seq, t) * seq_count_into(spec, t, seq)
    return total


def decide_component(spec, S) -> ComponentVerdict:
    """Verdict on whether the closure of the family of S is a component.

    Any extendable ordered pair with distinct indices, or any negligible
    class, refutes.  With quadratic relations the two checks are also
    sufficient and the verdict carries the dimension; otherwise only the
    refutations are available and the answer may stay Unknown.
    """
    seq = make_sequence(spec, S.classes if isinstance(S, BandSequence) else S)
    if not seq.classes:
        raise ValueError("empty band sequence")
    classes = seq.classes
    reasons: list[str] = []
    found: list[tuple[tuple[int, ...], Witness]] = []
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            for x, y in ((i, j), (j, i)):
                wit = spec.extensions[classes[x], classes[y]]
                if wit is not None:
                    reasons.append(
                        f"classes {x} and {y} are extendable via "
                        f"{format_word(wit.d)}"
                    )
                    found.append(((x, y), wit))
    for i, cls in enumerate(classes):
        wit = spec.negligibles[cls]
        if wit is not None:
            kind = "case 1 split" if isinstance(wit, Case1Witness) else "case 2 reversal"
            reasons.append(f"class {i} is negligible ({kind})")
            found.append(((i,), wit))
    if reasons:
        return ComponentVerdict(NOT_COMPONENT, tuple(reasons), None, tuple(found))
    if spec.quadratic:
        return ComponentVerdict(
            IS_COMPONENT,
            ("no extendable pair", "no negligible class", "quadratic criterion decisive"),
            _dimension_formula(spec, seq),
        )
    return ComponentVerdict(
        UNKNOWN,
        (
            "no extendable pair",
            "no negligible class",
            "sufficiency unavailable beyond quadratic relations",
        ),
        None,
    )


def component_dimension(spec, S) -> int:
    """Dimension of the component: total_dim squared minus the correction
    at non-gentle vertices."""
    if not spec.quadratic:
        raise NotQuadratic("dimension formula needs quadratic relations")
    verdict = decide_component(spec, S)
    if verdict.status != IS_COMPONENT:
        raise NotAComponent("; ".join(verdict.reasons))
    return verdict.dimension


def reverse_piece(spec, rot, w: Word, u: Word, v: Word) -> QuasiBand:
    """Rewrites rot = w.u.w^-1.v into the dominant quasi-band w.u.w^-1.v^-1.

    The decomposition must be the case 2 frame of rot at |w| and |u|.  The
    family of rot lies in the closure of the returned band's family.
    """
    ls = _as_letters(rot)
    codes = spec.encode(ls)
    pieces = tuple(_check_word(spec, x) for x in (w, u, v))
    if _case2_frame(codes, len(w), len(u)) != pieces:
        raise BadDecomposition("w, u and v are not a case 2 frame w.u.w^-1.v of rot")
    if not is_quasi_band(spec, ls):
        raise BadDecomposition("rot is not a quasi-band")
    w_ls, u_ls, v_ls = w.letters, u.letters, v.letters
    c_letters = w_ls + u_ls + inverse_letters(w_ls) + inverse_letters(v_ls)
    if not is_quasi_band(spec, c_letters):
        raise NotQuasiBand(format_word(c_letters))
    return QuasiBand(c_letters)


def split_band(spec, witness) -> tuple[QuasiBand, QuasiBand]:
    """Validates a case-1 witness from scratch and returns its two pieces;
    the pair family dominates the family of the original band."""
    if not isinstance(witness, Case1Witness):
        raise InvalidWitness("expected a case 1 witness")
    rot = witness.rot
    if not isinstance(rot, QuasiBand) or not is_quasi_band(spec, rot.letters):
        raise InvalidWitness("rot must be a quasi-band")
    if not isinstance(witness.n, int):
        raise InvalidWitness("n must be an int")
    if _case1_split(spec, spec.encode(rot.letters), witness.n) != witness:
        raise InvalidWitness("witness is not the case 1 split of rot at n")
    return witness.pieces


def concat_extension(spec, witness) -> QuasiBand:
    """Validates an extendability witness from scratch and returns the
    concatenated quasi-band d; the pair family lies in the closure of d's."""
    if not isinstance(witness, ExtendabilityWitness):
        raise InvalidWitness("expected an extendability witness")
    rots = (witness.rot_b, witness.rot_c)
    if not all(isinstance(r, QuasiBand) and is_quasi_band(spec, r.letters) for r in rots):
        raise InvalidWitness("rotations must be quasi-bands")
    if _try_extension(spec, *(spec.encode(r.letters) for r in rots)) != witness:
        raise InvalidWitness("witness is not the extension of rot_b by rot_c")
    return witness.d
