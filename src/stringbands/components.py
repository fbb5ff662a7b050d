"""Extendability and negligibility of bands, the component verdict for a
band sequence, the dimension formula, and the degeneration rewrites.

Witness searches are deterministic: rotations are visited in class-member
order (canonical rotations first, then rotations of the inverse-reversal),
split positions and segment lengths ascend, and the first witness wins.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

from .algebra import gentle_vertices
from .bands import (
    BandClass,
    QuasiBand,
    _as_letters,
    _seam_ok,
    canonical_class,
    class_members,
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
    Letter,
    Word,
    flanked,
    format_word,
    inverse,
    is_string,
    letter_target,
    trivial_word,
    word_key,
)

IS_COMPONENT = "IsComponent"
NOT_COMPONENT = "NotComponent"
UNKNOWN = "Unknown"


class ExtendabilityWitness(NamedTuple):
    rot_b: QuasiBand
    rot_c: QuasiBand
    w: Word
    beta: str
    delta: str
    d: QuasiBand


class Case1Witness(NamedTuple):
    rot: QuasiBand
    n: int
    w: Word
    pieces: tuple[QuasiBand, QuasiBand]


class Case2Witness(NamedTuple):
    rot: QuasiBand
    w: Word
    u: Word
    v: Word
    reversed_band: QuasiBand


NegligibilityWitness = Union[Case1Witness, Case2Witness]
Witness = Union[ExtendabilityWitness, Case1Witness, Case2Witness]


class QuadraticWitness(NamedTuple):
    d: Word
    alpha: str
    beta: str
    gamma: str
    delta: str


class ComponentVerdict(NamedTuple):
    """witnesses pairs each refutation, in the order of reasons, with the
    indices it concerns: (x, y) for an extendable ordered pair and (i,) for
    a negligible class."""

    status: str
    reasons: tuple[str, ...]
    dimension: int | None = None
    witnesses: tuple[tuple[tuple[int, ...], Witness], ...] = ()


def _fork(spec, x: QuasiBand, y: QuasiBand, shift: int, cap: int) -> Optional[Word]:
    """The common prefix w of the periodic words x and y read from y(shift + 1),
    when they diverge within cap letters with an arrow of x against an
    inverse letter of y; w is trivial at t(x(1)) when they diverge at once."""
    k = 0
    while k < cap and x.at(k + 1) == y.at(shift + k + 1):
        k += 1
    if k == cap or x.at(k + 1).inverted or not y.at(shift + k + 1).inverted:
        return None
    if k == 0:
        return trivial_word(letter_target(spec, x.at(1)))
    return Word(None, x.window(1, k))


def _try_extension(spec, rot_b: QuasiBand, rot_c: QuasiBand, cap: int):
    # both periodic words must leave from the same vertex for a common
    # prefix to exist at all
    if letter_target(spec, rot_b.at(1)) != letter_target(spec, rot_c.at(1)):
        return None
    w = _fork(spec, rot_b, rot_c, 0, cap)
    if w is None:
        return None
    # both rotations are quasi-bands: only the two seams of rot_c.rot_b can fail
    c_ls, b_ls = rot_c.letters, rot_b.letters
    if not (_seam_ok(spec, c_ls, b_ls) and _seam_ok(spec, b_ls, c_ls)):
        return None
    k = len(w)
    return ExtendabilityWitness(
        rot_b, rot_c, w, rot_b.at(k + 1).arrow, rot_c.at(k + 1).arrow, QuasiBand(c_ls + b_ls)
    )


def _extendable(spec, B: BandClass, C: BandClass) -> Optional[ExtendabilityWitness]:
    cap = B.period + C.period
    c_rots = [r for r in class_members(spec, C) if not r.at(r.period).inverted]
    for rot_b in class_members(spec, B):
        if not rot_b.at(rot_b.period).inverted:
            continue
        for rot_c in c_rots:
            wit = _try_extension(spec, rot_b, rot_c, cap)
            if wit is not None:
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
    return _extendable(spec, canonical_class(spec, B), canonical_class(spec, C))


def _case1_split(spec, rot: QuasiBand, n: int) -> Optional[Case1Witness]:
    m = rot.period
    if rot.at(n).inverted:
        return None
    left = rot.window(1, n)
    right = rot.window(n + 1, m - n)
    for piece in (left, right):
        # a window of rot is a quasi-band once it turns and its own seam passes
        if all(l.inverted == piece[0].inverted for l in piece):
            return None
        if not _seam_ok(spec, piece, piece):
            return None
    # compare the periodic word against its own shift by n
    w = _fork(spec, rot, rot, n, m)
    if w is None:
        return None
    return Case1Witness(rot, n, w, (QuasiBand(left), QuasiBand(right)))


def _case1_at(spec, rot: QuasiBand) -> Optional[Case1Witness]:
    if not rot.at(rot.period).inverted:
        return None
    for n in range(1, rot.period):
        wit = _case1_split(spec, rot, n)
        if wit is not None:
            return wit
    return None


def _case2_at(spec, rot: QuasiBand) -> Optional[Case2Witness]:
    m = rot.period
    ls = rot.letters
    for p in range(0, (m - 2) // 2 + 1):
        w_part = ls[:p]
        w_inv = tuple(l.inv() for l in reversed(w_part))
        for q in range(1, m - 2 * p):
            u_part = ls[p : p + q]
            v_part = ls[2 * p + q :]
            if u_part[0].inverted or u_part[-1].inverted:
                continue
            if not (v_part[0].inverted and v_part[-1].inverted):
                continue
            if ls[p + q : 2 * p + q] != w_inv:
                continue
            u_inv = tuple(l.inv() for l in reversed(u_part))
            c_letters = w_part + u_inv + w_inv + v_part
            if not is_quasi_band(spec, c_letters):
                continue
            if p == 0:
                w = trivial_word(letter_target(spec, ls[0]))
            else:
                w = Word(None, w_part)
            return Case2Witness(
                rot, w, Word(None, u_part), Word(None, v_part), QuasiBand(c_letters)
            )
    return None


def _negligible(spec, B: BandClass) -> Optional[NegligibilityWitness]:
    members = class_members(spec, B)
    for rot in members:
        wit = _case1_at(spec, rot)
        if wit is not None:
            return wit
    for rot in members:
        wit = _case2_at(spec, rot)
        if wit is not None:
            return wit
    return None


def negligible(spec, B) -> Optional[NegligibilityWitness]:
    """Decides negligibility from the definition, case 1 before case 2.

    Case 1 splits a rotation into two quasi-band pieces whose shifted
    periodic words diverge the right way; case 2 finds a palindromic frame
    w.u.w^-1.v whose u-reversal is again a quasi-band.
    """
    return _negligible(spec, canonical_class(spec, B))


def _require_quadratic(spec):
    if not spec.quadratic:
        raise NotQuadratic("criterion needs relations of length exactly 2")


def _window_triples(spec, band: QuasiBand, max_mid: int, leftmost_inverted: bool):
    """Flanked cyclic windows, grouped by middle word.

    Every window whose edge letters point the requested ways yields two
    readings, one per orientation of the occurrence; the flank arrows come
    along with each reading.
    """
    by_mid: dict[Word, list[tuple[str, str]]] = {}
    occurrences = flanked(spec, band.letters, leftmost_inverted, max_mid, cyclic=True)
    for first, mid, last in occurrences:
        for a, d, b in (
            (first.arrow, mid, last.arrow),
            (last.arrow, inverse(mid), first.arrow),
        ):
            pairs = by_mid.setdefault(d, [])
            if (a, b) not in pairs:
                pairs.append((a, b))
    return by_mid


def _quadratic_search(spec, B: BandClass, C: BandClass, bound: int):
    b_side = _window_triples(spec, B.canonical, bound, leftmost_inverted=True)
    c_side = _window_triples(spec, C.canonical, bound, leftmost_inverted=False)
    shared = sorted(set(b_side) & set(c_side), key=lambda d: word_key(spec, d))
    for d in shared:
        for alpha, beta in b_side[d]:
            for gamma, delta in c_side[d]:
                crossed = (Letter(alpha, True),) + d.letters + (Letter(delta, True),)
                straight = (Letter(gamma, False),) + d.letters + (Letter(beta, False),)
                if is_string(spec, Word(None, crossed)) and is_string(
                    spec, Word(None, straight)
                ):
                    return QuadraticWitness(d, alpha, beta, gamma, delta)
    return None


def extendable_quadratic(spec, B, C, bound=None) -> Optional[QuadraticWitness]:
    """Occurrence-based criterion equivalent to `extendable` over quadratic
    relations: a shared middle word d flanked the opposite ways in B and C,
    such that both recombined words are strings."""
    _require_quadratic(spec)
    B = canonical_class(spec, B)
    C = canonical_class(spec, C)
    if bound is None:
        bound = 2 * (B.period + C.period)
    return _quadratic_search(spec, B, C, bound)


def negligible_quadratic(spec, B, bound=None) -> Optional[QuadraticWitness]:
    """The same search with both sides read off the one band."""
    _require_quadratic(spec)
    B = canonical_class(spec, B)
    if bound is None:
        bound = 4 * B.period
    return _quadratic_search(spec, B, B, bound)


def _dimension_formula(spec, seq: BandSequence) -> int:
    d = seq.total_dim
    total = d * d
    gentle = gentle_vertices(spec)
    for u in spec.vertices:
        if u in gentle:
            continue
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
                wit = _extendable(spec, classes[x], classes[y])
                if wit is not None:
                    reasons.append(
                        f"classes {x} and {y} are extendable via "
                        f"{format_word(wit.d.as_word())}"
                    )
                    found.append(((x, y), wit))
    for i, cls in enumerate(classes):
        wit = _negligible(spec, cls)
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

    The family of rot lies in the closure of the returned band's family.
    """
    ls = _as_letters(rot)
    if u.is_trivial or v.is_trivial:
        raise BadDecomposition("u and v must be nonempty")
    w_ls = () if w.is_trivial else w.letters
    w_inv = tuple(l.inv() for l in reversed(w_ls))
    if ls != w_ls + u.letters + w_inv + v.letters:
        raise BadDecomposition("rot does not factor as w.u.w^-1.v")
    if u.letters[0].inverted or u.letters[-1].inverted:
        raise BadDecomposition("u must start and end with an arrow")
    if not (v.letters[0].inverted and v.letters[-1].inverted):
        raise BadDecomposition("v must start and end with an inverse letter")
    if not is_quasi_band(spec, ls):
        raise BadDecomposition("rot is not a quasi-band")
    v_inv = tuple(l.inv() for l in reversed(v.letters))
    c_letters = w_ls + u.letters + w_inv + v_inv
    if not is_quasi_band(spec, c_letters):
        raise NotQuasiBand(format_word(Word(None, c_letters)))
    return QuasiBand(c_letters)


def split_band(spec, witness) -> tuple[QuasiBand, QuasiBand]:
    """Validates a case-1 witness from scratch and returns its two pieces;
    the pair family dominates the family of the original band."""
    if not isinstance(witness, Case1Witness):
        raise InvalidWitness("expected a case 1 witness")
    rot, n = witness.rot, witness.n
    if not isinstance(rot, QuasiBand):
        raise InvalidWitness("rot must be a quasi-band")
    m = rot.period
    if not 1 <= n < m:
        raise InvalidWitness("split index out of range")
    if not is_quasi_band(spec, rot.letters):
        raise InvalidWitness("rot is not a quasi-band")
    if not rot.at(m).inverted:
        raise InvalidWitness("the rotation must end with an inverse letter")
    wit = _case1_split(spec, rot, n)
    if wit is None:
        raise InvalidWitness("the rotation admits no case 1 split at n")
    if witness.w != wit.w:
        raise InvalidWitness("stored prefix does not match")
    if witness.pieces != wit.pieces:
        raise InvalidWitness("stored pieces do not match")
    return wit.pieces


def concat_extension(spec, witness) -> QuasiBand:
    """Validates an extendability witness from scratch and returns the
    concatenated quasi-band d; the pair family lies in the closure of d's."""
    if not isinstance(witness, ExtendabilityWitness):
        raise InvalidWitness("expected an extendability witness")
    rot_b, rot_c = witness.rot_b, witness.rot_c
    if not isinstance(rot_b, QuasiBand) or not isinstance(rot_c, QuasiBand):
        raise InvalidWitness("rotations must be quasi-bands")
    if not is_quasi_band(spec, rot_b.letters) or not is_quasi_band(spec, rot_c.letters):
        raise InvalidWitness("a rotation is not a quasi-band")
    if not rot_b.at(rot_b.period).inverted:
        raise InvalidWitness("the first rotation must end with an inverse letter")
    if rot_c.at(rot_c.period).inverted:
        raise InvalidWitness("the second rotation must end with an arrow")
    wit = _try_extension(spec, rot_b, rot_c, rot_b.period + rot_c.period)
    if wit is None:
        raise InvalidWitness("rotations admit no extension")
    if wit.w != witness.w or wit.beta != witness.beta or wit.delta != witness.delta:
        raise InvalidWitness("stored prefix data does not match")
    if witness.d != wit.d:
        raise InvalidWitness("stored concatenation does not match")
    return wit.d
