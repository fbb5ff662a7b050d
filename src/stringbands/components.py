"""Extendability and negligibility of bands, the component verdict for a
band sequence, the dimension formula, and the degeneration rewrites.

Witness searches are deterministic (rotations in class-member order, canonical
ones first; split positions and segment lengths ascending; first witness wins),
and the algebra object keeps each answer (`words.keep`).
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple, Optional, Union

from .algebra import gentle_vertices
from .bands import (
    BandClass,
    QuasiBand,
    _as_letters,
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
    _check_arrows,
    _check_word,
    flanked,
    format_word,
    glues,
    inverse,
    inverse_letters,
    is_string,
    keep,
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


def _fork(
    spec, x: tuple[Letter, ...], y: tuple[Letter, ...], cap: int
) -> Optional[tuple[Word, str, str]]:
    """(w, beta, delta) when the periodic words of x and y share a prefix w
    and then diverge, within cap letters, with an arrow beta of x against an
    inverse letter delta^-1 of y; w is trivial at t(x[0]) when they diverge
    at once.  None otherwise."""
    xs = x * (cap // len(x) + 1)
    ys = y * (cap // len(y) + 1)
    k = 0
    while k < cap and xs[k] == ys[k]:
        k += 1
    if k == cap or xs[k].inverted or not ys[k].inverted:
        return None
    w = Word(None, xs[:k]) if k else trivial_word(letter_target(spec, x[0]))
    return w, xs[k].arrow, ys[k].arrow


def _try_extension(spec, rot_b: QuasiBand, rot_c: QuasiBand) -> Optional[ExtendabilityWitness]:
    """The extension of rot_b by rot_c, when rot_b ends with an inverse
    letter, rot_c with an arrow, their periodic words share a prefix w that
    diverges within period(B) + period(C) letters with an arrow beta of rot_b
    against an inverse letter delta^-1 of rot_c, and rot_c.rot_b is a
    quasi-band; None otherwise."""
    b_ls, c_ls = rot_b.letters, rot_c.letters
    if not b_ls[-1].inverted or c_ls[-1].inverted:
        return None
    # both periodic words must leave from the same vertex for a common
    # prefix to exist at all
    if letter_target(spec, b_ls[0]) != letter_target(spec, c_ls[0]):
        return None
    fork = _fork(spec, b_ls, c_ls, len(b_ls) + len(c_ls))
    if fork is None:
        return None
    # both rotations are quasi-bands: only the two seams of rot_c.rot_b can fail
    if not (glues(spec, c_ls, b_ls) and glues(spec, b_ls, c_ls)):
        return None
    return ExtendabilityWitness(rot_b, rot_c, *fork, QuasiBand(c_ls + b_ls))


@keep
def _extendable(spec, B: BandClass, C: BandClass) -> Optional[ExtendabilityWitness]:
    # _try_extension tests the end letters itself; filtering here first
    # skips most pairs before the inner loop
    b_rots = (r for r in class_members(spec, B) if r.letters[-1].inverted)
    c_rots = [r for r in class_members(spec, C) if not r.letters[-1].inverted]
    return next(filter(None, (_try_extension(spec, b, c) for b in b_rots for c in c_rots)), None)


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
    """The case 1 split of rot after its n-th letter, when 1 <= n < period,
    rot ends with an inverse letter and letter n is an arrow, both windows
    are quasi-bands, and the periodic word of rot diverges from its own shift
    by n the right way; None otherwise."""
    ls = rot.letters
    if not 1 <= n < len(ls) or not ls[-1].inverted or ls[n - 1].inverted:
        return None
    left, right = ls[:n], ls[n:]
    for piece in (left, right):
        # a window of rot is a quasi-band once it turns and its own seam passes
        if all(l.inverted == piece[0].inverted for l in piece):
            return None
        if not glues(spec, piece, piece):
            return None
    # compare the periodic word against its own shift by n
    fork = _fork(spec, ls, right + left, len(ls))
    if fork is None:
        return None
    return Case1Witness(rot, n, fork[0], (QuasiBand(left), QuasiBand(right)))


def _case2_frame(ls: tuple[Letter, ...], p: int, q: int):
    """The frame ls = w.u.w^-1.v with |w| = p and |u| = q, as the letters
    (w, u, v), when u is nonempty and runs from an arrow to an arrow and v is
    nonempty and runs from an inverse letter to an inverse letter; None
    otherwise."""
    w, u, v = ls[:p], ls[p : p + q], ls[2 * p + q :]
    if not (u and v) or u[0].inverted or u[-1].inverted:
        return None
    if not (v[0].inverted and v[-1].inverted):
        return None
    if ls[p + q : 2 * p + q] != inverse_letters(w):
        return None
    return w, u, v


def _case2_at(spec, rot: QuasiBand) -> Optional[Case2Witness]:
    """The first case 2 frame of rot, by |w| then |u|, whose reversal
    w.u^-1.w^-1.v is again a quasi-band."""
    ls = rot.letters
    for p in range(0, (rot.period - 2) // 2 + 1):
        for q in range(1, rot.period - 2 * p):
            frame = _case2_frame(ls, p, q)
            if frame is None:
                continue
            w, u, v = frame
            c_letters = w + inverse_letters(u) + inverse_letters(w) + v
            if is_quasi_band(spec, c_letters):
                w_word = Word(None, w) if w else trivial_word(letter_target(spec, ls[0]))
                return Case2Witness(
                    rot, w_word, Word(None, u), Word(None, v), QuasiBand(c_letters)
                )
    return None


@keep
def _negligible(spec, B: BandClass) -> Optional[NegligibilityWitness]:
    members = class_members(spec, B)
    # _case1_split tests the last letter itself; skipping the rotations that
    # end with an arrow here saves a call per split position
    case1 = (
        _case1_split(spec, rot, n)
        for rot in members
        if rot.letters[-1].inverted
        for n in range(1, rot.period)
    )
    case2 = (_case2_at(spec, rot) for rot in members)
    return next(filter(None, chain(case1, case2)), None)


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
    if bound < 0:
        raise ValueError(f"bound must be non-negative, got {bound}")
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

    The decomposition must be the case 2 frame of rot at |w| and |u|.  The
    family of rot lies in the closure of the returned band's family.
    """
    ls = _as_letters(rot)
    _check_arrows(spec, ls)
    for word in (w, u, v):
        _check_word(spec, word)
    pieces = (w.letters, u.letters, v.letters)
    if _case2_frame(ls, len(w), len(u)) != pieces:
        raise BadDecomposition("w, u and v are not a case 2 frame w.u.w^-1.v of rot")
    if not is_quasi_band(spec, ls):
        raise BadDecomposition("rot is not a quasi-band")
    w_ls, u_ls, v_ls = pieces
    c_letters = w_ls + u_ls + inverse_letters(w_ls) + inverse_letters(v_ls)
    if not is_quasi_band(spec, c_letters):
        raise NotQuasiBand(format_word(Word(None, c_letters)))
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
    if _case1_split(spec, rot, witness.n) != witness:
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
    if _try_extension(spec, *rots) != witness:
        raise InvalidWitness("witness is not the extension of rot_b by rot_c")
    return witness.d
