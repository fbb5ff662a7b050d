"""Letter-tuple copies, for the tests only, of orders and readings that the
package now takes on letter codes: the rotations of a cyclic word, the order
of enumerated strings and a band class's member tuple."""

from stringbands import QuasiBand
from stringbands.words import inverse_letters


def rotations(ls):
    """The m rotations of the letters, then the m of their inverse-reversal."""
    return [base[k:] + base[:k] for base in (ls, inverse_letters(ls)) for k in range(len(ls))]


def word_key(spec, word):
    """Trivial words first by vertex, then length, then letter codes
    (`AlgebraSpec.code_letters`)."""
    if word.is_trivial:
        return (0, spec.vertex_index(word.trivial_at), ())
    return (len(word), 0, spec.encode(word.letters))


def reference_members(B):
    """The distinct rotations of the class B, canonical ones first, then
    those of the inverse-reversal: the order of `class_members`."""
    return tuple(QuasiBand(r) for r in dict.fromkeys(rotations(B.canonical.letters)))
