"""Letter-tuple copies, for the tests only, of orders and readings that the
package now takes on letter codes: the rotations of a cyclic word, the order
of enumerated strings and a band class's member tuple.  Also a second
writing of the id scan, `reference_id_tally`: one trie-extending call per
span, fed a slice or a reversed slice, and a trivial middle's vertex looked
up by name, so a test can pin the ids that `words.id_tally` hands out."""

from stringbands import QuasiBand
from stringbands.words import (
    flanked,
    inverse_letters,
    letter_source,
    letter_target,
    reading,
)


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


def extend(trie, chain, codes):
    """Append to chain, whose last id is that of a word w, the ids of
    w.c1, w.c1.c2, ... for the codes c1, c2, ..., growing the trie where
    it ends, each new node with the trie's next id."""
    child, width = trie.child, trie.width
    node = chain[-1]
    for c in codes:
        grown = child.get(node * width + c)
        if grown is None:
            grown = child[node * width + c] = next(trie.ids)
        chain.append(grown)
        node = grown


def reference_id_tally(alg, codes, left_inverted, max_mid, cyclic=False):
    """`words.id_tally`, growing alg's `middle_trie` through `extend`."""
    trie = alg.middle_trie
    letters = alg.code_letters
    ls = reading(codes, max_mid, cyclic)
    inverted = [c ^ 1 for c in ls]
    counts = {}
    start = -1
    backs = {}
    for k, j in flanked(codes, left_inverted, max_mid, cyclic):
        if k == j:
            v = letter_source(alg, letters[ls[k - 1]]) if k else letter_target(alg, letters[ls[0]])
            key = -1 - alg.vertex_index(v)
        else:
            if k != start:
                start, fwd = k, [0]
            if len(fwd) <= j - k:
                extend(trie, fwd, ls[k + len(fwd) - 1 : j])
            end = j % len(codes) if cyclic else j
            back = backs.get(end)
            if back is None:
                back = backs[end] = [0]
            if len(back) <= j - k:
                extend(trie, back, reversed(inverted[k : j - len(back) + 1]))
            key = min(fwd[j - k], back[j - k])
        counts[key] = counts.get(key, 0) + 1
    return counts
