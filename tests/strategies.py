"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from stringbands import AlgebraSpec, ArrowDecl, Letter
from stringbands.words import letter_source, letter_target


@st.composite
def monomial_quivers(draw, max_relation_length=3):
    """At most 3 vertices, at most 4 arrows and relations of length 2 to
    max_relation_length; not required to be a string algebra."""
    vertices = tuple(f"v{i}" for i in range(draw(st.integers(1, 3))))
    arrows = tuple(
        ArrowDecl(f"a{i}", draw(st.sampled_from(vertices)), draw(st.sampled_from(vertices)))
        for i in range(draw(st.integers(1, 4)))
    )
    relations = []
    for _ in range(draw(st.integers(0, 4))):
        path = [draw(st.sampled_from(arrows))]
        for _ in range(draw(st.integers(1, max_relation_length - 1))):
            before = [a for a in arrows if a.target == path[-1].source]
            if not before:
                break
            path.append(draw(st.sampled_from(before)))
        rel = tuple(a.name for a in path)
        if len(rel) >= 2 and rel not in relations:
            relations.append(rel)
    return AlgebraSpec(vertices, arrows, tuple(relations))


@st.composite
def cyclic_words(draw, spec):
    """Up to 7 letters.  Most steps continue a reduced walk and most last
    letters close it, so the draws reach the run check and not only the
    composability one."""
    letters = [Letter(a, inv) for a in spec.arrow_names for inv in (False, True)]
    ls = [draw(st.sampled_from(letters))]
    n = draw(st.integers(1, 7))
    while len(ls) < n:
        walk = [
            l for l in letters
            if letter_target(spec, l) == letter_source(spec, ls[-1]) and l != ls[-1].inv()
        ]
        if len(ls) == n - 1:
            walk = [l for l in walk if letter_source(spec, l) == letter_target(spec, ls[0])]
        free = draw(st.integers(0, 5)) == 0
        ls.append(draw(st.sampled_from(letters if free or not walk else walk)))
    return tuple(ls)
