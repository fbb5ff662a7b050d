"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from stringbands import AlgebraSpec, ArrowDecl


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
