"""The package's immutable value types: equality, hashing, immutability,
copies, pickles and reprs, checked on values built from the fixtures."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fixture_algebras import FIXTURE_DIR
from stringbands import (
    AlgebraSpec,
    ArrowDecl,
    BandClass,
    Case1Witness,
    Case2Witness,
    ComponentVerdict,
    ExtendabilityWitness,
    Letter,
    MatrixModule,
    QuadraticWitness,
    QuasiBand,
    SeparationWitness,
    ValidationReport,
    Word,
    canonical_class,
    decide_component,
    extendable,
    extendable_quadratic,
    find_separating_string,
    load_algebra,
    negligible,
    parse_word,
    realize_band,
    validate_algebra,
)
from stringbands.hom import BandSequence, make_sequence

ROOT = Path(__file__).resolve().parent.parent

FIELDS = {
    Word: ("trivial_at", "letters"),
    AlgebraSpec: ("vertices", "arrows", "relations"),
    ValidationReport: ("valid", "violations", "quadratic", "admissibility_bound",
                       "redundant_relations"),
    QuasiBand: ("letters",),
    BandClass: ("canonical",),
    BandSequence: ("classes",),
    ComponentVerdict: ("status", "reasons", "dimension", "witnesses"),
    MatrixModule: ("spec", "vertex_of", "entries"),
    Letter: ("arrow", "inverted"),
    ArrowDecl: ("name", "source", "target"),
    SeparationWitness: ("word", "counts"),
    ExtendabilityWitness: ("rot_b", "rot_c", "w", "beta", "delta", "d"),
    Case1Witness: ("rot", "n", "w", "pieces"),
    Case2Witness: ("rot", "w", "u", "v", "reversed_band"),
    QuadraticWitness: ("d", "alpha", "beta", "gamma", "delta"),
}


def build():
    """One value of each type, built afresh from the dumbbell fixture, and
    the case-1 and extendability witnesses from the cubic one; the verdict
    carries a case-2 witness."""
    spec = load_algebra(FIXTURE_DIR / "dumbbell.alg")
    cubic = load_algebra(FIXTURE_DIR / "two_loops_cubic.alg")
    B = canonical_class(spec, parse_word("x.a^-1.y^-1.a"))
    good = make_sequence(spec, [parse_word("x.a^-1.y.a")])
    C = canonical_class(cubic, parse_word("a^-1.b"))
    return {
        Letter: parse_word("x.a^-1.y^-1").letters[1],
        ArrowDecl: spec.arrows[0],
        SeparationWitness: find_separating_string(spec, good, make_sequence(spec, [B]), 4),
        ExtendabilityWitness: extendable(cubic, C, C),
        Case1Witness: negligible(cubic, parse_word("b.a^-1.b.b.a^-1")),
        Case2Witness: negligible(spec, B),
        QuadraticWitness: extendable_quadratic(spec, B, B),
        Word: parse_word("x.a^-1.y^-1"),
        AlgebraSpec: spec,
        ValidationReport: validate_algebra(spec),
        QuasiBand: QuasiBand(B.letters),
        BandClass: B,
        BandSequence: make_sequence(spec, [parse_word("x.a^-1.y^-1.a"), parse_word("a.x.a^-1.y^-1")]),
        ComponentVerdict: decide_component(spec, [B]),
        MatrixModule: realize_band(spec, B, Fraction(2)),
    }


VALUES = build()
AGAIN = build()


def test_the_values_are_the_listed_types():
    assert set(VALUES) == set(FIELDS)
    for cls, value in VALUES.items():
        assert type(value) is cls
        assert cls._fields == FIELDS[cls]
    assert VALUES[ComponentVerdict].witnesses


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_equal_values_compare_and_hash_alike(cls):
    a, b = VALUES[cls], AGAIN[cls]
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_a_value_never_equals_another_type(cls):
    a = VALUES[cls]
    for other, b in VALUES.items():
        if other is not cls:
            assert a != b and b != a
            assert not (a == b)


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_fields_refuse_assignment_and_deletion(cls):
    value = VALUES[cls]
    for name in FIELDS[cls]:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == AGAIN[cls]


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_copies_and_pickles_are_equal_values(cls):
    value = VALUES[cls]
    for dup in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(dup) is cls
        assert dup == value and hash(dup) == hash(value)
        assert tuple(getattr(dup, f) for f in FIELDS[cls]) == tuple(
            getattr(value, f) for f in FIELDS[cls]
        )


def test_reprs():
    assert repr(VALUES[Word]) == "Word('x.a^-1.y^-1')"
    assert repr(VALUES[QuasiBand]) == "QuasiBand('x.a^-1.y^-1.a')"
    assert repr(VALUES[BandClass]) == "BandClass('x.a^-1.y^-1.a')"
    assert repr(VALUES[MatrixModule]) == "MatrixModule(dim=4)"
    assert repr(VALUES[Letter]) == "Letter(arrow='a', inverted=True)"
    assert repr(VALUES[ArrowDecl]) == "ArrowDecl(name='x', source='1', target='1')"
    assert repr(VALUES[SeparationWitness]) == "SeparationWitness(word=Word('a'), counts=(0, 1, 0, 1))"
    assert repr(VALUES[ExtendabilityWitness]) == (
        "ExtendabilityWitness(rot_b=QuasiBand('a.b^-1'), rot_c=QuasiBand('b^-1.a'), w=Word('1_u'), "
        "beta='a', delta='b', d=QuasiBand('b^-1.a.a.b^-1'))"
    )
    assert repr(VALUES[Case1Witness]) == (
        "Case1Witness(rot=QuasiBand('b^-1.a.b^-1.a.b^-1'), n=2, w=Word('b^-1.a.b^-1'), "
        "pieces=(QuasiBand('b^-1.a'), QuasiBand('b^-1.a.b^-1')))"
    )
    assert repr(VALUES[Case2Witness]) == (
        "Case2Witness(rot=QuasiBand('a.x.a^-1.y^-1'), w=Word('a'), u=Word('x'), v=Word('y^-1'), "
        "reversed_band=QuasiBand('a.x^-1.a^-1.y^-1'))"
    )
    assert repr(VALUES[QuadraticWitness]) == (
        "QuadraticWitness(d=Word('a'), alpha='y', beta='x', gamma='y', delta='x')"
    )
    assert repr(VALUES[ValidationReport]) == (
        "ValidationReport(valid=True, violations=(), quadratic=True, admissibility_bound=4, "
        "redundant_relations=())"
    )
    assert repr(VALUES[ComponentVerdict]) == (
        "ComponentVerdict(status='NotComponent', reasons=('class 0 is negligible (case 2 reversal)',), "
        f"dimension=None, witnesses=(((0,), {VALUES[Case2Witness]!r}),))"
    )


def test_record_defaults_and_field_order():
    assert ComponentVerdict("IsComponent", ()) == ("IsComponent", (), None, ())
    assert ComponentVerdict("IsComponent", ())._replace(dimension=3).dimension == 3
    assert list(VALUES[ExtendabilityWitness]._asdict()) == list(FIELDS[ExtendabilityWitness])
    assert VALUES[Letter].inv() == Letter("a", False)


PICKLE_MODULE = """
import pickle, sys
from stringbands import load_algebra, parse_word, realize_string
spec = load_algebra(sys.argv[2])
M = realize_string(spec, parse_word("x.a^-1.y^-1"))
hash(M)  # as every syzygy lookup does
if sys.argv[1] == "dump":
    sys.stdout.buffer.write(pickle.dumps(M))
else:
    N = pickle.loads(sys.stdin.buffer.read())
    print(N == M, hash(N) == hash(M), N in {M})
"""


def _run(seed, mode, data=None):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONHASHSEED=str(seed),
               PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, "-c", PICKLE_MODULE, mode, str(FIXTURE_DIR / "dumbbell.alg")],
        input=data, capture_output=True, env=env, check=True,
    )
    return proc.stdout


def test_a_pickled_module_rehashes_in_another_process():
    data = _run(1, "dump")
    assert _run(2, "load", data).decode().split() == ["True", "True", "True"]

