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
    BandClass,
    ComponentVerdict,
    MatrixModule,
    QuasiBand,
    ValidationReport,
    Word,
    canonical_class,
    decide_component,
    load_algebra,
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
    MatrixModule: ("spec", "vertex_of", "entries", "labels"),
}


def build():
    """One value of each type, built afresh from the dumbbell fixture; the
    verdict carries a case-2 witness."""
    spec = load_algebra(FIXTURE_DIR / "dumbbell.alg")
    B = canonical_class(spec, parse_word("x.a^-1.y^-1.a"))
    return {
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

