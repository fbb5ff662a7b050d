"""Shared test algebras, loaded once from the fixture files.

AlgebraSpec instances compare by value, but each object keeps its own
answers (`AlgebraSpec.kept`), so a reloaded or copied algebra starts with none.
"""

from pathlib import Path

from stringbands import load_algebra

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"

GP22 = load_algebra(FIXTURE_DIR / "two_loops_rad2.alg")
GP33 = load_algebra(FIXTURE_DIR / "two_loops_cubic.alg")
KRON = load_algebra(FIXTURE_DIR / "kronecker.alg")
LOOP = load_algebra(FIXTURE_DIR / "dumbbell.alg")

ALL = {"two_loops_rad2": GP22, "two_loops_cubic": GP33,
       "kronecker": KRON, "dumbbell": LOOP}

QUADRATIC = {name: spec for name, spec in ALL.items()
             if all(len(r) == 2 for r in spec.relations)}
