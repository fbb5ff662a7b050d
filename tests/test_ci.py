"""scripts/ci.py: the fast static steps pass on this tree and fail, naming
the file and line, on a copy of it with one planted fault."""

import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ci", ROOT / "scripts" / "ci.py")
ci = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ci)


@pytest.mark.parametrize("step", ["source-size", "test-imports", "quickstart"])
def test_the_fast_steps_pass_on_this_tree(step):
    ci.STEPS[step](ROOT)


def copy_of(tmp_path, *dirs):
    for d in dirs:
        shutil.copytree(ROOT / d, tmp_path / d, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    return tmp_path


def plant(path, text):
    """Append text to the file at path; the line number text starts at."""
    old = path.read_text()
    path.write_text(old + text)
    return old.count("\n") + 1


def test_source_size_fails_on_a_module_level_cache(tmp_path):
    root = copy_of(tmp_path, "src", "scripts", "bench")
    line = plant(root / "src/stringbands/words.py", (
        "import functools\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def planted_cache(n):\n"
        "    return n\n"
    ))
    with pytest.raises(ci.Fail, match=f"src/stringbands/words.py:{line + 1}; "):
        ci.source_size(root)


def test_source_size_fails_on_a_typing_named_tuple(tmp_path):
    root = copy_of(tmp_path, "src", "scripts", "bench")
    line = plant(root / "src/stringbands/hom.py", (
        "from typing import NamedTuple\n"
        "class Planted(NamedTuple):\n"
        "    n: int\n"
    ))
    with pytest.raises(ci.Fail) as info:
        ci.source_size(root)
    assert str(info.value).startswith(
        f"NamedTuple at src/stringbands/hom.py:{line}, src/stringbands/hom.py:{line + 1}; "
        "every import compiles one ForwardRef per field"
    )


def test_source_size_passes_a_comment_and_a_docstring_naming_a_cache_and_a_named_tuple(tmp_path):
    # the gates read the AST, so only code that reads or imports them counts
    root = copy_of(tmp_path, "src", "scripts", "bench")
    path = root / "src/stringbands/hom.py"
    path.write_text(path.read_text().replace('"""', '"""No NamedTuple and no functools.cache or lru_cache:\n'
                                             "from functools import cache is not code here.\n\n", 1))
    plant(path, "# BandSequence is a _Frozen class, not a typing.NamedTuple or an lru_cache\n")
    ci.source_size(root)


def test_source_size_fails_on_an_import_below_module_level(tmp_path):
    root = copy_of(tmp_path, "src", "scripts", "bench")
    line = plant(root / "src/stringbands/hom.py", (
        "def planted():\n"
        "    from .words import Table\n"
        "    return Table\n"
    ))
    with pytest.raises(ci.Fail) as info:
        ci.source_size(root)
    assert str(info.value).startswith(
        f"an import below module level at src/stringbands/hom.py:{line + 1}; an import on first use binds"
    )


def test_source_size_fails_on_a_second_read_through_type(tmp_path):
    root = copy_of(tmp_path, "src", "scripts", "bench")
    line = plant(root / "src/stringbands/hom.py", (
        "class Planted(dict):\n"
        "    def __missing__(self, key):\n"
        "        return self.setdefault(key, key)\n"
    ))
    with pytest.raises(ci.Fail) as info:
        ci.source_size(root)
    assert str(info.value).startswith(
        f"__missing__ outside words.Table at src/stringbands/hom.py:{line}: Planted; read what an algebra keeps"
    )


def test_source_size_fails_on_dead_definitions(tmp_path):
    # source_size is a name only scripts/ci.py reads, and that read keeps no
    # public name of the package alive
    root = copy_of(tmp_path, "src", "scripts", "bench")
    line = plant(root / "src/stringbands/words.py", "def _planted():\n    return 1\ndef source_size():\n    return 1\n")
    with pytest.raises(ci.Fail) as info:
        ci.source_size(root)
    assert str(info.value) == (
        "definitions that nothing outside their own reads: "
        f"src/stringbands/words.py:{line}: _planted, src/stringbands/words.py:{line + 2}: source_size"
    )


def test_test_imports_fails_on_an_unread_import(tmp_path):
    root = copy_of(tmp_path, "tests")
    path = root / "tests/test_words.py"
    path.write_text("import zipfile\n" + path.read_text())
    with pytest.raises(ci.Fail) as info:
        ci.test_imports(root)
    assert str(info.value) == "module-level imports that their module never reads: tests/test_words.py:1: zipfile"


def test_test_imports_fails_on_an_unread_import_in_a_script(tmp_path):
    root = copy_of(tmp_path, "tests", "scripts")
    path = root / "scripts/component_survey.py"
    line = plant(path, "from stringbands import QuasiBand\n")
    with pytest.raises(ci.Fail) as info:
        ci.test_imports(root)
    assert str(info.value) == (
        f"module-level imports that their module never reads: scripts/component_survey.py:{line}: QuasiBand"
    )


def test_a_missing_entry_point_is_skipped_here_and_fails_under_github_actions(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("PATH", str(tmp_path))
    monkeypatch.delenv("GITHUB_ACTIONS", raising=False)
    assert ci.main(["console-script"]) == 0
    monkeypatch.setenv("GITHUB_ACTIONS", "true")
    assert ci.main(["console-script"]) == 1
    assert capsys.readouterr().out == "skipped console-script: no entry point\nFAIL console-script: no entry point\n"


def test_an_unknown_step_exits_two_and_runs_nothing(capsys):
    assert ci.main(["source-size", "no-such-step"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("unknown step: no-such-step;")
