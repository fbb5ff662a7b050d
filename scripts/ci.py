#!/usr/bin/env python3
"""Run the checks of the CI workflow, one function per step, in workflow order.

    python scripts/ci.py                         # every step
    python scripts/ci.py source-size quickstart  # the steps named

Each step prints what it reports, then one verdict line: `ok <step> (<s> s)`,
`FAIL <step>: <reason>` or `skipped <step>: <reason>`.  Exit status 1 when a
step failed, 2 on an unknown step name.  Every child process runs in the
checkout with src/ first on its PYTHONPATH, so only console-script needs the
package installed.  Tier-1 runs source-size, test-imports and quickstart
through the same functions (tests/test_ci.py).  Standard library only.
"""

import ast
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PY = sys.executable
IN_PROCESS = ("hom-grid", "hom-counts", "ext-survey")
# the exact counters of a traced run's detail line that bench-traced prints
COUNTERS = (
    "oracle.dim_hom_calls", "oracle.unknowns_total", "oracle.rank_total", "oracle.module_nnz",
    "components.searches", "components.witnesses",
)


class Fail(Exception):
    """A step's check failed; the message says what and where."""


class Skip(Exception):
    """A step cannot run here; the message says why."""


def run(root, *cmd):
    """cmd, finished, run in root with src/ first on PYTHONPATH; its output in bytes."""
    path = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run(cmd, cwd=root, env=env, capture_output=True)


def checked(root, *argv):
    """Run python with argv as run does and print its output; Fail unless it exits 0."""
    proc = run(root, PY, *argv)
    print((proc.stdout + proc.stderr).decode(errors="replace"), end="")
    if proc.returncode:
        raise Fail(f"python {' '.join(argv)} exited {proc.returncode}")


def golden(root, name):
    """The lines of tests/<name>, split into fields."""
    return [line.split() for line in (root / "tests" / name).read_text().splitlines()]


def gate(label, out):
    """Print the start of the result line, the last line bench/run.py printed
    in out; Fail unless every answer gate passed.  run.py exits 0 even when
    a gate fails, so only this line carries the verdict."""
    last = (out.splitlines() or [""])[-1]
    print(f"{label}: {last[:60]}")
    if not last.startswith('{"correct": true'):
        raise Fail(f"{label}: an answer gate failed")


def reads(tree):
    """(name, line) of every name and attribute the code reads: no docstring,
    comment or string counts"""
    for n in ast.walk(tree):
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load):
            yield (n.id if isinstance(n, ast.Name) else n.attr), n.lineno


def source_size(root):
    """The size of each module in lines and in code lines, the number of
    public names the package exports and the tables an algebra object keeps
    (words.KEPT), by name: the figures each change reports.  A code line is
    not blank, not a # comment and not in a docstring (by the AST); it is
    reported only, so a change that grows by its docstrings shows it.

    Every memo is kept in a table on its algebra object (words.Table); a
    module-level cache would keep every algebra it ever saw alive, so one
    fails the step: an lru_cache read, functools.cache, or either imported
    from functools.  So does a class in src/ other than words.Table that
    defines __missing__: one read-through type keeps one place to count,
    own and reset what an algebra keeps.
    So does typing.NamedTuple, read or imported anywhere in src/: every
    import of the package would compile one ForwardRef per field of such a
    class, so record types are collections.namedtuple.  These gates, like
    the rest, read the AST, so a comment or docstring naming them passes.
    So does an import below module level in src/ (by the AST): an import on
    first use binds whatever module sys.modules holds at that moment, so
    after a re-import of the package an object made before it would read
    the new module's classes.
    So does dead code: a top-level private name that no code in src/ outside
    its own definition reads (as a name or an attribute, by the AST, so a
    mention in a docstring or comment does not count), or a public one that
    the package does not export and that nothing in src/, scripts/ or bench/
    reads.  The tests do not count, and neither does this script.
    """
    trees, total, total_code = {}, 0, 0
    for path in sorted((root / "src/stringbands").glob("*.py")):
        text = path.read_text()
        tree = trees[path.relative_to(root)] = ast.parse(text)
        docs = set()
        for n in ast.walk(tree):
            if isinstance(n, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and ast.get_docstring(n, clean=False) is not None:
                docs.update(range(n.body[0].lineno, n.body[0].end_lineno + 1))
        code = sum(1 for i, line in enumerate(text.splitlines(), 1)
                   if line.strip() and not line.strip().startswith("#") and i not in docs)
        lines = text.count("\n")
        total, total_code = total + lines, total_code + code
        print(f"{lines:6} lines {code:6} code lines {path.relative_to(root)}")
    print(f"{total:6} lines {total_code:6} code lines total")
    checked(root, "-c", "import types, stringbands; print('public names:', sum(not n.startswith('_')"
                        " and not isinstance(v, types.ModuleType) for n, v in vars(stringbands).items()));"
                        " from stringbands.words import KEPT; print(f'tables ({len(KEPT)}):', *KEPT)")

    def at(hit):
        """path:line of every node of src/ that hit accepts: by the AST, so no
        comment, docstring or string counts"""
        lines = sorted({(str(path), n.lineno) for path, tree in trees.items() for n in ast.walk(tree) if hit(n)})
        return ", ".join(f"{p}:{i}" for p, i in lines)

    def loads(n, name):
        return isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load) \
            and name in (getattr(n, "id", None), getattr(n, "attr", None))

    def imports(n, module, names):
        return isinstance(n, ast.ImportFrom) and n.module == module and any(a.name in names for a in n.names)

    if caches := at(lambda n: loads(n, "lru_cache") or imports(n, "functools", {"cache", "lru_cache"})
                    or isinstance(n, ast.Attribute) and n.attr == "cache" and getattr(n.value, "id", None) == "functools"):
        raise Fail(f"a module-level cache at {caches}; keep the answers in a table on the algebra (words.Table)")
    if named := at(lambda n: loads(n, "NamedTuple") or imports(n, "typing", {"NamedTuple"})):
        raise Fail(f"NamedTuple at {named}; every import compiles one ForwardRef per field of such a"
                   " class, so define record types with collections.namedtuple")

    missing = [f"{path}:{n.lineno}: {n.name}" for path, tree in trees.items() for n in ast.walk(tree)
               if isinstance(n, ast.ClassDef) and any(getattr(f, "name", None) == "__missing__" for f in n.body)
               and (path, n.name) != (Path("src/stringbands/words.py"), "Table")]
    if missing:
        raise Fail(f"__missing__ outside words.Table at {', '.join(missing)}; read what an algebra keeps"
                   " through its tables (words.Table)")

    nested = sorted({(str(path), n.lineno) for path, tree in trees.items() for scope in ast.walk(tree)
                     if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                     for n in ast.walk(scope) if isinstance(n, (ast.Import, ast.ImportFrom))})
    if nested:
        raise Fail(f"an import below module level at {', '.join(f'{p}:{i}' for p, i in nested)}; an import on"
                   " first use binds whatever module sys.modules holds then, so import at module level")

    src_reads = {p: list(reads(t)) for p, t in trees.items()}
    users = Counter(name for d in ("scripts", "bench") for p in sorted((root / d).rglob("*.py"))
                    if p != root / "scripts/ci.py" for name, _ in reads(ast.parse(p.read_text())))
    init = trees[Path("src/stringbands/__init__.py")]
    exported = {a.asname or a.name for n in init.body if isinstance(n, ast.ImportFrom) for a in n.names}
    dead = []
    for path, tree in trees.items():
        for node in tree.body:
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            names = [node.name] if hasattr(node, "name") else [t.id for t in targets if isinstance(t, ast.Name)]
            own = range(node.lineno, node.end_lineno + 1)
            for name in names:
                if name.startswith("__") or name in exported:
                    continue
                read = sum(r == name and not (p == path and line in own) for p, rs in src_reads.items() for r, line in rs)
                if not (read or not name.startswith("_") and users[name]):
                    dead.append(f"{path}:{node.lineno}: {name}")
    if dead:
        raise Fail("definitions that nothing outside their own reads: " + ", ".join(dead))


def test_imports(root):
    """A module-level import in tests/*.py or scripts/*.py that its module
    never reads.  A read is a name or an attribute loaded (by the AST, so a
    docstring or comment does not count) or a function parameter's name, so
    an imported pytest fixture that a test takes as a parameter counts as
    read; __future__ is skipped."""
    unread = []
    for path in sorted(p for d in ("tests", "scripts") for p in (root / d).glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {name for name, _ in reads(tree)} | {n.arg for n in ast.walk(tree) if isinstance(n, ast.arg)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            for a in node.names:
                name = a.asname or a.name.split(".")[0]
                if name != "*" and name not in read:
                    unread.append(f"{path.relative_to(root)}:{node.lineno}: {name}")
    if unread:
        raise Fail("module-level imports that their module never reads: " + ", ".join(unread))


def console_script(root):
    """The [project.scripts] entry point that pip installed: its validate
    output on every fixture against tests/validate_digests.txt, then the
    strings and bands that it and `python -m stringbands` list against
    tests/enumerate_digests.txt, the golden digests the tier-1 tests also
    read.  Both entry points end with os._exit once the output is flushed,
    so a lost tail of the output shows here.  Without the entry point on
    PATH the step is skipped, and fails under GitHub Actions, where it must
    run."""
    if shutil.which("stringbands") is None:
        if "GITHUB_ACTIONS" in os.environ:
            raise Fail("no entry point")
        raise Skip("no entry point")
    wrong = []
    for path, digest in golden(root, "validate_digests.txt"):
        got = hashlib.sha256(run(root, "stringbands", "validate", path).stdout).hexdigest()
        if got != digest:
            wrong.append(f"stringbands validate {path}: digest {got}, expected {digest}")
    for path, kind, n, digest in golden(root, "enumerate_digests.txt"):
        for entry, cmd in (("stringbands", ["stringbands"]), ("python -m stringbands", [PY, "-m", "stringbands"])):
            got = hashlib.sha256(run(root, *cmd, "enumerate", path, kind, "--max-len", n).stdout).hexdigest()
            if got != digest:
                wrong.append(f"{entry} enumerate {path} {kind} --max-len {n}: digest {got}, expected {digest}")
    if wrong:
        raise Fail("; ".join(wrong))


def quickstart(root):
    """The README's first python block, run from the checkout root as
    documented; a non-zero exit fails the step."""
    block, inside = [], False
    for line in (root / "README.md").read_text().splitlines(keepends=True):
        if line.startswith("```python"):
            inside = True
        elif inside and line.startswith("```"):
            break
        elif inside:
            block.append(line)
    if not "".join(block):
        raise Fail("README has no python block")
    with tempfile.TemporaryDirectory() as tmp:
        script = Path(tmp) / "quickstart.py"
        script.write_text("".join(block))
        checked(root, str(script))


def crosscheck(root):
    """scripts/oracle_crosscheck.py on every fixture at strings <= 7 and bands
    <= 8, the sizes the hom-counts workload counts at: count_hom against
    dim_hom on every ordered pair of modules, each string and each band
    class at both parameters; the script exits 1 on any disagreement.  The
    second pair of parameters is negative and non-integer, so the oracle's
    hom systems carry signs and denominators."""
    for path in sorted((root / "fixtures").glob("*.alg")):
        for params in ([], ["--params=-1,2/3"]):
            checked(root, "scripts/oracle_crosscheck.py", str(path.relative_to(root)),
                    "--max-len", "7", "--max-period", "8", *params)


def scaling(root):
    """The full series of scripts/scaling.py, strings to 800 letters and bands
    to period 260, run for agreement with the oracle only (the times are
    printed, not gated); the script exits 1 on a mismatch."""
    checked(root, "scripts/scaling.py")


def bench_gates(root):
    """One short bench/run.py run per workload at seed 1, then the
    in-process workloads at seed 2.  Another seed shuffles the operations
    into another order, so an answer kept on a band class that depended on
    call order would fail a digest or consistency gate there.  A kept band
    tally grows with the longest reach asked of it, so the hom workloads ask
    their reaches in another order too."""
    for seed, workloads in (("1", (*IN_PROCESS, "cli-cold")), ("2", IN_PROCESS)):
        for w in workloads:
            proc = run(root, PY, "bench/run.py", "--workload", w, "--seed", seed, "--seconds", "1")
            gate(w if seed == "1" else f"{w} seed 2", proc.stdout.decode())


def bench_traced(root):
    """One traced round per in-process workload; a traced run fails its gate
    when the exact counters (hom systems, unknowns, ranks) differ between
    rounds, so a change to what the oracle solves shows up here.  The
    oracle's exact counters and the witness searches' (searches made,
    witnesses found) from each run's detail line are printed, so a log can
    be compared with the parent commit's."""
    for w in IN_PROCESS:
        proc = run(root, PY, "bench/run.py", "--workload", w, "--seed", "1", "--trace", "1")
        if proc.returncode:
            raise Fail(f"{w} traced: bench/run.py exited {proc.returncode}")
        out = proc.stdout.decode()
        detail = "\n".join(line for line in out.splitlines() if line.startswith('{"detail"'))
        c = json.loads(detail)["detail"]["counters"]
        print(w, "counters:", *(n + "=" + str(c[n]) for n in COUNTERS))
        gate(f"{w} traced", out)


STEPS = {f.__name__.replace("_", "-"): f for f in (
    source_size, test_imports, console_script, quickstart, crosscheck, scaling, bench_gates, bench_traced,
)}


def verdict(name):
    """Run one step; its verdict line."""
    start = time.perf_counter()
    try:
        STEPS[name](ROOT)
    except Skip as exc:
        return f"skipped {name}: {exc}"
    except Fail as exc:
        return f"FAIL {name}: {exc}"
    except Exception as exc:  # a check that crashed: its traceback, then its verdict
        traceback.print_exc(file=sys.stdout)
        return f"FAIL {name}: {exc!r}"
    return f"ok {name} ({time.perf_counter() - start:.2f} s)"


def main(names):
    unknown = [n for n in names if n not in STEPS]
    if unknown:
        print(f"unknown step: {' '.join(unknown)}; the steps are {' '.join(STEPS)}", file=sys.stderr)
        return 2
    failed = False
    for name in names or STEPS:
        line = verdict(name)
        print(line)
        failed |= line.startswith("FAIL")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
