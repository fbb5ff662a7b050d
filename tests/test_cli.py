import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from stringbands import (
    dim_hom,
    enumerate_bands,
    enumerate_strings,
    format_word,
    hom_string_band,
    hom_string_string,
    load_algebra,
    realize_band,
    realize_string,
)
from stringbands import cli
from stringbands.cli import main

ROOT = Path(__file__).resolve().parent.parent
GP22_FILE = "fixtures/two_loops_rad2.alg"
GP33_FILE = "fixtures/two_loops_cubic.alg"
KRON_FILE = "fixtures/kronecker.alg"
LOOP_FILE = "fixtures/dumbbell.alg"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_json(*argv):
    code, out, err = run_cli(*argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture(autouse=True)
def repo_root_cwd(monkeypatch):
    monkeypatch.chdir(ROOT)


GOLDEN_VALIDATE = """\
{
  "command": "validate",
  "inputs": {
    "file": "fixtures/two_loops_rad2.alg"
  },
  "result": {
    "valid": true,
    "violations": [],
    "quadratic": true,
    "admissibility_bound": 2,
    "redundant_relations": [],
    "gentle_vertices": [],
    "gentle": false
  }
}
"""


def test_validate_output_is_byte_stable():
    code, out, err = run_cli("validate", GP22_FILE)
    assert code == 0
    assert out == GOLDEN_VALIDATE
    again = run_cli("validate", GP22_FILE)
    assert again == (code, out, err)


def test_enumerate_strings_payload():
    doc = run_json("enumerate", GP22_FILE, "strings", "--max-len", "2")
    assert doc["result"]["count"] == 5
    assert doc["result"]["entries"] == ["1_u", "a", "b", "a.b^-1", "a^-1.b"]
    zero = run_json("enumerate", KRON_FILE, "strings", "--max-len", "0")
    assert zero["result"]["entries"] == ["1_1", "1_2"]


def test_enumerate_bands_payload():
    doc = run_json("enumerate", KRON_FILE, "bands", "--max-len", "4")
    assert doc["result"] == {"count": 1, "entries": ["a.b^-1"]}
    doc = run_json("enumerate", GP33_FILE, "bands", "--max-len", "6")
    assert doc["result"]["count"] == 8


FIXTURES = sorted(str(p.relative_to(ROOT)) for p in (ROOT / "fixtures").glob("*.alg"))


def golden(name):
    return [line.split() for line in (ROOT / "tests" / name).read_text().splitlines()]


# sha256 of the whole stdout of `validate <fixture>`, one line per fixture;
# the CI console-script step checks the installed entry point against the
# same file
VALIDATE_DIGESTS = golden("validate_digests.txt")


def test_validate_digests_cover_every_fixture():
    assert sorted(f for f, _ in VALIDATE_DIGESTS) == FIXTURES


@pytest.mark.parametrize("path, digest", VALIDATE_DIGESTS)
def test_validate_output_matches_its_golden_digest(path, digest):
    code, out, err = run_cli("validate", path)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the whole stdout of `enumerate <fixture> <kind> --max-len <n>`,
# one line per fixture and kind, strings to 8 letters and bands to period
# 10; the CI console-script step checks both entry points against the same
# file
DIGESTS = golden("enumerate_digests.txt")


def test_enumerate_digests_cover_every_fixture():
    assert sorted((f, kind, n) for f, kind, n, _ in DIGESTS) == [
        (f, kind, n) for f in FIXTURES for kind, n in (("bands", "10"), ("strings", "8"))
    ]


@pytest.mark.parametrize("path, kind, max_len, digest", DIGESTS)
def test_enumerate_output_matches_its_golden_digest(path, kind, max_len, digest):
    code, out, err = run_cli("enumerate", path, kind, "--max-len", max_len)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_hom_counts_backend_echoes_canonical_forms():
    doc = run_json("hom", GP22_FILE, "--from", "band:b^-1.a", "--to", "string:a")
    assert doc["inputs"]["from"] == "band:a.b^-1"
    assert doc["inputs"]["to"] == "string:a"
    assert doc["result"] == {
        "dim": 1, "backend": "counts", "lambda": None, "mu": None,
    }


def test_hom_oracle_backend_samples_parameters_deterministically():
    argv = ("hom", GP22_FILE, "--from", "band:a.b^-1", "--to", "band:a.b^-1",
            "--oracle")
    doc = run_json(*argv)
    assert doc["result"]["backend"] == "oracle"
    assert doc["result"]["dim"] == 1
    lam, mu = doc["result"]["lambda"], doc["result"]["mu"]
    assert lam in {"2", "3", "5"} and mu in {"2", "3", "5"} and lam != mu
    assert run_json(*argv) == doc
    other = run_json(*argv, "--seed", "9")
    assert other["result"]["dim"] == 1


def test_hom_oracle_accepts_explicit_parameters():
    doc = run_json(
        "hom", GP22_FILE, "--from", "band:a.b^-1", "--to", "band:a.b^-1",
        "--oracle", "--lambda", "2", "--mu", "7/2",
    )
    assert doc["result"] == {
        "dim": 1, "backend": "oracle", "lambda": "2", "mu": "7/2",
    }


@pytest.mark.parametrize("ends, given", [
    (("--from", "band:a.b^-1", "--to", "string:a"), ("--mu", "2")),
    (("--from", "string:a", "--to", "band:a.b^-1"), ("--lambda", "2")),
])
def test_hom_oracle_ignores_a_parameter_given_for_a_string(ends, given):
    # the string's parameter is echoed in inputs, reported null in result,
    # and leaves the band's draw as it is without it
    argv = ("hom", KRON_FILE, *ends, "--oracle")
    key = "mu" if given[0] == "--mu" else "lambda"
    for seed in range(20):
        plain = run_json(*argv, "--seed", str(seed))
        doc = run_json(*argv, *given, "--seed", str(seed))
        assert doc["result"] == plain["result"]
        assert doc["result"][key] is None
        assert doc["inputs"][key] == "2"


def test_a_negative_fraction_parameter_is_given_with_an_equals_sign():
    # argparse reads a separate "-2/3" as an option, so the help names this form
    doc = run_json(
        "hom", KRON_FILE, "--from", "band:a.b^-1", "--to", "band:a.b^-1",
        "--oracle", "--lambda=-2/3", "--mu", "2",
    )
    assert doc["inputs"]["lambda"] == "-2/3"
    assert doc["result"] == {
        "dim": 0, "backend": "oracle", "lambda": "-2/3", "mu": "2",
    }


@pytest.mark.parametrize("path", [GP22_FILE, GP33_FILE, KRON_FILE, LOOP_FILE])
def test_hom_counts_on_one_band_at_equal_parameters_match_the_oracle(path):
    spec = load_algebra(ROOT / path)
    for B in enumerate_bands(spec, 4):
        word = f"band:{format_word(B.canonical.as_word())}"
        argv = ("hom", path, "--from", word, "--to", word)
        X = realize_band(spec, B, 2)
        same = run_json(*argv, "--lambda", "2", "--mu", "2")
        assert same["result"]["dim"] == dim_hom(X, X)
        generic = run_json(*argv, "--lambda", "2", "--mu", "3")
        assert generic["result"]["dim"] == dim_hom(X, realize_band(spec, B, 3))
        assert run_json(*argv)["result"] == generic["result"]


@pytest.mark.parametrize("path", [GP22_FILE, GP33_FILE, KRON_FILE, LOOP_FILE])
def test_counted_hom_from_a_string_matches_the_counts_and_the_oracle(path):
    spec = load_algebra(ROOT / path)
    strings = enumerate_strings(spec, 2)
    for c in strings:
        X = realize_string(spec, c)
        argv = ("hom", path, "--from", f"string:{format_word(c)}", "--to")
        for d in strings:
            doc = run_json(*argv, f"string:{format_word(d)}")
            n = hom_string_string(spec, c, d)
            assert doc["result"] == {"dim": n, "backend": "counts", "lambda": None, "mu": None}
            assert n == dim_hom(X, realize_string(spec, d))
        for B in enumerate_bands(spec, 4):
            doc = run_json(*argv, f"band:{format_word(B.canonical.as_word())}")
            assert doc["result"]["dim"] == hom_string_band(spec, c, B)
            assert doc["result"]["dim"] == dim_hom(X, realize_band(spec, B, 3))


KRON_SELF = ("hom", KRON_FILE, "--from", "band:a.b^-1", "--to", "band:a.b^-1", "--mu", "2")


def test_a_drawn_lambda_never_equals_an_explicit_mu():
    counted = run_json(*KRON_SELF)["result"]["dim"]
    for seed in range(20):
        doc = run_json(*KRON_SELF, "--oracle", "--seed", str(seed))
        assert doc["result"]["lambda"] != "2"
        assert doc["result"]["dim"] == counted == 0


def test_a_drawn_lambda_away_from_mu_is_the_one_drawn_before():
    # seed 0 draws 3 at once, so its output is the one printed before a
    # lambda equal to --mu was drawn again
    code, out, _ = run_cli(*KRON_SELF, "--oracle", "--seed", "0")
    assert code == 0
    assert out == """{
  "command": "hom",
  "inputs": {
    "file": "fixtures/kronecker.alg",
    "from": "band:a.b^-1",
    "to": "band:a.b^-1",
    "oracle": true,
    "lambda": null,
    "mu": "2",
    "seed": 0
  },
  "result": {
    "dim": 0,
    "backend": "oracle",
    "lambda": "3",
    "mu": "2"
  }
}
"""


def test_negative_bounds_are_rejected_by_the_parser():
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit) as exit_info:
        main(["enumerate", KRON_FILE, "strings", "--max-len", "-3"])
    assert exit_info.value.code == 2
    assert "must be nonnegative" in err.getvalue()


def test_component_verdict_with_witnesses():
    doc = run_json("component", LOOP_FILE, "--bands", "a.x.a^-1.y^-1")
    assert doc["result"]["status"] == "NotComponent"
    kinds = {w["kind"] for w in doc["witnesses"]}
    assert "negligible-case2" in kinds
    doc = run_json("component", GP22_FILE, "--bands", "a.b^-1,a.b^-1")
    assert doc["result"]["status"] == "IsComponent"
    assert doc["result"]["dimension"] == 12
    doc = run_json("component", GP33_FILE, "--bands", "a^-1.b")
    assert doc["result"]["status"] == "Unknown"


def assert_golden(argv, expected):
    code, out, err = run_cli(*argv)
    assert (code, err) == (0, "")
    # key order is part of the format
    assert json.dumps(json.loads(out)) == json.dumps(expected)


# Whole documents for every witness layout: both extendable orders and a
# case 1 split in one verdict, and a case 2 reversal.  Witness keys are the
# witness fields in order, with d printed as concat and reversed_band as
# reversed.
GOLDEN_COMPONENTS = [
    (
        ("component", GP33_FILE, "--bands", "a.a.b^-1.a.b^-1,a.b^-1"),
        {
            "command": "component",
            "inputs": {"file": GP33_FILE, "bands": ["a.a.b^-1.a.b^-1", "a.b^-1"]},
            "result": {
                "status": "NotComponent",
                "reasons": [
                    "classes 0 and 1 are extendable via b^-1.a.a.b^-1.a.a.b^-1",
                    "classes 1 and 0 are extendable via b^-1.a.a.b^-1.a.a.b^-1",
                    "class 0 is negligible (case 1 split)",
                ],
                "dimension": None,
            },
            "witnesses": [
                {
                    "kind": "extendable", "pair": [0, 1],
                    "rot_b": "a.b^-1.a.a.b^-1", "rot_c": "b^-1.a", "w": "1_u",
                    "beta": "a", "delta": "b", "concat": "b^-1.a.a.b^-1.a.a.b^-1",
                },
                {
                    "kind": "extendable", "pair": [1, 0],
                    "rot_b": "a.b^-1", "rot_c": "b^-1.a.a.b^-1.a", "w": "1_u",
                    "beta": "a", "delta": "b", "concat": "b^-1.a.a.b^-1.a.a.b^-1",
                },
                {
                    "kind": "negligible-case1", "class": 0,
                    "rot": "a.b^-1.a.a.b^-1", "n": 3, "w": "a.b^-1.a",
                    "pieces": ["a.b^-1.a", "a.b^-1"],
                },
            ],
        },
    ),
    (
        ("component", LOOP_FILE, "--bands", "x.a^-1.y^-1.a"),
        {
            "command": "component",
            "inputs": {"file": LOOP_FILE, "bands": ["x.a^-1.y^-1.a"]},
            "result": {
                "status": "NotComponent",
                "reasons": ["class 0 is negligible (case 2 reversal)"],
                "dimension": None,
            },
            "witnesses": [
                {
                    "kind": "negligible-case2", "class": 0,
                    "rot": "a.x.a^-1.y^-1", "w": "a", "u": "x", "v": "y^-1",
                    "reversed": "a.x^-1.a^-1.y^-1",
                },
            ],
        },
    ),
]


@pytest.mark.parametrize("argv, expected", GOLDEN_COMPONENTS, ids=["extendable-and-case1", "case2"])
def test_component_witness_documents_are_golden(argv, expected):
    assert_golden(argv, expected)


def test_degenerate_reverse():
    argv = (
        "degenerate", LOOP_FILE, "--band", "a.x.a^-1.y^-1", "--mode", "reverse",
        "--w", "a", "--u", "x", "--v", "y^-1",
    )
    assert_golden(argv, {
        "command": "degenerate",
        "inputs": {
            "file": LOOP_FILE, "band": "a.x.a^-1.y^-1", "mode": "reverse",
            "w": "a", "u": "x", "v": "y^-1",
        },
        "result": {"rotation": "a.x.a^-1.y", "dominating": "x.a^-1.y.a"},
    })


def test_degenerate_split():
    argv = ("degenerate", GP33_FILE, "--band", "b.a^-1.b.b.a^-1", "--mode", "split")
    assert_golden(argv, {
        "command": "degenerate",
        "inputs": {"file": GP33_FILE, "band": "b.a^-1.b.b.a^-1", "mode": "split"},
        "result": {
            "rot": "b^-1.a.b^-1.a.b^-1", "n": 2, "w": "b^-1.a.b^-1",
            "pieces": ["b^-1.a", "b^-1.a.b^-1"],
            "piece_classes": ["a.b^-1", "a.b^-1.b^-1"],
        },
    })
    # the second piece is the square of b^-1.a.b^-1, so it has no class
    band = "a.b^-1.a.b^-1.a.b^-1.a.b^-1.b^-1"
    assert_golden(("degenerate", GP33_FILE, "--band", band, "--mode", "split"), {
        "command": "degenerate",
        "inputs": {"file": GP33_FILE, "band": band, "mode": "split"},
        "result": {
            "rot": "a.b^-1.a.b^-1.a.b^-1.b^-1.a.b^-1", "n": 3, "w": "1_u",
            "pieces": ["a.b^-1.a", "b^-1.a.b^-1.b^-1.a.b^-1"],
            "piece_classes": ["a.a.b^-1", None],
        },
    })


def test_degenerate_concat():
    argv = ("degenerate", GP33_FILE, "--band", "a^-1.b", "--mode", "concat", "--with", "a^-1.b")
    assert_golden(argv, {
        "command": "degenerate",
        "inputs": {"file": GP33_FILE, "band": "a^-1.b", "mode": "concat", "with": "a^-1.b"},
        "result": {
            "rot_b": "a.b^-1", "rot_c": "b^-1.a", "w": "1_u", "beta": "a",
            "delta": "b", "concat": "b^-1.a.a.b^-1", "class": "a.a.b^-1.b^-1",
        },
    })


def test_exit_code_two_on_unreadable_or_malformed_input(tmp_path):
    code, out, err = run_cli("validate", str(tmp_path / "missing.alg"))
    assert code == 2 and out == ""
    bad = tmp_path / "bad.alg"
    bad.write_text("vertex u\narrow a u u\n")
    code, out, err = run_cli("validate", str(bad))
    assert code == 2
    assert json.loads(err)["error"] == "ParseError"
    code, out, err = run_cli("hom", GP22_FILE, "--from", "string:??", "--to", "string:a")
    assert code == 2
    # a vertex the algebra lacks is refused like an arrow it lacks
    for word in ("1_9", "z"):
        code, out, err = run_cli("hom", KRON_FILE, "--from", f"string:{word}", "--to", "string:a")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "ParseError"


@pytest.mark.parametrize("words", [
    ("a.x.a^-1.y^-1", "a", "q", "y^-1"),
    ("a.x.a^-1.y^-1", "1_zz", "x", "y^-1"),
    ("a.q.a^-1.y^-1", "a", "x", "y^-1"),
])
def test_reverse_refuses_names_the_algebra_lacks(words):
    band, w, u, v = words
    code, out, err = run_cli(
        "degenerate", LOOP_FILE, "--band", band, "--mode", "reverse", "--w", w, "--u", u, "--v", v,
    )
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "ParseError"


def test_exit_code_three_on_domain_errors():
    code, out, err = run_cli(
        "hom", GP22_FILE, "--from", "band:a.b^-1", "--to", "band:a.b^-1",
        "--oracle", "--lambda", "0",
    )
    assert code == 3
    assert json.loads(err)["error"] == "ZeroParameter"
    code, out, err = run_cli("hom", GP22_FILE, "--from", "band:a.a", "--to", "string:a")
    assert code == 3
    code, out, err = run_cli(
        "degenerate", KRON_FILE, "--band", "a.b^-1", "--mode", "concat",
        "--with", "a.b^-1",
    )
    assert code == 3
    assert json.loads(err)["error"] == "InvalidWitness"
    code, out, err = run_cli(
        "degenerate", GP22_FILE, "--band", "1_u", "--mode", "reverse",
        "--w", "1_u", "--u", "a", "--v", "b^-1",
    )
    assert code == 3
    assert json.loads(err) == {
        "error": "NotQuasiBand", "detail": "a trivial word has no cyclic reading",
    }
    # a valid frame whose rewrite a.b is no quasi-band
    code, out, err = run_cli(
        "degenerate", KRON_FILE, "--band", "a.b^-1", "--mode", "reverse",
        "--w", "1_1", "--u", "a", "--v", "b^-1",
    )
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": "NotQuasiBand", "detail": "a.b"}


@pytest.mark.parametrize("argv, code, error", [
    (("component", KRON_FILE, "--bands", ","), 2, "ParseError"),
    (("degenerate", KRON_FILE, "--band", "a.b^-1", "--mode", "reverse"), 2, "ParseError"),
    (("degenerate", KRON_FILE, "--band", "a.b^-1", "--mode", "concat"), 2, "ParseError"),
    (("hom", KRON_FILE, "--from", "foo:a", "--to", "string:a"), 2, "ParseError"),
    (("degenerate", KRON_FILE, "--band", "a.b^-1", "--mode", "split"), 3, "InvalidWitness"),
    (("hom", KRON_FILE, "--from", "string:a.a^-1", "--to", "string:a"), 3, "NotAString"),
], ids=["no-band-word", "reverse-without-pieces", "concat-without-with", "unknown-module-kind",
        "split-without-case1", "hom-from-a-non-string"])
def test_usage_and_domain_faults_exit_with_their_status(argv, code, error):
    got, out, err = run_cli(*argv)
    assert (got, out) == (code, "")
    assert json.loads(err)["error"] == error


def test_an_internal_error_exits_with_status_four(monkeypatch):
    def broken(args, spec):
        raise RuntimeError("invariant broken")

    monkeypatch.setattr(cli, "cmd_hom", broken)
    code, out, err = run_cli("hom", KRON_FILE, "--from", "string:a", "--to", "string:a")
    assert (code, out) == (4, "")
    assert json.loads(err) == {"error": "RuntimeError", "detail": "invariant broken"}


@pytest.mark.parametrize("option", ["--lambda", "--mu"])
def test_a_parameter_that_is_not_a_rational_is_a_usage_error(option):
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit) as exit_info:
        main(["hom", KRON_FILE, "--from", "band:a.b^-1", "--to", "band:a.b^-1", option, "x/y"])
    assert exit_info.value.code == 2
    assert "not a rational: 'x/y'" in err.getvalue()


def run_child_env():
    # the child finds the package from an uninstalled checkout too, and its
    # stdout is block-buffered as a shell pipe gets it, so what it prints
    # reaches the pipe only through cli.run's flush before os._exit
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def run_child(*argv):
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True,
        env=run_child_env(),
    )


def test_importing_the_cli_skips_dataclasses():
    # a cold start pays for no dataclass machinery, and still loads the
    # modules the benchmark's CLI probe wraps
    proc = run_child("-c", (
        "import sys, stringbands.cli; print(*(m in sys.modules for m in "
        "('dataclasses', 'stringbands.oracle', 'stringbands.components')))"
    ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True", "True"]


def test_module_entry_point_runs():
    proc = run_child("-m", "stringbands", "validate", KRON_FILE)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["valid"] is True


def test_importing_the_module_entry_point_leaves_the_process_running():
    # cli.run ends the process, so __main__ must call it only when run as a script
    proc = run_child("-c", "import stringbands.__main__; print('alive')")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "alive\n", "")


def in_process(argv):
    """stdout bytes, stderr and exit status of main(argv) in this process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return out.getvalue().encode(), err.getvalue(), code


@pytest.mark.parametrize("argv, status, size", [
    (("enumerate", GP33_FILE, "strings", "--max-len", "13"), 0, 94_552),
    (("hom", GP22_FILE, "--from", "band:a.a", "--to", "string:a"), 3, 0),
    (("validate", "fixtures/missing.alg"), 2, 0),
    (("enumerate", KRON_FILE, "strings"), 2, 0),
], ids=["longer-than-a-pipe-buffer", "domain-error", "unreadable-file", "usage-error"])
def test_the_module_entry_point_prints_and_exits_as_main_returns(argv, status, size):
    proc = subprocess.run(
        [sys.executable, "-m", "stringbands", *argv], cwd=ROOT, capture_output=True,
        env=run_child_env(),
    )
    out, err, code = in_process(argv)
    assert (code, len(out)) == (status, size)
    assert (proc.stdout, proc.stderr.decode(), proc.returncode) == (out, err, code)


def test_oracle_crosscheck_script_finds_no_mismatch():
    proc = run_child(
        "scripts/oracle_crosscheck.py", KRON_FILE, "--max-len", "3", "--max-period", "3",
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "MISMATCHES" not in proc.stdout
    assert "all counts agree with the oracle" in proc.stdout
    # 8 strings and 1 band class at two parameters make 10 modules: every
    # ordered pair, the class against itself at each parameter included
    assert "100 hom dimensions checked" in proc.stdout


def test_oracle_crosscheck_script_takes_a_negative_parameter_after_an_equals_sign():
    proc = run_child(
        "scripts/oracle_crosscheck.py", KRON_FILE, "--max-len", "3", "--max-period", "3",
        "--params=-1,2",
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "params -1,2" in proc.stdout


@pytest.mark.parametrize("params", ["2", "0,3", "x,2", "2,3,5", "1/0,2", "2,2"])
def test_oracle_crosscheck_script_refuses_bad_parameters(params):
    proc = run_child("scripts/oracle_crosscheck.py", KRON_FILE, "--params", params)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "usage:" in proc.stderr and "Traceback" not in proc.stderr


def test_component_survey_script_runs():
    proc = run_child(
        "scripts/component_survey.py", LOOP_FILE, "--max-period", "4", "--pairs",
    )
    assert proc.returncode == 0, proc.stderr
    assert "unordered pairs" in proc.stdout


# sha256 of the whole stdout of `component_survey.py <fixture> --max-period 8
# --pairs`, singles and pairs of every band class, one line per fixture; a
# crash, a refused fixture or another verdict or witness fails the test
SURVEY_DIGESTS = golden("survey_digests.txt")


def test_survey_digests_cover_every_fixture():
    assert sorted((f, n) for f, n, _ in SURVEY_DIGESTS) == [(f, "8") for f in FIXTURES]


@pytest.mark.parametrize("path, max_period, digest", SURVEY_DIGESTS)
def test_component_survey_output_matches_its_golden_digest(path, max_period, digest):
    proc = run_child("scripts/component_survey.py", path, "--max-period", max_period, "--pairs")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


def test_scaling_script_agrees_at_its_smallest_sizes():
    proc = run_child("scripts/scaling.py", "--steps", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    # each count line is followed by one line of what counting kept and one
    # of the size of every table the algebra object keeps
    assert [line.split()[:2] for line in lines] == [
        ["string", "n=100"], ["kept:", "trie"], ["tables:", "fac_tallies"],
        ["bands", "m=n=36"], ["kept:", "trie"], ["tables:", "fac_tallies"],
    ]
    assert not any("MISMATCH" in line for line in lines)
    # the two lines print every size AlgebraSpec.kept_sizes reports, and
    # nothing else
    names = load_algebra(ROOT / LOOP_FILE).kept_sizes().keys()
    sizes = []
    for kept, tables in (lines[1:3], lines[4:6]):
        pairs = [p.split() for p in kept.split(":", 1)[1].split(",") + tables.split(":", 1)[1].split(",")]
        assert pairs[0][0] == "trie" and pairs[0][2] == "nodes"
        sizes.append({"middle_trie" if name == "trie" else name: int(n) for name, n, *_ in pairs})
        assert sizes[-1].keys() == names
    # a string keeps no band, and the band pair one class, tally, shape and
    # realization each
    assert not any(sizes[0][name] for name in ("band_tallies", "classes", "band_shapes", "band_realizations"))
    assert all(sizes[1][name] == 2 for name in ("band_tallies", "classes", "band_shapes", "band_realizations"))


@pytest.mark.parametrize("fault", ["missing", "malformed"])
@pytest.mark.parametrize("script", ["scripts/oracle_crosscheck.py", "scripts/component_survey.py"])
def test_scripts_exit_two_on_an_algebra_file_they_cannot_load(tmp_path, script, fault):
    # 1 is the cross-check's status for a count that disagrees with the oracle
    path = tmp_path / "bad.alg"
    if fault == "malformed":
        path.write_text("vertex u\narrow a u u\n")
    proc = run_child(script, str(path))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"{path}: cannot load algebra: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


# Two presentations that are not string algebras.  Before every subcommand
# validated its algebra, hom on the first counted dim 2 and the oracle gave
# dim 2 on the second, both with exit 0.
THREE_LOOPS = """vertex u
arrow a : u -> u
arrow b : u -> u
arrow c : u -> u
relation a.a
relation b.b
relation c.c
"""
FREE_LOOP = "vertex u\narrow a : u -> u\n"


def assert_invalid_algebra(code, out, err, *violations):
    assert code == 3 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "InvalidAlgebra"
    for kind in violations:
        assert kind in doc["detail"]


def test_counted_hom_refuses_a_non_string_algebra(tmp_path):
    path = tmp_path / "three_loops.alg"
    path.write_text(THREE_LOOPS)
    code, out, err = run_cli("hom", str(path), "--from", "string:a", "--to", "string:a")
    assert_invalid_algebra(code, out, err, "vertex-degree", "unique-continuation")


def test_oracle_hom_refuses_a_relation_free_loop(tmp_path):
    path = tmp_path / "free_loop.alg"
    path.write_text(FREE_LOOP)
    code, out, err = run_cli(
        "hom", str(path), "--from", "string:a", "--to", "string:a", "--oracle",
    )
    assert_invalid_algebra(code, out, err, "admissibility")


def test_every_subcommand_but_validate_refuses_an_invalid_algebra(tmp_path):
    path = str(tmp_path / "free_loop.alg")
    (tmp_path / "free_loop.alg").write_text(FREE_LOOP)
    for argv in (
        ("enumerate", path, "strings", "--max-len", "2"),
        ("enumerate", path, "bands", "--max-len", "2"),
        ("component", path, "--bands", "a"),
        ("degenerate", path, "--band", "a", "--mode", "split"),
    ):
        assert_invalid_algebra(*run_cli(*argv), "admissibility")
    doc = run_json("validate", path)
    assert doc["result"]["valid"] is False
    for script in ("scripts/component_survey.py", "scripts/oracle_crosscheck.py"):
        proc = run_child(script, path)
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == ""
        assert "invalid algebra: admissibility" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("-m", "stringbands", "validate", KRON_FILE),
        # more than a pipe buffer, so the write fails inside the run
        ("scripts/component_survey.py", GP33_FILE, "--max-period", "8", "--pairs"),
        ("scripts/oracle_crosscheck.py", KRON_FILE, "--max-len", "3", "--max-period", "3"),
    ],
    ids=["cli", "component_survey", "oracle_crosscheck"],
)
def test_a_closed_pipe_ends_the_run_quietly(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, *argv],
            cwd=ROOT, stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=run_child_env(),
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert proc.stderr == ""
