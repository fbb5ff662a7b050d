"""The cli-cold workload: one `python -m stringbands` process per operation.

Queries are drawn from the fixtures with the seed; each answer is compared
with the in-process API answer for the same query.  Counts-mode hom queries
pass no --lambda/--mu, as counts are generic in the parameters.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from time import perf_counter

from spans import PROBE_MARK
from workloads import POOL, Workload, band_text


class CliCold(Workload):
    """A round is one pass over the seeded query mix, one process per query."""

    tail_percentile = 66.7
    round_s = 3.0

    def __init__(self, sb, specs, seed):
        super().__init__(sb, specs, seed)
        rng = self.rng
        mix = []
        for fx, spec in specs.items():
            path = f"fixtures/{fx}.alg"
            strings, bands = self.enumerate(spec, 4, 4)
            words = [("string", sb.format_word(c)) for c in strings]
            words += [("band", band_text(sb, B)) for B in bands]
            mix.append(("validate", path))
            for kind in ("strings", "bands"):
                mix.append(("enumerate", path, kind, "--max-len", str(rng.randint(3, 5))))
            for oracle in (False, False, True):
                src, dst = rng.choice(words), rng.choice(words)
                q = ["hom", path, f"--from={src[0]}:{src[1]}", f"--to={dst[0]}:{dst[1]}"]
                if oracle:
                    lam, mu = rng.sample(POOL, 2)
                    q.append("--oracle")
                    if src[0] == "band":
                        q.append(f"--lambda={lam}")
                    if dst[0] == "band":
                        q.append(f"--mu={mu}")
                mix.append(tuple(q))
            picked = rng.sample(bands, min(len(bands), rng.randint(1, 2)))
            mix.append(("component", path, "--bands", ",".join(band_text(sb, B) for B in picked)))
            rewrites = self._rewrites(spec, path)
            if rewrites:
                mix.append(rng.choice(rewrites))
        rng.shuffle(mix)
        self.ops = mix

    def _rewrites(self, spec, path):
        """Every degenerate query that has a witness among bands of period <= 6."""
        sb = self.sb
        fmt = sb.format_word
        out = []
        bands = sb.enumerate_bands(spec, 6)
        for B in bands:
            wit = sb.negligible(spec, B)
            if isinstance(wit, sb.Case1Witness):
                out.append(("degenerate", path, "--band", band_text(sb, B), "--mode", "split"))
            elif isinstance(wit, sb.Case2Witness):
                out.append((
                    "degenerate", path, "--band", fmt(wit.rot.as_word()), "--mode", "reverse",
                    f"--w={fmt(wit.w)}", f"--u={fmt(wit.u)}", f"--v={fmt(wit.v)}",
                ))
        for B in bands:
            for C in bands:
                if sb.extendable(spec, B, C) is not None:
                    out.append((
                        "degenerate", path, "--band", band_text(sb, B), "--mode", "concat",
                        f"--with={band_text(sb, C)}",
                    ))
        return out

    # -- expected answers, from the in-process API ---------------------------

    def expect(self, query):
        """The `result` object the CLI must print for query."""
        sb = self.sb
        command, path = query[0], query[1]
        spec = self.specs[path[len("fixtures/"):-len(".alg")]]
        opts = _options(query[2:])
        if command == "validate":
            report = sb.validate_algebra(spec)
            gentle = sb.gentle_vertices(spec)
            return {
                "valid": report.valid,
                "violations": [list(v) for v in report.violations],
                "quadratic": report.quadratic,
                "admissibility_bound": report.admissibility_bound,
                "redundant_relations": [".".join(r) for r in report.redundant_relations],
                "gentle_vertices": [u for u in spec.vertices if u in gentle],
                "gentle": sb.is_gentle_algebra(spec),
            }
        if command == "enumerate":
            n = int(opts["--max-len"])
            if query[2] == "strings":
                entries = [sb.format_word(w) for w in sb.enumerate_strings(spec, n)]
            else:
                entries = [band_text(sb, B) for B in sb.enumerate_bands(spec, n)]
            return {"count": len(entries), "entries": entries}
        if command == "hom":
            return self._expect_hom(spec, opts)
        if command == "component":
            words = [sb.parse_word(w) for w in opts["--bands"].split(",")]
            verdict = sb.decide_component(spec, words)
            return {
                "status": verdict.status,
                "reasons": list(verdict.reasons),
                "dimension": verdict.dimension,
            }
        return self._expect_degenerate(spec, opts)

    def _module(self, spec, text):
        kind, word = text.split(":", 1)
        w = self.sb.parse_word(word)
        if kind == "string":
            return "s", self.sb.canonical_word(spec, w)
        return "b", self.sb.canonical_class(spec, w)

    def _expect_hom(self, spec, opts):
        sb = self.sb
        sk, x = self._module(spec, opts["--from"])
        dk, y = self._module(spec, opts["--to"])
        if "--oracle" not in opts:
            counters = {
                "ss": sb.hom_string_string, "bs": sb.hom_band_string,
                "sb": sb.hom_string_band, "bb": sb.hom_band_band,
            }
            dim = counters[sk + dk](spec, x, y)
            return {"dim": dim, "backend": "counts", "lambda": None, "mu": None}
        lam = opts.get("--lambda")
        mu = opts.get("--mu")
        X = sb.realize_string(spec, x) if sk == "s" else sb.realize_band(spec, x, lam)
        Y = sb.realize_string(spec, y) if dk == "s" else sb.realize_band(spec, y, mu)
        return {"dim": sb.dim_hom(X, Y), "backend": "oracle", "lambda": lam, "mu": mu}

    def _expect_degenerate(self, spec, opts):
        sb = self.sb
        fmt = sb.format_word
        band = sb.parse_word(opts["--band"])

        def cls_or_none(qb):
            try:
                return band_text(sb, sb.canonical_class(spec, qb))
            except sb.NotBand:
                return None

        mode = opts["--mode"]
        if mode == "reverse":
            words = [sb.parse_word(opts[k]) for k in ("--w", "--u", "--v")]
            out = sb.reverse_piece(spec, band, *words)
            return {"rotation": fmt(out.as_word()), "dominating": cls_or_none(out)}
        if mode == "split":
            wit = sb.negligible(spec, sb.canonical_class(spec, band))
            pieces = sb.split_band(spec, wit)
            return {
                "rot": fmt(wit.rot.as_word()),
                "n": wit.n,
                "w": fmt(wit.w),
                "pieces": [fmt(p.as_word()) for p in pieces],
                "piece_classes": [cls_or_none(p) for p in pieces],
            }
        wit = sb.extendable(spec, band, sb.parse_word(opts["--with"]))
        d = sb.concat_extension(spec, wit)
        return {
            "rot_b": fmt(wit.rot_b.as_word()),
            "rot_c": fmt(wit.rot_c.as_word()),
            "w": fmt(wit.w),
            "beta": wit.beta,
            "delta": wit.delta,
            "concat": fmt(d.as_word()),
            "class": cls_or_none(d),
        }


def _options(args):
    """--key=value, --key value and bare --flag arguments as a dict."""
    out = {}
    i = 0
    while i < len(args):
        a = args[i]
        if not a.startswith("--"):
            i += 1
            continue
        if "=" in a:
            key, value = a.split("=", 1)
            out[key] = value
        elif i + 1 < len(args) and not args[i + 1].startswith("--"):
            out[a] = args[i + 1]
            i += 1
        else:
            out[a] = True
        i += 1
    return out


# A bare interpreter start (`python -c pass`) on the reference host (a 2-core
# Xeon VM, Python 3.11.7) in a fast phase.  cli-cold scales each latency by
# the bare starts timed on either side of it (see hostspeed): over passes of
# one query mix that cut the variation of the pass time from 6% to 2%,
# where the in-process Fraction probe left it at 6%.
REF_START_S = 0.045


class Invoker:
    """Runs one CLI process at a time and waits for it to exit."""

    def __init__(self, root, probe):
        self.root = root
        self.probe = probe
        env = dict(os.environ)
        env.pop("PYTHONDONTWRITEBYTECODE", None)  # as in run.main
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env

    def bare_start(self):
        """Seconds a bare interpreter takes to start and exit: the host-speed
        probe for process-per-query latencies."""
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, "-c", "pass"], cwd=self.root, env=self.env,
            capture_output=True, check=True, timeout=120,
        )
        return perf_counter() - t0

    def run(self, query, traced=False):
        """(latency s, exit code, stdout, probe record or None, spawn time, exit time)."""
        if traced:
            argv = [sys.executable, str(self.probe), *query]
        else:
            argv = [sys.executable, "-m", "stringbands", *query]
        t0 = perf_counter()
        proc = subprocess.run(
            argv, cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120
        )
        t1 = perf_counter()
        probe = None
        if traced:
            for line in proc.stderr.splitlines():
                if line.startswith(PROBE_MARK):
                    probe = json.loads(line[len(PROBE_MARK):])
        return t1 - t0, proc.returncode, proc.stdout, probe, t0, t1


def check_output(expected, code, stdout):
    if code != 0:
        return f"exit code {code}"
    try:
        result = json.loads(stdout)["result"]
    except (ValueError, KeyError, TypeError):
        return "unreadable output"
    if result != json.loads(json.dumps(expected)):
        return "result differs from the API"
    return None
