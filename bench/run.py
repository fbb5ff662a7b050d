#!/usr/bin/env python3
"""stringbands benchmark: one workload per process, one closed-loop client.

    python3 bench/run.py --workload hom-grid --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout; the package is imported from src/ and
the fixtures are read from fixtures/.  Workloads (see BENCHMARK.json for why
each exists): hom-grid, hom-counts, ext-survey, cli-cold.

--trace 0 measures the end-to-end metrics over a fixed number of rounds,
about --seconds worth at the workload's nominal round time.  An in-process
round imports the package afresh, so it starts with cold caches, and runs
every operation once; a cli-cold round starts one CLI process per query of
the mix.  Every time is scaled by the host speed probed around it (see
hostspeed).  Rounds repeat identical work, and each operation's latency is
its median over the rounds (see median_of_rounds).  Set-up is repeated
SETUP_SAMPLES times and setup_s is the median.

--trace 1 measures the per-layer metrics instead, whatever --seconds says:
untraced and traced rounds alternate, two of each.  The traced rounds'
exact counters must agree; the untraced ones are the reference for
trace.overhead_ratio.

Every run prints a readable report, a JSON detail line (environment, setup
split, tail percentile, counters, failures) and, last, the result line
{"correct", "attempted", "failed", "metrics"}.  Exit status 2 means the
benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from array import array
from pathlib import Path
from time import perf_counter

# stringbands' own standard-library imports, loaded here so that every
# timed import of the package measures the package alone
import collections  # noqa: F401
import dataclasses  # noqa: F401
import fractions  # noqa: F401
import functools  # noqa: F401
import re  # noqa: F401
import typing  # noqa: F401

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

from cli_cold import REF_START_S, CliCold, Invoker, check_output  # noqa: E402
from hostspeed import SpeedTrack, factor, probe  # noqa: E402
from spans import Counters, Tracer, install_layers  # noqa: E402
from workloads import ExtSurvey, HomCounts, HomGrid, load_fixtures  # noqa: E402

WORKLOADS = ("hom-grid", "hom-counts", "ext-survey", "cli-cold")
SETUP_SAMPLES = 9
TRACED_ROUNDS = 2

UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "fail_ratio": "ratio",
}
END_TO_END = ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb")

# per-layer metric -> span names whose self time it sums
SELF_TIMES = {
    "algebra.load_s": ("algebra.load",),
    "algebra.validate_s": ("algebra.validate",),
    "words.enumerate_s": ("words.enumerate",),
    "bands.enumerate_s": ("bands.enumerate",),
    "oracle.realize_s": ("oracle.realize_string", "oracle.realize_band"),
    "oracle.dim_hom_s": ("oracle.dim_hom",),
    "oracle.syzygy_s": ("oracle.syzygy",),
    "oracle.ext_s": ("oracle.dim_ext1",),
    "components.extendable_s": ("components.extendable",),
    "components.negligible_s": ("components.negligible",),
    "components.decide_s": ("components.decide",),
    "cli.exec_s": ("cli.exec",),
}
HOM_SPANS = (
    "hom.string_string", "hom.band_string", "hom.string_band", "hom.band_band",
    "hom.seq_count_from", "hom.seq_count_into",
)
# per-layer hit ratio -> (module, cached function names)
CACHES = {
    "words.count_hit_ratio": ("words", ("count_sub", "count_fac")),
    "words.factor_hit_ratio": ("words", ("factor_words",)),
    "bands.tally_hit_ratio": ("bands", ("band_sub_tally", "band_fac_tally")),
    "oracle.syzygy_hit_ratio": ("oracle", ("syzygy",)),
    "oracle.dim_hom_hit_ratio": ("oracle", ("dim_hom",)),
}
PER_LAYER = (
    "setup.import_s", "setup.load_validate_s", "setup.enumerate_generate_s",
    *SELF_TIMES,
    "words.strings", "bands.classes",
    "hom.self_s", "hom.calls",
    *CACHES,
    "oracle.dim_hom_calls", "oracle.unknowns_total", "oracle.unknowns_max",
    "oracle.rank_total", "oracle.module_nnz", "oracle.dim_hom_repeat_share",
    "components.searches", "components.witness_ratio",
    "cli.interp_s", "cli.import_s",
    "trace.overhead_ratio", "trace.coverage",
)


class BenchError(Exception):
    """The benchmark cannot run here; reported on stderr with exit status 2."""


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share", ".coverage")):
        return "ratio"
    return "count"


def fresh_import():
    """Import stringbands with none of its modules loaded; (module, seconds)."""
    for name in [n for n in sys.modules if n == "stringbands" or n.startswith("stringbands.")]:
        del sys.modules[name]
    gc.collect()
    t0 = perf_counter()
    sb = importlib.import_module("stringbands")
    elapsed = perf_counter() - t0
    if not Path(sb.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported stringbands from {sb.__file__}, not from {SRC}")
    return sb, elapsed


def make_workload(name, sb, specs, seed, expected):
    if name == "hom-grid":
        return HomGrid(sb, specs, seed)
    if name == "hom-counts":
        return HomCounts(sb, specs, seed, expected["hom-counts"])
    if name == "ext-survey":
        return ExtSurvey(sb, specs, seed, expected["ext-survey"])
    return CliCold(sb, specs, seed)


class Setup:
    """One set-up: fresh import, load+validate, enumerate+generate.

    The host speed is probed before the import, after it and after the
    build; each phase is scaled by the readings on either side of it (see
    hostspeed).  raw_total is the unscaled set-up time.
    """

    def __init__(self, name, seed, expected, tracer=None, counters=None):
        p0 = probe()
        self.sb, import_s = fresh_import()
        p1 = probe()
        self.caches = cache_handles()
        self.traced = tracer is not None
        if self.traced:
            modules = (sys.modules["stringbands.oracle"], sys.modules["stringbands.components"])
            install_layers(tracer, counters, (*modules, self.sb))

        def build():
            t0 = perf_counter()
            specs = load_fixtures(self.sb, ROOT)
            t1 = perf_counter()
            workload = make_workload(name, self.sb, specs, seed, expected)
            return specs, workload, t1 - t0, perf_counter() - t1

        if self.traced:
            build = tracer.wrap("bench.setup", build)
        self.specs, self.workload, load_validate_s, enumerate_generate_s = build()
        p2 = probe()
        self.raw_total = import_s + load_validate_s + enumerate_generate_s
        self.import_s = import_s * factor(p0, p1)
        self.load_validate_s = load_validate_s * factor(p1, p2)
        self.enumerate_generate_s = enumerate_generate_s * factor(p1, p2)
        self.sizes = {"words.strings": self.workload.strings, "bands.classes": self.workload.classes}

    @property
    def total(self):
        return self.import_s + self.load_validate_s + self.enumerate_generate_s

    def release(self):
        """Drop the package instance and everything its caches hold."""
        self.sb = self.specs = self.workload = self.caches = None


def cache_handles():
    """The cached functions behind each hit ratio, taken before any wrapping.

    A function that no longer has a cache contributes nothing; a ratio with
    no cached function left reads 0.
    """
    out = {}
    for metric, (module, names) in CACHES.items():
        mod = sys.modules[f"stringbands.{module}"]
        fns = [getattr(mod, n, None) for n in names]
        out[metric] = [fn for fn in fns if hasattr(fn, "cache_info")]
    return out


def hit_ratios(handles):
    out = {}
    for metric, fns in handles.items():
        hits = calls = 0
        for fn in fns:
            info = fn.cache_info()
            hits += info.hits
            calls += info.hits + info.misses
        out[metric] = hits / calls if calls else 0.0
    return out


class Round:
    """One pass over a workload's operation list, with its checks.

    A traced round keeps its span totals and counters; every round drops
    the package it imported once it is done.
    """

    def __init__(self, name, seed, expected, traced):
        tracer = Tracer() if traced else None
        counters = Counters() if traced else None
        self.setup = Setup(name, seed, expected, tracer, counters)
        wl = self.setup.workload
        self.raw_latencies, self.failed, track = timed_loop(wl, tracer)
        self.latencies = track.scale(self.raw_latencies)
        self.speed = track.speed()
        self.hits = hit_ratios(self.setup.caches)
        if tracer:
            tracer.paused = True
        for i, reason in wl.finish().items():
            self.failed.setdefault(i, reason)
        self.attempted = len(wl.ops)
        self.tail_percentile = wl.tail_percentile
        self.round_s = wl.round_s
        self.totals = tracer.totals() if traced else None
        self.counters = counters.as_dict() if traced else None
        self.setup.release()


def timed_loop(wl, tracer):
    """Closed loop over wl.ops; checks run outside the timed region.

    Returns the raw latencies, the failures and the host-speed readings
    taken between operations, which scale the latencies afterwards.
    """
    do, check = wl.do, wl.check
    if tracer:
        do = tracer.wrap("bench.op", do)
    latencies = array("d")  # no float objects kept, so peak_rss_mb stays the program's
    failed = {}
    track = SpeedTrack()
    for i, op in enumerate(wl.ops):
        track.tick(i)
        t0 = perf_counter()
        try:
            result = do(op)
        except Exception as exc:  # noqa: BLE001 -- an exception is a failed operation
            latencies.append(perf_counter() - t0)
            failed[i] = f"{type(exc).__name__}: {exc}"
            continue
        latencies.append(perf_counter() - t0)
        if tracer:
            tracer.paused = True
        try:
            ok = check(i, op, result)
        except Exception as exc:  # noqa: BLE001
            ok, failed[i] = False, f"check raised {type(exc).__name__}: {exc}"
        if tracer:
            tracer.paused = False
        if not ok:
            failed.setdefault(i, "wrong answer")
    track.close(len(wl.ops))
    return latencies, failed, track


def tail(latencies, nominal_percentile):
    """Latency at the workload's tail percentile, or at the highest one that
    still leaves 10 samples beyond it when the run has too few samples."""
    n = len(latencies)
    p = nominal_percentile
    if n * (1 - p / 100) < 10:
        p = max(0.0, 100 * (1 - 10 / n))
    ordered = sorted(latencies)
    idx = min(n - 1, max(0, math.ceil(p / 100 * n) - 1))
    return ordered[idx], {"percentile": round(p, 3), "samples": n, "beyond": n - idx - 1}


def timings(latencies, setup_times, nominal):
    """setup_s, ops_per_s, op_p50_ms and op_tail_ms, plus the tail's details."""
    value, tail_info = tail(latencies, nominal)
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_tail_ms": 1000 * value,
    }, tail_info


def end_to_end(sides, attempted, failed, setups, nominal, rss_mb):
    """The end-to-end metrics from host-speed-scaled times, and the same
    timings unscaled for the detail line.

    sides holds the scaled and the raw per-round latencies.
    """
    plain = [s for s in setups if not s.traced]
    scaled, raw = sides
    metrics, tail_info = timings(median_of_rounds(scaled), [s.total for s in plain], nominal)
    metrics.update(peak_rss_mb=rss_mb, fail_ratio=failed / attempted)
    unscaled, _ = timings(median_of_rounds(raw), [s.raw_total for s in plain], nominal)
    return metrics, tail_info, unscaled


def setup_split(setups):
    """Medians of the set-up phases over the untraced set-ups."""
    plain = [s for s in setups if not s.traced]
    return {
        "setup.import_s": statistics.median(s.import_s for s in plain),
        "setup.load_validate_s": statistics.median(s.load_validate_s for s in plain),
        "setup.enumerate_generate_s": statistics.median(s.enumerate_generate_s for s in plain),
    }


def check_sizes(setups, problems):
    sizes = [s.sizes for s in setups]
    if any(s != sizes[0] for s in sizes):
        problems.append(f"enumeration sizes differ between set-ups: {sizes}")
    return sizes[0]


def more_setups(name, seed, expected, setups):
    while sum(not s.traced for s in setups) < SETUP_SAMPLES:
        setups.append(Setup(name, seed, expected))
        setups[-1].release()


# -- in-process workloads ---------------------------------------------------


def timed_rounds(seconds, round_s):
    """Round count for a run; it depends on --seconds alone, never on speed."""
    return max(2, round(seconds / round_s))


def median_of_rounds(per_round):
    """Each operation's median latency over rounds that repeat the same work.

    Once latencies are scaled by the host speed, the median is the steadier
    estimate; the lowest reading mostly picks out probe noise.
    """
    return [statistics.median(col) for col in zip(*per_round)]


def run_in_process(args, expected, problems):
    """Timed rounds for about args.seconds, or the traced plan with --trace 1."""
    name = args.workload
    rounds: list[Round] = []
    plan = [False, True] * TRACED_ROUNDS if args.trace else None
    while not plan or len(rounds) < len(plan):
        traced = plan[len(rounds)] if plan else False
        rounds.append(Round(name, args.seed, expected, traced))
        gc.collect()
        if not plan and len(rounds) == timed_rounds(args.seconds, rounds[0].round_s):
            break
    setups = [r.setup for r in rounds]
    more_setups(name, args.seed, expected, setups)
    sizes = check_sizes(setups, problems)
    timed = [r for r in rounds if r.totals is None]
    sides = ([r.latencies for r in timed], [r.raw_latencies for r in timed])
    attempted = sum(r.attempted for r in rounds)
    fails = {f"{k}:{i}": why for k, r in enumerate(rounds) for i, why in r.failed.items()}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics, tail_info, unscaled = end_to_end(
        sides, attempted, len(fails), setups, rounds[0].tail_percentile, rss_mb
    )
    detail = {
        "rounds": len(timed), "tail": tail_info, "setup": setup_split(setups), "sizes": sizes,
        "host_speed": statistics.median(r.speed for r in timed), "unscaled": unscaled,
    }
    layers = None
    if args.trace:
        traced = [r for r in rounds if r.totals is not None]
        layers, detail["counters"] = traced_layers(traced, problems)
        layers["trace.overhead_ratio"] = overhead(traced, timed)
        layers.update(setup_split(setups))
        layers.update(sizes)
    return metrics, layers, detail, attempted, fails


def layer_metrics(totals, counters, hits):
    """Per-layer metrics of one traced round from its span totals and counters."""

    def own(names):
        return sum(totals[n][2] for n in names if n in totals)

    def ratio(num, den):
        return counters.get(num, 0) / counters[den] if counters.get(den) else 0.0

    m = {k: 0.0 for k in PER_LAYER}
    for metric, names in SELF_TIMES.items():
        m[metric] = own(names)
    m["hom.self_s"] = own(HOM_SPANS)
    m["hom.calls"] = sum(totals[n][0] for n in HOM_SPANS if n in totals)
    m.update(hits)
    for key in (*Counters.EXACT, "oracle.unknowns_max"):
        m[key] = counters.get(key, 0)
    m["oracle.dim_hom_repeat_share"] = ratio("oracle.dim_hom_repeats", "oracle.dim_hom_calls")
    m["components.witness_ratio"] = ratio("components.witnesses", "components.searches")
    return m


def combine(per_round, counters, problems):
    """Means over the traced rounds; counts from the first, which every
    other round must repeat exactly."""
    for key in Counters.EXACT:
        values = [c.get(key, 0) for c in counters]
        if any(v != values[0] for v in values):
            problems.append(f"exact counter {key} differs between traced rounds: {values}")
    out = {k: statistics.fmean(m[k] for m in per_round) for k in PER_LAYER}
    out.update((k, per_round[0][k]) for k in PER_LAYER if layer_unit(k) == "count")
    return out, counters[0]


def overhead(traced, untraced):
    """Traced over untraced op time, each side the median of its rounds."""
    typical = [sum(median_of_rounds([r.latencies for r in side])) for side in (traced, untraced)]
    return typical[0] / typical[1]


def traced_layers(traced, problems):
    per_round = []
    for r in traced:
        m = layer_metrics(r.totals, r.counters, r.hits)
        ops_s = r.totals["bench.op"][1]
        wall = ops_s + r.totals["bench.setup"][1]
        layer_self = sum(row[2] for n, row in r.totals.items() if not n.startswith("bench."))
        m["trace.coverage"] = layer_self / wall
        per_round.append(m)
    return combine(per_round, [r.counters for r in traced], problems)


# -- cli-cold ---------------------------------------------------------------


def run_cli(args, expected, problems):
    """Timed passes over the query mix; with --trace 1, untraced and traced
    passes alternate, two of each."""
    setups = [Setup("cli-cold", args.seed, expected)]
    wl = setups[0].workload
    more_setups("cli-cold", args.seed, expected, setups)
    sizes = check_sizes(setups, problems)
    inv = Invoker(ROOT, BENCH / "cliprobe.py")
    mix = wl.ops
    inv.run(mix[0])  # untimed: the first process in a checkout compiles bytecode
    outputs = []
    passes, traced = [], []
    for _ in range(TRACED_ROUNDS if args.trace else timed_rounds(args.seconds, wl.round_s)):
        passes.append(CliPass(inv, mix, outputs, False, problems))
        if args.trace:
            traced.append(CliPass(inv, mix, outputs, True, problems))
    expected_results = {}
    fails = {}
    for i, (q, code, out) in enumerate(outputs):
        if q not in expected_results:
            expected_results[q] = wl.expect(q)
        reason = check_output(expected_results[q], code, out)
        if reason:
            fails[i] = f"{' '.join(q)}: {reason}"
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    sides = ([p.latencies for p in passes], [p.raw_latencies for p in passes])
    metrics, tail_info, unscaled = end_to_end(
        sides, len(outputs), len(fails), setups, wl.tail_percentile, rss_mb
    )
    detail = {
        "rounds": len(passes), "queries": len(mix), "tail": tail_info,
        "setup": setup_split(setups), "sizes": sizes,
        "host_speed": statistics.median(p.speed for p in passes), "unscaled": unscaled,
    }
    layers = None
    if args.trace:
        per_pass = []
        for p in traced:
            m = layer_metrics(p.totals, p.counters, {})
            m["cli.interp_s"] = p.interp
            m["cli.import_s"] = p.imports
            spans = sum(row[2] for row in p.totals.values())
            m["trace.coverage"] = (p.interp + p.imports + spans) / sum(p.raw_latencies)
            per_pass.append(m)
        layers, detail["counters"] = combine(per_pass, [p.counters for p in traced], problems)
        layers["trace.overhead_ratio"] = overhead(traced, passes)
        layers.update(setup_split(setups))
        layers.update(sizes)
    return metrics, layers, detail, len(outputs), fails


class CliPass:
    """One pass over the query mix, one process at a time.

    A traced pass runs bench/cliprobe.py and sums what each process reports:
    interpreter start and exit, import, span totals and counters.  A bare
    interpreter start is timed between processes as the host-speed probe;
    latencies holds the scaled times and raw_latencies the unscaled ones.
    """

    def __init__(self, inv, mix, outputs, traced, problems):
        self.raw_latencies = []
        self.totals: dict[str, list] = {}
        self.counters: dict[str, int] = {}
        self.interp = self.imports = 0.0
        track = SpeedTrack(inv.bare_start, REF_START_S)
        for i, q in enumerate(mix):
            track.tick(i)
            lat, code, out, record, t_spawn, t_exit = inv.run(q, traced)
            self.raw_latencies.append(lat)
            outputs.append((q, code, out))
            if not traced:
                continue
            if record is None:
                problems.append(f"probe record missing for {' '.join(q)}")
                continue
            self.interp += (record["start"] - t_spawn) + (t_exit - record["end"])
            self.imports += record["imported"] - record["start"]
            for name, row in record["totals"].items():
                acc = self.totals.setdefault(name, [0, 0.0, 0.0])
                for k in range(3):
                    acc[k] += row[k]
            for key, v in record["counters"].items():
                merge = max if key == "oracle.unknowns_max" else int.__add__
                self.counters[key] = merge(self.counters.get(key, 0), v)
        track.close(len(mix))
        self.latencies = track.scale(self.raw_latencies)
        self.speed = track.speed()


# -- reporting --------------------------------------------------------------


def environment(seed):
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit():
    """HEAD of the checkout read from .git, or 'unknown' outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report(args, metrics, layers, detail, attempted, fails, problems):
    print(f"stringbands benchmark  workload={args.workload}  seed={args.seed}  "
          f"trace={args.trace}")
    for name, value in metrics.items():
        print(f"  {name:<16} {value:>14.6g} {UNITS[name]}")
    for name, value in detail["setup"].items():
        print(f"    {name:<32} {value:>10.6g} s")
    print(f"  host speed {detail['host_speed']:.3f} of the reference; unscaled: "
          + ", ".join(f"{k} {v:.6g}" for k, v in detail["unscaled"].items()))
    if layers is not None:
        for name in PER_LAYER:
            print(f"  {name:<34} {layers[name]:>14.6g} {layer_unit(name)}")
    print(f"  attempted {attempted}, failed {len(fails)}")
    for key, reason in list(fails.items())[:5]:
        print(f"  FAIL op {key}: {reason}")
    for p in problems:
        print(f"  PROBLEM {p}")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    try:
        for needed in (SRC / "stringbands" / "__init__.py", ROOT / "fixtures", BENCH / "expected.json"):
            if not needed.exists():
                raise BenchError(f"missing {needed.relative_to(ROOT)}")
        sys.path.insert(0, str(SRC))
        # cache the package's bytecode in the checkout even under
        # PYTHONDONTWRITEBYTECODE, so imports cost what they cost an installed
        # package rather than a compile from source
        sys.dont_write_bytecode = False
        expected = json.loads((BENCH / "expected.json").read_text())
        problems: list[str] = []
        runner = run_cli if args.workload == "cli-cold" else run_in_process
        metrics, layers, detail, attempted, fails = runner(args, expected, problems)
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    report(args, metrics, layers, detail, attempted, fails, problems)
    detail.update(
        env=environment(args.seed),
        workload=args.workload,
        fail_ratio=metrics["fail_ratio"],
        failures=dict(list(fails.items())[:20]),
        problems=problems,
    )
    print(json.dumps({"detail": detail}))
    chosen = PER_LAYER if args.trace else END_TO_END
    source = layers if args.trace else metrics
    units = {n: (layer_unit(n) if args.trace else UNITS[n]) for n in chosen}
    print(json.dumps({
        "correct": not fails and not problems,
        "attempted": attempted,
        "failed": len(fails),
        "metrics": {n: {"value": source[n], "unit": units[n]} for n in chosen},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
