#!/usr/bin/env python3
"""Benchmark of treelift's analyze/verify pipeline, run through its real CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --self-test

A run of one workload sets up several times (each a child process that imports
treelift and generates the inputs), then acts as one closed-loop client: it
issues the workload's commands back to back through ``treelift.cli.main``, one
pass after another, until ``--seconds`` is used (at least two passes).  Every
operation -- each command and each instance report in it -- is checked.  With
``--trace 1`` passes alternate between traced and untraced, starting traced,
and the run reports per-layer metrics instead of end-to-end ones.

``wall_s`` and ``setup_s`` are normalized to the host's speed: while an
untraced pass (or a set-up process) runs, ``calibrate.SpeedSampler`` times a
small reference kernel every 50 ms (10 ms), and the pass counts as its seconds
less the sampler's, times the mean speed of its samples relative to
``calibrate.REFERENCE_S``.  The raw seconds are printed beside them and kept
in the detail file.

Output: a summary, a ``host`` line and, last, one JSON line with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Details, including the
per-pass times, go to ``perfbench/out/<workload>-seed<N>-trace<T>.json``; a
traced run also writes every span to ``perfbench/out/<workload>-seed<N>-spans.tsv.gz``.

``--workload all`` runs each workload in its own process, one after another.
``--self-test`` does that on tiny inputs with tracing and fails unless every
per-layer metric in BENCHMARK.json records a call on the workloads
``workloads.EXERCISED_BY`` names for it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

from calibrate import SpeedSampler
from tracing import Tracer
from workloads import EXERCISED_BY, WORKLOADS, plan

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 11
MIN_PASSES = 2
MAX_RECORDED_FAILURES = 20


def import_cli():
    """treelift.cli from this checkout's ``src``; exits with an error if it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import treelift.cli as cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import treelift from {src}: {exc}")
    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: imported treelift from {cli.__file__}, not from {src}")
    return cli


def git_commit():
    """HEAD's commit when the checkout is a git repository, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over the package's source and data files, for checkouts without git."""
    h = hashlib.sha256()
    pkg = ROOT / "src" / "treelift"
    for path in sorted(p for p in pkg.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def host_context(seed):
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
        "seed": seed,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def set_up(gens):
    """(raw, normalized) seconds from starting a set-up process until it exits."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_step.py"), json.dumps(gens)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up failed (exit {proc.returncode}):\n{proc.stderr}")
    sampled = json.loads(proc.stdout.splitlines()[-1])
    return elapsed, (elapsed - sampled["sampler_s"]) * sampled["speed"]


def run_pass(cli, commands, tracer, first_op):
    """Issue the commands back to back.

    Returns (wall seconds, host speed, exit codes or exceptions, CLI output).
    An untraced pass is speed-sampled; its wall seconds exclude the sampler's
    and its speed is the mean over the samples.  A traced pass is not
    sampled, and its speed is None.
    """
    for cmd in commands:
        Path(cmd.report).unlink(missing_ok=True)
    sink = io.StringIO()
    outcomes = []
    gc.collect()
    if tracer is not None:
        tracer.install()
    sampler = SpeedSampler() if tracer is None else nullcontext()
    with sampler:
        t0 = time.perf_counter()
        for i, cmd in enumerate(commands):
            if tracer is not None:
                tracer.op = first_op + i
            try:
                with redirect_stdout(sink), redirect_stderr(sink):
                    outcomes.append(cli.main(list(cmd.argv)))
            except (Exception, SystemExit) as exc:  # a crash is a failed operation, not a dead run
                outcomes.append(exc)
        wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
        return wall, None, outcomes, sink.getvalue()
    return wall - sampler.seconds, statistics.fmean(sampler.speeds), outcomes, sink.getvalue()


def instance_problems(inst, fault, expected_distortion):
    """What is wrong with one instance report (empty when it is correct)."""
    problems = []
    if fault:
        if inst.get("all_pass") is not False:
            problems.append("fault-injected instance did not fail")
    else:
        if inst.get("all_pass") is not True:
            problems.append("all_pass is not true")
        if inst.get("bound", {}).get("distortion_within_bound") is not True:
            problems.append("distortion not within bound")
    base, lift = inst.get("base", {}), inst.get("lift", {})
    n, m = base.get("n"), base.get("m")
    if n is None or m is None or lift.get("vertices") != n << (m - n + 1):
        problems.append(f"lift has {lift.get('vertices')} vertices, expected n*2^(m-n+1) for n={n} m={m}")
    emb = inst.get("embedding", {})
    if expected_distortion is not None and emb.get("mode") == "exhaustive":
        if emb.get("distortion") != expected_distortion:
            problems.append(f"distortion {emb.get('distortion')} != frozen {expected_distortion}")
    return problems


class Checker:
    """Per-operation correctness gate; a failure is counted, never fatal."""

    def __init__(self, commands, expectations):
        self.commands = commands
        self.expectations = expectations
        self.reference = {}  # command index -> report bytes of the first pass
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.counts = None  # report-derived counts, from the first pass

    def fail(self, what):
        self.failed += 1
        if len(self.failures) < MAX_RECORDED_FAILURES:
            self.failures.append(what)

    def check_pass(self, pass_no, outcomes):
        counts = {"embedding.pairs_examined": 0, "sweeps.analyses": 0, "sweeps.pairs_covered": 0}
        for i, (cmd, outcome) in enumerate(zip(self.commands, outcomes)):
            where = f"pass {pass_no} {' '.join(cmd.argv[:2])}"
            self.attempted += 1 + cmd.reports
            problems = []
            if isinstance(outcome, BaseException):
                problems.append(f"raised {outcome!r}")
            elif outcome != cmd.expect_exit:
                problems.append(f"exit {outcome}, expected {cmd.expect_exit}")
            try:
                data = Path(cmd.report).read_bytes()
                report = json.loads(data)
            except (OSError, ValueError) as exc:
                self.fail(f"{where}: {'; '.join(problems + [f'no report: {exc}'])}")
                for _ in range(cmd.reports):
                    self.fail(f"{where}: instance report missing")
                continue
            if self.reference.setdefault(i, data) != data:
                problems.append("report bytes differ from the first pass")
            instances = report.get("instances", []) if cmd.argv[0] == "verify" else [report]
            if len(instances) != cmd.reports:
                problems.append(f"{len(instances)} instance reports, expected {cmd.reports}")
            if problems:
                self.fail(f"{where}: {'; '.join(problems)}")
            for j in range(cmd.reports):
                if j >= len(instances):
                    self.fail(f"{where}: instance report {j} missing")
                    continue
                inst = instances[j]
                name = cmd.graph or inst.get("label")
                expected = self.expectations.get(name, {}).get("distortion_exhaustive")
                bad = instance_problems(inst, cmd.expect_exit == 1, expected)
                if bad:
                    self.fail(f"{where} [{name}]: {'; '.join(bad)}")
                counts["embedding.pairs_examined"] += inst.get("embedding", {}).get("pairs_examined", 0)
                sweep = inst.get("verdict_sweep", {})
                if sweep.get("mode") == "sample":
                    counts["sweeps.analyses"] += sweep["analyses"]
                    counts["sweeps.pairs_covered"] += sweep["pairs_covered"]
        if self.counts is None:
            covered = counts["sweeps.pairs_covered"]
            counts["sweeps.orbit_cache_hit_ratio"] = (
                1 - counts["sweeps.analyses"] / covered if covered else 0.0
            )
            self.counts = counts


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb():
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024


def tail(walls):
    """(percentile, seconds) of the highest percentile with >= 10 passes beyond it, or None."""
    n = len(walls)
    if n < 11:
        return None
    return round(100 * (n - 10) / n, 1), sorted(walls)[n - 11]


def layer_metrics(tracer, counts, traced_walls, untraced_walls, cpu_s):
    """Every per-layer metric, per traced pass."""
    n = len(traced_walls)
    metrics = {}
    for name, agg in tracer.summary().items():
        metrics[f"{name}.s"] = agg["s"] / n
        metrics[f"{name}.self_s"] = agg["self_s"] / n
        metrics[f"{name}.calls"] = agg["calls"] / n
        metrics[f"{name}.rss_mb"] = agg["rss_mb"]
    metrics.update(counts)
    metrics["process.cpu_s"] = cpu_s / n
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    return metrics


def coverage_problems(workload, spec, metrics):
    """Per-layer metrics that read nothing on a workload said to exercise them."""
    problems = []
    for entry in spec["per_layer"]:
        metric = entry["name"]
        key = metric if metric in EXERCISED_BY else metric.rsplit(".", 1)[0]
        if key not in EXERCISED_BY:
            problems.append(f"{metric}: no workload is said to exercise it")
        elif workload in EXERCISED_BY[key]:
            seen = metrics.get(f"{key}.calls", metrics[metric])
            if not seen > 0:
                problems.append(f"{metric}: {key} recorded nothing on {workload}")
    return problems


def run_workload(args, spec):
    seed = args.seed
    cli = import_cli()
    host = host_context(seed)
    work = OUT / f"work-{args.workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    gens, commands = plan(args.workload, seed, work, smoke=args.smoke)
    setup_raw, setup_times = zip(*(set_up(gens) for _ in range(SETUP_REPEATS)))
    expectations = json.loads((ROOT / "src/treelift/data/expectations.json").read_text())
    checker = Checker(commands, expectations)
    tracer = Tracer() if args.trace else None

    traced_walls, untraced_walls, speeds, cpu_traced = [], [], [], 0.0
    pass_durations = []  # whole passes, sampler included, to budget --seconds
    t_start = time.perf_counter()
    while True:
        pass_no = len(traced_walls) + len(untraced_walls)
        traced = tracer is not None and pass_no % 2 == 0
        cpu0 = cpu_seconds()
        t_pass = time.perf_counter()
        wall, speed, outcomes, output = run_pass(
            cli, commands, tracer if traced else None, pass_no * len(commands)
        )
        pass_durations.append(time.perf_counter() - t_pass)
        if traced:
            traced_walls.append(wall)
            cpu_traced += cpu_seconds() - cpu0
        else:
            untraced_walls.append(wall)
            speeds.append(speed)
        failed_before = checker.failed
        checker.check_pass(pass_no, outcomes)
        if failed_before == 0 and checker.failed:
            print(f"perfbench: pass {pass_no} CLI output:\n{output}", file=sys.stderr)
        elapsed = time.perf_counter() - t_start
        if len(pass_durations) >= MIN_PASSES and elapsed + statistics.median(pass_durations) > args.seconds:
            break

    # untraced passes on a host where the reference kernel takes calibrate.REFERENCE_S
    normalized = [w * v for w, v in zip(untraced_walls, speeds)]
    problems = []
    if tracer is not None:
        metrics = layer_metrics(tracer, checker.counts, traced_walls, untraced_walls, cpu_traced)
        problems = sorted(tracer.problems) + coverage_problems(args.workload, spec, metrics)
        tracer.write(OUT / f"{args.workload}-seed{seed}-spans.tsv.gz", t_start)
        listed = spec["per_layer"]
    else:
        metrics = {
            "wall_s": statistics.median(normalized),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb(),
        }
        listed = spec["end_to_end"]
    result = {
        "correct": checker.failed == 0 and not problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]} for e in listed},
    }
    host["loadavg_after"] = os.getloadavg()
    shutil.rmtree(work, ignore_errors=True)

    detail = {
        "workload": args.workload,
        "smoke": args.smoke,
        "trace": args.trace,
        "seconds": args.seconds,
        "host": host,
        "commands": [list(c.argv) for c in commands],
        "setup_s": setup_times,
        "setup_raw_s": setup_raw,
        "untraced_wall_s": normalized,
        "untraced_raw_wall_s": untraced_walls,
        "untraced_host_speed": speeds,
        "traced_raw_wall_s": traced_walls,
        "wall_s_tail": tail(normalized),
        "failed_share": checker.failed / checker.attempted,
        "failures": checker.failures,
        "coverage_problems": problems,
        "all_metrics": metrics,
        "result": result,
    }
    (OUT / f"{args.workload}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=2, sort_keys=True) + "\n"
    )

    for what in checker.failures + problems:
        print(f"perfbench: FAILED {what}", file=sys.stderr)
    print(f"{args.workload} seed={seed} trace={args.trace}: "
          f"{len(untraced_walls)} untraced, {len(traced_walls)} traced passes")
    if tracer is None:
        t = detail["wall_s_tail"]
        tail_text = (f"p{t[0]} {t[1]:.4f} s" if t else "no tail percentile: needs >= 11 passes")
        print(f"  wall_s       {metrics['wall_s']:.4f} s  (median of {len(untraced_walls)} passes; {tail_text}; "
              f"raw {statistics.median(untraced_walls):.4f} s at {statistics.median(speeds):.3f}x reference speed)")
        print(f"  setup_s      {metrics['setup_s']:.4f} s  (median of {SETUP_REPEATS} set-ups; "
              f"raw {statistics.median(setup_raw):.4f} s)")
        print(f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB")
    else:
        for entry in listed:
            print(f"  {entry['name']:<40} {metrics[entry['name']]:.6g} {entry['unit']}")
    print(f"  failed_share {detail['failed_share']:.4g}  ({checker.failed} of {checker.attempted} operations)")
    print("host " + json.dumps(host, sort_keys=True))
    print(json.dumps(result))


def run_all(args):
    """Each workload in its own process, one after another; exit 1 unless all are correct."""
    ok = True
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            argv.append("--smoke")
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            ok &= proc.returncode == 0 and json.loads(lines[-1])["correct"]
        except (IndexError, ValueError, KeyError):
            ok = False
    print(f"perfbench: {'all workloads correct' if ok else 'FAILED'}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs (k4, cycle:6)")
    parser.add_argument("--self-test", action="store_true",
                        help="boundary coverage: every workload, smoke inputs, traced")
    args = parser.parse_args()
    if args.self_test:
        args.workload, args.smoke, args.trace, args.seconds = "all", True, 1, 1
    if args.workload is None:
        parser.error("--workload or --self-test is required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return run_all(args)
    run_workload(args, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
