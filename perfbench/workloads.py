"""The benchmark's workloads: the inputs set-up generates, the CLI commands one
pass issues back to back, and which workload each layer metric is expected
to show on.

Each workload stresses a different layer (measured shares are in README.md
and BENCHMARK.json):

* ``exhaustive_small`` -- exhaustive orbit sweep on Petersen and Heawood;
  the per-orbit walks/graph path does the work, lift and embedding do almost
  none.
* ``sampled_large`` -- McGee (196,608 lifted vertices) with a small sample;
  distance tables, the sampled pair family and memory dominate.
* ``verify_battery`` -- the verify battery plus the fault-injection
  self-test; the direct-BFS oracle, the whole-lift checks and random-family
  generation run here.

Smoke mode swaps the inputs for tiny ones (``k4``, ``cycle:6``) so the
boundary-coverage self-test runs in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = ("exhaustive_small", "sampled_large", "verify_battery")


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what a correct run of it looks like."""

    argv: tuple
    expect_exit: int
    report: str  # path of the JSON report the command writes
    reports: int  # instance reports inside it
    graph: str = None  # named input of an analyze command, for expectations


def _stem(family):
    return family.replace(":", "")


def _gen(work, family):
    return ("gen", "--family", family, "-o", f"{work}/{_stem(family)}.txt")


def _analyze(work, family, *extra):
    stem = _stem(family)
    return Command(
        argv=("analyze", f"{work}/{stem}.txt", "-o", f"{work}/{stem}.json", *extra),
        expect_exit=0,
        report=f"{work}/{stem}.json",
        reports=1,
        graph=stem,
    )


def plan(name, seed, work, smoke=False):
    """(gen argument lists, commands of one pass) for a workload.

    The seed feeds only ``--seed`` and the random-family seeds; the program
    sees nothing but the generated inputs and flags.
    """
    seed = str(seed)
    if name == "exhaustive_small":
        graphs = ("k4", "cycle:6") if smoke else ("petersen", "heawood")
        gens = [_gen(work, g) for g in graphs]
        return gens, [_analyze(work, g) for g in graphs]
    if name == "sampled_large":
        graph, count = ("k4", "200") if smoke else ("mcgee", "2000")
        return [_gen(work, graph)], [_analyze(work, graph, "--pairs", f"sample:{count}", "--seed", seed)]
    if name == "verify_battery":
        if smoke:
            named, randoms, spec, girth = ("k4", "cycle:6"), 1, "random:8:3", "3"
            sizes = ("--pairs", "sample:200", "--oracle-pairs", "50")
        else:
            named, randoms, spec, girth = ("petersen",), 3, "random:20:3", "5"
            sizes = ("--pairs", "sample:1500", "--oracle-pairs", "400")
        # verify builds its random instances itself, inside the timed pass; set-up
        # generates only the named ones, so setup_s does not depend on the seed
        gens = [_gen(work, g) for g in named]
        battery = Command(
            argv=("verify", "--instances", ",".join(named), "--random-spec", spec,
                  "--random-count", str(randoms), "--girth-min", girth, *sizes,
                  "--seed", seed, "-o", f"{work}/verify.json"),
            expect_exit=0,
            report=f"{work}/verify.json",
            reports=len(named) + randoms,
        )
        # the sabotage self-test is correct only when the battery fails
        fault = Command(
            argv=("verify", "--fault-inject", *(sizes if smoke else ()), "--seed", seed,
                  "-o", f"{work}/fault.json"),
            expect_exit=1,
            report=f"{work}/fault.json",
            reports=1,
        )
        return gens, [battery, fault]
    raise ValueError(f"unknown workload {name!r}")


#: boundary (or report count) -> workloads on which it must record >= 1 call
#: (or a non-zero count); every per-layer metric in BENCHMARK.json maps to one
EXERCISED_BY = {
    "lift.representative_tables": ("sampled_large", "verify_battery"),
    "lift.bfs_lifted": ("sampled_large", "verify_battery"),
    "lift.build_lift": ("sampled_large",),
    "lift.lifted_girth": ("sampled_large",),
    "lift.lifted_diameter": ("sampled_large",),
    "lift.diameter_witness": ("sampled_large",),
    "lift.sample_pair_list": ("sampled_large",),
    "embedding.embed": ("sampled_large",),
    "embedding.distortion": ("sampled_large",),
    "embedding.pairs_examined": ("sampled_large",),
    "walks.shortest_lifted_path": ("exhaustive_small",),
    "walks.analyze": ("exhaustive_small",),
    "walks.verify_all": ("exhaustive_small",),
    "graph.bridges_and_2ecc": ("exhaustive_small",),
    "graph.Graph": ("exhaustive_small",),
    "sweeps.verdict_sweep": ("sampled_large",),
    "sweeps.analyses": ("sampled_large",),
    "sweeps.pairs_covered": ("sampled_large",),
    "sweeps.orbit_cache_hit_ratio": ("sampled_large",),
    "sweeps.oracle_equivalence_checks": ("verify_battery",),
    "sweeps.cut_partition_check": ("verify_battery",),
    "sweeps.degree_preservation_check": ("verify_battery",),
    "report.run_analysis": WORKLOADS,
    "report.to_json_bytes": WORKLOADS,
    "cli.main": WORKLOADS,
    "families.make": ("verify_battery",),
    "process.cpu_s": WORKLOADS,
    "trace.overhead_s": (),
}
