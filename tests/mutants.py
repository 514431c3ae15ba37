"""A catalogue of small faults in ``src/treelift``, each with the tests that
must catch it.

Every entry names one mutant: the module it changes, an exact old string
that occurs there once, its replacement and the test ids that must fail
once it is applied.  There is at least one mutant per verdict of
``walks.VERDICT_NAMES``, and more for the counters, the whole-lift checks,
both oracle halves, the engine's rows, girth and colip witness, the
embedding's label columns, the exhaustive stream's pair count, the sweep's
tally and pass flag, the CSV column, the report's Lipschitz error branch,
the whole-lift check blocks, the automorphism search's distance constraints
and the source of the vertex cap.

    python tests/mutants.py [NAME ...]

runs the named mutants, or all of them.  It first runs every named test on
an unchanged copy of ``src``, which must pass; then, for each mutant, it
copies ``src`` into a temporary directory, applies the mutant and runs only
its tests against the copy, which must fail.  It exits 1 if an old string
no longer occurs exactly once, a test fails on the unchanged copy or a
mutant survives.  ``tests/test_mutants.py`` checks the old strings and test
ids on every Tier-1 run, without running them.

Known equivalent mutant, left out: counting a join in ``walks.analyze``
when either, rather than both, of a degree-2 vertex's edges is a bridge.
The two edges of a degree-2 vertex lie on a common cycle or on none.
``sweeps.degree_preservation_check`` has no entry: every lift has its
base's degrees by construction, so no test input can make it fail.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "treelift"


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # a module of src/treelift
    old: str
    new: str
    tests: tuple  # pytest ids, relative to the repository root


GIRTH_PLUS_ONE = (
    "tests/test_walks.py::"
    "test_a_component_of_exactly_girth_edges_fails_both_girth_checks_at_girth_plus_one"
)
RANDOM_WALKS = "tests/test_walks_reference.py::test_analyze_and_verdicts_match_the_reference_on_random_walks"
GOLDEN = "tests/test_golden.py::test_report_bytes_are_frozen"

MUTANTS = (
    # one per verdict
    Mutant(
        "euler_parity: odd endpoints are not exempt",
        "walks.py",
        "        for i in sorted(odd_vertices)\n        if verts[i] != px and verts[i] != py\n",
        "        for i in sorted(odd_vertices)\n",
        ("tests/test_walks.py::test_euler_parity_single_edge_endpoints_odd",),
    ),
    Mutant(
        "repetitions: an edge may be used three times",
        "walks.py",
        "            if c > 2:\n",
        "            if c > 3:\n",
        (f"{RANDOM_WALKS}[petersen]",),
    ),
    Mutant(
        "counting: bridge_paths limit raised by one",
        "walks.py",
        "limit = 2 * components + 1",
        "limit = 2 * components + 2",
        (f"{RANDOM_WALKS}[petersen]",),
    ),
    Mutant(
        "segments: limit raised by one",
        "walks.py",
        "if length > base_diam",
        "if length > base_diam + 1",
        (f"{RANDOM_WALKS}[petersen]",),
    ),
    Mutant(
        "accounting: twice-used bridges counted once in path_len",
        "walks.py",
        "if wa.path_len != once_inside + 2 * wa.bridges_twice:",
        "if wa.path_len != once_inside + wa.bridges_twice:",
        ("tests/test_walks.py::test_a_twice_used_bridge_exists_in_petersen_lift_and_passes",),
    ),
    Mutant(
        "endpoint_degrees: the far endpoint is not exempt",
        "walks.py",
        "if degs[i] == 1 and verts[i] != px and verts[i] != py",
        "if degs[i] == 1 and verts[i] != px",
        ("tests/test_walks.py::test_verify_all_on_k4_exhaustive",),
    ),
    Mutant(
        "component_girth: a component of exactly girth edges fails",
        "walks.py",
        "if c < base_girth\n",
        "if c <= base_girth\n",
        (GIRTH_PLUS_ONE,),
    ),
    Mutant(
        "relift: re-lifted by the lift's own rule, not the tree's",
        "walks.py",
        "tree_rule = lg.td.rule",
        "tree_rule = lg.rule",
        (f"{RANDOM_WALKS}[petersen[fault]]",),
    ),
    # the two girth weakenings no real component can fail
    Mutant(
        "component_girth weakened by one edge",
        "walks.py",
        "if c < base_girth\n",
        "if c < base_girth - 1\n",
        (GIRTH_PLUS_ONE,),
    ),
    Mutant(
        "accounting's girth inequality weakened by one edge",
        "walks.py",
        "if wa.component_edges < components * base_girth:",
        "if wa.component_edges < components * (base_girth - 1):",
        (GIRTH_PLUS_ONE,),
    ),
    # the counters
    Mutant(
        "analyze: every degree-2 vertex joins two bridges",
        "walks.py",
        "if e1 in bridges and e2 in bridges:",
        "if True:",
        (f"{RANDOM_WALKS}[k4]",),
    ),
    # the sweep's tally and the CSV column read each verdict's list
    Mutant(
        "verdict_sweep: passing verdicts tallied as failed",
        "sweeps.py",
        "                if v:\n                    fails[name] += 1",
        "                if not v:\n                    fails[name] += 1",
        (f"{GOLDEN}[petersen fault-injected sample:300 seed 5]",),
    ),
    Mutant(
        "csv_collector: pass and fail swapped",
        "report.py",
        '"fail" if verdicts[k] else "pass"',
        '"pass" if verdicts[k] else "fail"',
        (f"{GOLDEN}[petersen exhaustive csv]",),
    ),
    Mutant(
        "group_orbit_reps: covered not halved within one vertex orbit",
        "sweeps.py",
        "len(far) * size >> (home[v] == r)",
        "len(far) * size",
        (f"{GOLDEN}[petersen exhaustive]",),
    ),
    # the report's pass flags and counts
    Mutant(
        "run_analysis: a lip of 2 reported as a distortion",
        "report.py",
        "if rep.lip == 1:",
        "if rep.lip >= 1:",
        (f"{GOLDEN}[petersen fault-injected sample:300 seed 5]",),
    ),
    Mutant(
        "SweepResult.all_pass: every sweep passes",
        "sweeps.py",
        "        return not self.failures\n",
        "        return True\n",
        (f"{GOLDEN}[petersen fault-injected sample:300 seed 5]",),
    ),
    Mutant(
        "run_verify_instance: every check block passes",
        "report.py",
        '{"pass": not v,',
        '{"pass": True,',
        (f"{GOLDEN}[petersen fault-injected sample:300 seed 5]",),
    ),
    Mutant(
        "run_verify_instance: cut_partition counts base edges, not lifted ones",
        "report.py",
        '("cut_partition", cut, lg.num_edges)',
        '("cut_partition", cut, lg.base.m)',
        (f"{GOLDEN}[petersen dfs root 5 exhaustive verify]",),
    ),
    # the whole-lift checks and the two oracle halves
    Mutant(
        "cut_partition: only the own cut's bit is checked",
        "sweeps.py",
        "if got != 1 << eid:",
        "if not got >> eid & 1:",
        ("tests/test_embedding.py::test_every_broken_matching_is_named_by_the_cut_check",),
    ),
    Mutant(
        "oracle_l1_odd_multiplicity: every edge counted, not the odd ones",
        "sweeps.py",
        "odd = sum(1 for c in counts.values() if c & 1)",
        "odd = sum(1 for c in counts.values() if c)",
        (f"{GOLDEN}[petersen dfs root 5 exhaustive verify]",),
    ),
    Mutant(
        "oracle_distance_table: only short table distances are caught",
        "sweeps.py",
        "        if got != want:\n            bad_dist.append",
        "        if got < want:\n            bad_dist.append",
        ("tests/test_sweeps.py::test_oracle_fails_tables_with_one_entry_changed",),
    ),
    Mutant(
        "two_sided_distances: a met search is one step short",
        "lift.py",
        "d = radius + reach",
        "d = radius + reach - 1",
        ("tests/test_sweeps.py::test_oracle_fails_tables_with_one_entry_changed",),
    ),
    # the engine's outputs
    Mutant(
        "bfs_lifted: the cycle bound counts labels already seen",
        "lift.py",
        "if not cycle and old & moved & ~seen[b]:",
        "if not cycle and old & moved:",
        (f"{GOLDEN}[petersen exhaustive]",),
    ),
    Mutant(
        "_expand_row: the fourth distance bit-plane is dropped",
        "lift.py",
        "for k, bits in enumerate(whole[first : first + 8]):",
        "for k, bits in enumerate(whole[first : first + 3]):",
        (f"{GOLDEN}[petersen exhaustive]",),
    ),
    Mutant(
        "representative_tables: a later pair attaining the colip takes the witness",
        "lift.py",
        "if ahead > 0 or (ahead == 0 and (x, y) < witness):",
        "if ahead >= 0:",
        ("tests/test_embedding.py::test_colip_fold_equals_the_plain_scan[k4]",),
    ),
    Mutant(
        "EmbeddingTable.lin reads only high[0]",
        "embedding.py",
        "return self.low[f & self.low_mask] ^ self.high[f >> self.h]",
        "return self.low[f & self.low_mask] ^ self.high[0]",
        (f"{GOLDEN}[petersen exhaustive]",),
    ),
    # the automorphism search and the command line
    Mutant(
        "_transversals: the last placed vertex's distance is not compared",
        "voltage.py",
        "        return [w for w in pool if kind[w] == k and at(dist[w]) == want]\n",
        "        return [w for w in pool if kind[w] == k and "
        "all(dist[w][placed[d]] == want[d] for d in range(i - 1))]\n",
        ("tests/test_voltage.py::test_a_group_too_large_to_multiply_out_is_refused_before_any_product",),
    ),
    Mutant(
        "main: the cap variable is read even when --max-vertices is given",
        "cli.py",
        'if "max_vertices" in args and args.max_vertices is None:',
        'if "max_vertices" in args:',
        ("tests/test_cli.py::test_a_bad_cap_variable_is_not_read_by_gen_or_under_an_explicit_cap",),
    ),
)


def occurrences(mutant, package=PACKAGE):
    """How many times the mutant's old string occurs in its module."""
    return (package / mutant.file).read_text(encoding="utf-8").count(mutant.old)


def run_tests(src, tests):
    """Run the pytest ids ``tests`` against the package copy under ``src``;
    returns pytest's exit status (0 all passed, 1 some failed)."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    done = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode


def status(mutant=None):
    """pytest's exit status for the tests of ``mutant`` on a mutated copy of
    ``src``, or for every catalogued test on an unchanged copy."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is None:
            return run_tests(src, sorted({t for m in MUTANTS for t in m.tests}))
        path = src / "treelift" / mutant.file
        path.write_text(path.read_text(encoding="utf-8").replace(mutant.old, mutant.new), encoding="utf-8")
        return run_tests(src, mutant.tests)


def main(names):
    chosen = [m for m in MUTANTS if not names or m.name in names]
    missing = set(names) - {m.name for m in chosen}
    if missing:
        print(f"unknown mutants: {sorted(missing)}")
        return 2
    bad = [m.name for m in chosen if occurrences(m) != 1]
    for name in bad:
        print(f"STALE {name}: its old string does not occur exactly once")
    if bad:
        return 1
    baseline = status()
    if baseline != 0:
        print(f"the catalogued tests do not pass on the unchanged package (pytest exit {baseline})")
        return 1
    survivors = 0
    for m in chosen:
        code = status(m)
        # 1 is a failed test; any other status (an import error included) is no kill
        verdict = "killed" if code == 1 else f"SURVIVED (pytest exit {code})"
        survivors += code != 1
        print(f"{verdict}: {m.name}")
    print(f"{len(chosen) - survivors} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
