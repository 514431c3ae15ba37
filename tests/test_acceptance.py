"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL
line (run with -s to see them live) and enforcing its runtime budget.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from treelift.cli import main as cli_main
from treelift.embedding import distortion, embed, distortion_bound
from treelift.expectations import HEAWOOD_SAMPLE_COUNT, HEAWOOD_SEED, load as load_expectations
from treelift.families import FamilySpec, load_named, make, random_regular
from treelift.graph import diameter, girth, spanning_tree
from treelift.lift import build_lift, lifted_girth, sample_pair_list
from treelift.report import run_verify_instance
from treelift.sweeps import (
    cut_partition_check,
    group_orbit_reps,
    oracle_equivalence_checks,
    verdict_sweep,
)
from treelift.voltage import GroupOrbits, lifted_group

from lift_reference import every_source_tables, row


@contextmanager
def criterion(num, name, budget=None):
    t0 = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - t0
        assert budget is None or elapsed < budget, (
            f"runtime {elapsed:.1f}s exceeds the {budget}s budget"
        )
    except BaseException:
        print(f"ACCEPTANCE {num} ({name}): FAIL [{time.monotonic() - t0:.1f}s]")
        raise
    print(f"ACCEPTANCE {num} ({name}): PASS [{elapsed:.1f}s]")


class Bundle:
    def __init__(self, g):
        self.g = g
        self.td = spanning_tree(g)
        self.lg = build_lift(self.td)
        self.table = embed(self.lg)
        self.tables = every_source_tables(self.lg, self.table)
        self.base_girth = girth(g)
        self.base_diam = diameter(g)


MATRIX = ("k4", "cycle:3", "cycle:4", "cycle:5", "cycle:6", "cycle:7", "cycle:8", "petersen", "heawood")


@pytest.fixture(scope="module")
def bundles():
    out = {}
    for label in MATRIX:
        if label.startswith("cycle:"):
            g = make(FamilySpec.cycle(int(label.split(":")[1])))
        else:
            g = load_named(label)
        out[label] = Bundle(g)
    return out


@pytest.fixture(scope="module")
def expectations():
    return load_expectations()


def test_criterion_1_cycle_double_cover():
    with criterion(1, "cycle double cover", budget=1.0):
        for n in range(3, 9):
            g = make(FamilySpec.cycle(n))
            td = spanning_tree(g, "dfs", 0)  # path spanning tree, cotree = closing edge
            assert len(td.cotree) == 1
            lg = build_lift(td)  # connectivity asserted by the tables below
            assert lg.num_vertices == 2 * n
            assert all(len(lg.neighbors(x)) == 2 for x in range(2 * n))
            # connected + 2-regular + 2n vertices + girth 2n pins C_{2n}
            table = embed(lg)
            tables = every_source_tables(lg, table)
            assert lifted_girth(lg, tables) == 2 * n == 2 * girth(g)
            rep = distortion(lg, table, tables)
            assert rep.distortion == Fraction(1)


def test_criterion_2_petersen_exhaustive(bundles, expectations):
    with criterion(2, "Petersen exhaustive sweep", budget=30.0):
        b = bundles["petersen"]
        lg = b.lg
        assert lg.num_vertices == 640
        assert lg.num_edges == 960
        assert all(len(lg.neighbors(x)) == 3 for x in range(640))
        gi = lifted_girth(lg, b.tables)
        assert gi >= 5
        assert gi == expectations["petersen"]["lift_girth"]

        assert len({row(b.table, x) for x in range(640)}) == 640  # injective
        rep = distortion(lg, b.table, b.tables)
        assert rep.lip == Fraction(1)
        assert rep.pairs_examined == 640 * 639 // 2 == 204480
        assert rep.distortion <= Fraction(17, 5)
        assert rep.distortion == Fraction(expectations["petersen"]["distortion_exhaustive"])

        group = group_orbit_reps(lg, GroupOrbits(lifted_group(lg)))
        sweep = verdict_sweep(lg, b.table, b.tables, b.base_girth, b.base_diam, group)
        assert sweep.pairs_covered == 204480
        assert sweep.all_pass, "\n\n".join(sweep.failures)
        for name, (npass, nfail) in sweep.verdict_totals.items():
            assert nfail == 0 and npass == sweep.analyses, name


def test_criterion_3_heawood_sampled(bundles, expectations):
    with criterion(3, "Heawood sampled sweep", budget=120.0):
        b = bundles["heawood"]
        lg = b.lg
        assert lg.num_vertices == 3584
        gi = lifted_girth(lg, b.tables)
        assert gi >= 6
        assert gi == expectations["heawood"]["lift_girth"]

        # distortion is exact whatever the sweep samples
        rep = distortion(lg, b.table, b.tables)
        assert rep.pairs_examined == 3584 * 3583 // 2
        assert rep.distortion == Fraction(expectations["heawood"]["distortion_exhaustive"])
        assert rep.distortion <= 3
        assert rep.distortion <= distortion_bound(b.base_girth, b.base_diam) == Fraction(4)

        frozen = expectations["heawood"]["sampled"]
        assert frozen["sample_count"] == HEAWOOD_SAMPLE_COUNT >= 100_000
        assert frozen["seed"] == HEAWOOD_SEED
        pairs = list(sample_pair_list(lg, b.tables, HEAWOOD_SAMPLE_COUNT, HEAWOOD_SEED))
        sweep = verdict_sweep(
            lg,
            b.table,
            b.tables,
            b.base_girth,
            b.base_diam,
            pairs=pairs,
        )
        # the swept family is 100k seeded draws, every adjacent pair and the
        # diameter witness, deduplicated; draw collisions keep the distinct
        # count near (not at) the sum
        assert sweep.pairs_covered >= 100_000
        assert sweep.pairs_covered == frozen["pairs_covered"]
        assert sweep.all_pass, "\n\n".join(sweep.failures)


def test_criterion_4_cut_partition_properties(bundles):
    with criterion(4, "cut/partition properties"):
        for label in MATRIX:
            b = bundles[label]
            # row(x)^row(y) == 1<<e over every lifted edge certifies, at
            # once: the fiber of e is exactly the h_e-crossing set, the m cuts
            # partition the lifted edge set, and adjacent rows differ in
            # exactly one coordinate
            v = cut_partition_check(b.lg, b.table)
            assert v.checked == b.lg.num_edges
            assert v.passed, f"{label}: {v.violations}"


def test_criterion_5_oracle_equivalence(bundles):
    with criterion(5, "oracle equivalence"):
        for label in MATRIX:
            b = bundles[label]
            l1_v, dist_v = oracle_equivalence_checks(
                b.lg, b.table, b.tables, count=10_000, seed=91
            )
            assert l1_v.checked == 10_000 and dist_v.checked == 10_000
            assert l1_v.passed, f"{label}: {l1_v.violations}"
            assert dist_v.passed, f"{label}: {dist_v.violations}"


def test_criterion_6_random_regular_robustness():
    with criterion(6, "random regular robustness", budget=300.0):
        for seed in range(20):
            g = random_regular(20, 3, girth_min=5, seed=seed)
            ctx = run_verify_instance(
                f"random:20:3#{seed}",
                spanning_tree(g),
                pairs=1_500,
                seed=seed,
                oracle_pairs=400,
            )
            nn = ctx.lg.num_vertices
            assert len({row(ctx.table, x) for x in range(nn)}) == nn  # injective
            report = ctx.report
            dumps = "\n\n".join(report["verdict_sweep"]["failures"])
            assert report["verdict_sweep"]["all_pass"], f"seed {seed}:\n{dumps}"
            for name, block in report["checks"].items():
                assert block["pass"], f"seed {seed}: {name}: {block['violations']}"
            assert report["bound"]["distortion_within_bound"], f"seed {seed}"
            assert report["all_pass"], f"seed {seed}"


def test_criterion_7_determinism(tmp_path):
    with criterion(7, "byte-identical reports"):
        base = tmp_path / "p.txt"
        assert cli_main(["gen", "--family", "petersen", "-o", str(base)]) == 0

        a1, a2 = tmp_path / "a1.json", tmp_path / "a2.json"
        args = ["analyze", str(base), "--pairs", "sample:2000", "--seed", "7"]
        assert cli_main(args + ["-o", str(a1)]) == 0
        assert cli_main(args + ["-o", str(a2)]) == 0
        assert a1.read_bytes() == a2.read_bytes()

        c1, c2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
        csv_args = ["analyze", str(base), "--format", "csv", "--pairs", "sample:500", "--seed", "3"]
        assert cli_main(csv_args + ["-o", str(c1)]) == 0
        assert cli_main(csv_args + ["-o", str(c2)]) == 0
        assert c1.read_bytes() == c2.read_bytes()

        v1, v2 = tmp_path / "v1.json", tmp_path / "v2.json"
        vargs = [
            "verify",
            "--instances",
            "k4,cycle:6",
            "--random-count",
            "1",
            "--pairs",
            "sample:1000",
            "--seed",
            "7",
            "--oracle-pairs",
            "200",
        ]
        assert cli_main(vargs + ["-o", str(v1)]) == 0
        assert cli_main(vargs + ["-o", str(v2)]) == 0
        assert v1.read_bytes() == v2.read_bytes()

        r1, r2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
        gargs = ["gen", "--family", "random:20:3", "--girth-min", "5", "--seed", "11"]
        assert cli_main(gargs + ["-o", str(r1)]) == 0
        assert cli_main(gargs + ["-o", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()
