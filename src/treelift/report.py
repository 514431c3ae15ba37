"""Report assembly: run the full pipeline on an instance and emit stable,
machine-readable dictionaries.

All ratios appear twice: as exact fraction strings (the value) and as decimal
strings with six digits (a labeled rendering, suffix ``_decimal``).  JSON
serialization sorts keys and appends one newline so identical configurations
produce byte-identical reports.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import NamedTuple

from .embedding import distortion, distortion_bound, embed
from .graph import GraphError, diameter, girth
from .lift import (
    DEFAULT_MAX_VERTICES,
    build_lift,
    check_lift_order,
    lifted_diameter,
    lifted_girth,
    representative_tables,
    sample_pair_list,
)
from .sweeps import (
    cut_partition_check,
    degree_preservation_check,
    group_orbit_reps,
    oracle_equivalence_checks,
    verdict_sweep,
)
from .voltage import GroupOrbits, lifted_group
from .walks import VERDICT_NAMES

#: below this many lifted vertices the default sweep pair policy is exhaustive
AUTO_EXHAUSTIVE_LIMIT = 10_000
#: sampled pairs used once the instance is above the exhaustive limit
AUTO_SAMPLE_COUNT = 100_000


def frac_fields(name, fr):
    fr = Fraction(fr)
    return {name: str(fr), f"{name}_decimal": f"{float(fr):.6f}"}


def check_analysis(td, max_vertices, pairs, seed):
    """Every refusal of an analysis of the tree decomposition ``td``, made
    before any lift work; returns the verdict sweep's sample count under
    the pair policy ``pairs`` ("auto", "exhaustive" or a sample count), or
    None when it is exhaustive.

    "auto" is exhaustive below AUTO_EXHAUSTIVE_LIMIT lifted vertices and
    samples AUTO_SAMPLE_COUNT pairs at or above it.  In this order: a
    sample needs a count of at least 1 and a seed, the lift must be within
    the vertex cap ``max_vertices`` (``lift.check_lift_order``), and it must
    have two vertices for a distortion to exist.
    """
    g = td.graph
    nn = g.n << td.num_coords
    if pairs == "auto":
        pairs = "exhaustive" if nn < AUTO_EXHAUSTIVE_LIMIT else AUTO_SAMPLE_COUNT
    if pairs != "exhaustive":
        if type(pairs) is not int or pairs < 1:
            raise GraphError(f"unknown pair policy {pairs!r}")
        if seed is None:
            raise GraphError("sampled pair policy requires --seed")
    check_lift_order(g.n, g.m, max_vertices, "lift")
    if nn < 2:
        raise GraphError("distortion requires at least two lifted vertices")
    return None if pairs == "exhaustive" else pairs


def base_block(g, gi, diam):
    """The base graph's facts, from its measured girth ``gi`` and diameter ``diam``."""
    block = {
        "n": g.n,
        "m": g.m,
        "regular": g.regularity(),
        "girth": None if gi == math.inf else gi,
        "diameter": diam,
    }
    if gi == math.inf or diam == 0:
        block["girth_diameter_ratio"] = None
        block["girth_diameter_ratio_decimal"] = None
    else:
        block.update(frac_fields("girth_diameter_ratio", Fraction(gi, diam)))
    return block


def lift_block(lg, lifted_gi, lifted_diam, base_girth):
    return {
        "vertices": lg.num_vertices,
        "edges": lg.num_edges,
        "coordinates": lg.s,
        "connected": True,  # representative_tables refuses any other lift
        "girth": None if lifted_gi == math.inf else lifted_gi,
        "girth_at_least_base": lifted_gi >= base_girth,
        "diameter": lifted_diam,
        "fault": list(lg.fault) if lg.fault else None,
    }


def embedding_block(lg, rep):
    xb, xl = lg.decode(rep.witness_pair[0])
    yb, yl = lg.decode(rep.witness_pair[1])
    block = {
        "mode": "exhaustive",
        "pairs_examined": rep.pairs_examined,
        "orbits_examined": rep.orbits_examined,
        "witness_pair": {
            "x": {"base": xb, "label": lg.label_bits(xl)},
            "y": {"base": yb, "label": lg.label_bits(yl)},
        },
    }
    block.update(frac_fields("lip", rep.lip))
    block.update(frac_fields("colip", rep.colip))
    block.update(frac_fields("distortion", rep.distortion))
    return block


def bound_block(base_girth, base_diam, rep):
    bound = distortion_bound(base_girth, base_diam)
    block = frac_fields("value", bound)
    block["distortion_within_bound"] = rep.distortion <= bound
    return block


def sweep_block(sw, sample_count, seed):
    return {
        "mode": "exhaustive" if sample_count is None else "sample",
        "sample_count": sample_count,
        "seed": seed,
        "pairs_covered": sw.pairs_covered,
        "analyses": sw.analyses,
        "verdicts": {name: {"pass": sw.analyses - f, "fail": f} for name, f in sorted(sw.fails.items())},
        "all_pass": sw.all_pass,
        "failures": list(sw.failures),
    }


class AnalysisContext(NamedTuple):
    """The lift, its embedding and distance tables, and the report dict; the
    base graph and its tree are ``lg.base`` and ``lg.td``."""

    lg: object
    table: object
    tables: object
    report: dict


def run_analysis(
    td, max_vertices=DEFAULT_MAX_VERTICES, pairs="auto", seed=None, emit_csv=None, fault=None
):
    """Full pipeline on one base graph and its spanning tree, the tree
    decomposition ``td``: lift, embed, measure, sweep.

    The embedding block is exact over every pair of the lift at any size;
    the pair policy ``pairs`` ("auto", "exhaustive" or a sample count, which
    needs ``seed``) picks only the verdict sweep's pair stream:
    ``group_orbit_reps`` when exhaustive, ``sample_pair_list`` when sampled.
    The lifted group comes first in either mode: the distance tables are
    built from its walked sources only, and both streams hold one pair per
    orbit of it.  ``check_analysis`` makes every refusal first, before the
    lift is built.  Returns an AnalysisContext whose ``report`` field is the
    JSON-ready dict.  If ``emit_csv`` is given, the sweep calls it with one
    finished CSV line per analysis, newline included, as it goes.
    """
    count = check_analysis(td, max_vertices, pairs, seed)
    g = td.graph
    lg = build_lift(td, max_vertices=max_vertices, fault=fault)
    table = embed(lg)
    orbits = GroupOrbits(lifted_group(lg))
    tables = representative_tables(lg, table, orbits)
    base_gi = girth(g)
    base_di = diameter(g)
    collect = csv_collector(lg, emit_csv) if emit_csv is not None else None

    report = {
        "config": {
            "tree_strategy": td.strategy,
            "tree_root": td.root,
            "max_vertices": max_vertices,
            "pair_policy": "exhaustive" if count is None else f"sample:{count}",
            "seed": seed,
        },
        "base": base_block(g, base_gi, base_di),
    }
    lifted_gi = lifted_girth(lg, tables)
    lifted_di = lifted_diameter(lg, tables)
    report["lift"] = lift_block(lg, lifted_gi, lifted_di, base_gi)

    rep = distortion(lg, table, tables)
    if rep.lip == 1:
        report["embedding"] = embedding_block(lg, rep)
        report["bound"] = bound_block(base_gi, base_di, rep)
    else:  # the cut partition is broken (rows are injective by construction)
        error = f"embedding is not 1-Lipschitz (measured lip = {rep.lip}); the cut partition is broken"
        report["embedding"] = {"error": error}
        report["bound"] = {"distortion_within_bound": False, "error": error}

    if count is None:
        stream = group_orbit_reps(lg, orbits)
    else:
        stream = sample_pair_list(lg, tables, count, seed)
    sw = verdict_sweep(lg, table, tables, base_gi, base_di, stream, collect, exhaustive=count is None)
    report["verdict_sweep"] = sweep_block(sw, count, seed)
    report["all_pass"] = (
        report["bound"]["distortion_within_bound"]
        and report["lift"]["girth_at_least_base"]
        and sw.all_pass
    )
    return AnalysisContext(lg, table, tables, report)


def run_verify_instance(label, td, seed=0, oracle_pairs=2_000, **options):
    """Analysis of the tree decomposition ``td`` plus the deep whole-lift
    checks, for the verify battery; ``options`` are those of ``run_analysis``."""
    ctx = run_analysis(td, seed=seed, **options)
    lg, table, tables = ctx.lg, ctx.table, ctx.tables
    cut = cut_partition_check(lg, table)
    degree = degree_preservation_check(lg)
    bad_l1, bad_dist = oracle_equivalence_checks(lg, table, tables, oracle_pairs, seed)
    checks = (  # in name order, the order ``cmd_verify`` names failing checks in
        ("cut_partition", cut, lg.num_edges),
        ("degree_preservation", degree, lg.num_vertices),
        ("oracle_distance_table", bad_dist, oracle_pairs),
        ("oracle_l1_odd_multiplicity", bad_l1, oracle_pairs),
    )
    report = ctx.report
    report["label"] = label
    report["checks"] = {name: {"pass": not v, "violations": v, "checked": n} for name, v, n in checks}
    report["all_pass"] = report["all_pass"] and not any(v for _, v, _ in checks)
    return ctx


def to_json_bytes(report):
    """Canonical serialization: sorted keys, two-space indent, one newline."""
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode("ascii")


CSV_COLUMNS = (
    "x_base",
    "x_label",
    "y_base",
    "y_label",
    "pairs_covered",
    "distance",
    "l1",
    "ratio",
    "ratio_decimal",
    "components",
    "bridge_paths",
    "bridges_once",
    "component_edges",
    "bridges_twice",
    "max_segment",
    *VERDICT_NAMES,
)
#: the CSV header line, which the lines of ``csv_collector`` follow
CSV_HEADER = ",".join(CSV_COLUMNS) + "\n"


def csv_collector(lg, emit):
    """A verdict_sweep collect hook calling ``emit`` with one finished CSV
    line, newline included, per analysis."""

    def collect(x, y, covered, d, l1, wa, verdicts):
        xb, xl = lg.decode(x)
        yb, yl = lg.decode(y)
        ratio = Fraction(d, l1)
        row = (
            xb,
            lg.label_bits(xl),
            yb,
            lg.label_bits(yl),
            covered,
            d,
            l1,
            ratio,
            f"{float(ratio):.6f}",
            wa.components,
            wa.bridge_paths,
            wa.bridges_once,
            wa.component_edges,
            wa.bridges_twice,
            max(wa.segments) if wa.segments else 0,
            *(("fail" if verdicts[k] else "pass") for k in VERDICT_NAMES),
        )
        emit(",".join(map(str, row)) + "\n")

    return collect
