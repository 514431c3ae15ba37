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
from dataclasses import dataclass
from fractions import Fraction

from .embedding import distortion, distortion_bound, embed
from .graph import GraphError, diameter, girth, spanning_tree
from .lift import (
    DEFAULT_MAX_VERTICES,
    build_lift,
    lifted_diameter,
    lifted_girth,
    representative_tables,
    sample_pair_list,
)
from .sweeps import (
    cut_partition_check,
    degree_preservation_check,
    oracle_equivalence_checks,
    verdict_sweep,
)

#: below this many lifted vertices the default sweep pair policy is exhaustive
AUTO_EXHAUSTIVE_LIMIT = 10_000
#: sampled pairs used once the instance is above the exhaustive limit
AUTO_SAMPLE_COUNT = 100_000


def frac_fields(name, fr):
    fr = Fraction(fr)
    return {name: str(fr), f"{name}_decimal": f"{float(fr):.6f}"}


def verdict_dict(v):
    return {"pass": v.passed, "violations": list(v.violations), "checked": v.checked}


def resolve_policy(num_lifted_vertices, pairs_arg, sample_count):
    """Map the CLI pair policy of the verdict sweep to (mode, sample_count).

    "auto" picks exhaustive below AUTO_EXHAUSTIVE_LIMIT lifted vertices and
    sample(AUTO_SAMPLE_COUNT) at or above it.
    """
    if pairs_arg == "auto":
        if num_lifted_vertices < AUTO_EXHAUSTIVE_LIMIT:
            return "exhaustive", None
        return "sample", AUTO_SAMPLE_COUNT
    if pairs_arg == "exhaustive":
        return "exhaustive", None
    if pairs_arg == "sample":
        return "sample", AUTO_SAMPLE_COUNT if sample_count is None else sample_count
    raise GraphError(f"unknown pair policy {pairs_arg!r}")


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
        "connected": True,  # build_lift asserts this
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


def sweep_block(sw, mode, sample_count, seed):
    return {
        "mode": mode,
        "sample_count": sample_count,
        "seed": seed,
        "pairs_covered": sw.pairs_covered,
        "analyses": sw.analyses,
        "verdicts": {
            name: {"pass": p, "fail": f} for name, (p, f) in sorted(sw.verdict_totals.items())
        },
        "all_pass": sw.all_pass,
        "failures": list(sw.failures),
    }


@dataclass(eq=False)
class AnalysisContext:
    """Everything the pipeline built, for callers that need more than the dict;
    the base graph and its tree are ``lg.base`` and ``lg.td``."""

    lg: object
    table: object
    tables: object
    base_girth: float
    base_diam: int
    sweep: object
    report: dict


def run_analysis(
    g,
    tree_strategy="bfs",
    root=0,
    max_vertices=DEFAULT_MAX_VERTICES,
    pairs="auto",
    sample_count=None,
    seed=None,
    csv_rows=None,
    fault=None,
):
    """Full pipeline on one base graph: lift, embed, measure, sweep.

    The embedding block is exact over every pair of the lift at any size;
    the pair policy (``pairs``, ``sample_count``, ``seed``) picks only the
    pairs of the verdict sweep.  Returns an AnalysisContext whose ``report``
    field is the JSON-ready dict.  If ``csv_rows`` is a list, the sweep
    appends one flattened row per examined translation orbit to it (the CSV
    export).
    """
    td = spanning_tree(g, tree_strategy, root)
    lg = build_lift(g, td, max_vertices=max_vertices, fault=fault)
    table = embed(lg)
    tables = representative_tables(lg, table)
    base_gi = girth(g)
    base_di = diameter(g)
    mode, count = resolve_policy(lg.num_vertices, pairs, sample_count)
    if mode == "sample" and seed is None:
        raise GraphError("sampled pair policy requires --seed")
    collect = csv_collector(lg, csv_rows) if csv_rows is not None else None

    report = {
        "config": {
            "tree_strategy": tree_strategy,
            "tree_root": root,
            "max_vertices": max_vertices,
            "pair_policy": mode if mode == "exhaustive" else f"sample:{count}",
            "seed": seed,
        },
        "base": base_block(g, base_gi, base_di),
    }
    lifted_gi = lifted_girth(lg, tables)
    lifted_di = lifted_diameter(lg, tables)
    report["lift"] = lift_block(lg, lifted_gi, lifted_di, base_gi)

    dist_error = None
    try:
        rep = distortion(lg, table, tables)
        report["embedding"] = embedding_block(lg, rep)
        report["bound"] = bound_block(base_gi, base_di, rep)
    except RuntimeError as exc:  # injectivity / Lipschitz hard failures
        dist_error = str(exc)
        report["embedding"] = {"error": dist_error}
        report["bound"] = {"distortion_within_bound": False, "error": dist_error}

    pair_list = sample_pair_list(lg, tables, count, seed) if mode == "sample" else None
    sw = verdict_sweep(lg, table, tables, base_gi, base_di, pairs=pair_list, collect=collect)
    report["verdict_sweep"] = sweep_block(sw, mode, count, seed)
    report["all_pass"] = (
        dist_error is None
        and report["bound"]["distortion_within_bound"]
        and report["lift"]["girth_at_least_base"]
        and sw.all_pass
    )
    return AnalysisContext(lg, table, tables, base_gi, base_di, sw, report)


def run_verify_instance(label, g, seed=0, oracle_pairs=2_000, **options):
    """Analysis plus the deep whole-lift checks, for the verify battery;
    ``options`` are those of ``run_analysis``."""
    ctx = run_analysis(g, seed=seed, **options)
    lg, table, tables = ctx.lg, ctx.table, ctx.tables
    checks = (
        cut_partition_check(lg, table),
        degree_preservation_check(lg),
        *oracle_equivalence_checks(lg, table, tables, oracle_pairs, seed),
    )
    report = ctx.report
    report["label"] = label
    report["checks"] = {v.name: verdict_dict(v) for v in sorted(checks, key=lambda v: v.name)}
    report["all_pass"] = report["all_pass"] and all(v.passed for v in checks)
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
    "euler_parity",
    "repetitions",
    "counting",
    "segments",
    "accounting",
    "endpoint_degrees",
    "component_girth",
    "relift",
)


def csv_collector(lg, out_rows):
    """A verdict_sweep collect hook appending one flattened CSV row per orbit."""

    def collect(x, y, covered, d, l1, wa, verdicts):
        xb, xl = lg.decode(x)
        yb, yl = lg.decode(y)
        ratio = Fraction(d, l1)
        out_rows.append(
            (
                xb,
                lg.label_bits(xl),
                yb,
                lg.label_bits(yl),
                covered,
                d,
                l1,
                str(ratio),
                f"{float(ratio):.6f}",
                wa.components,
                wa.bridge_paths,
                wa.bridges_once,
                wa.component_edges,
                wa.bridges_twice,
                max(wa.segments) if wa.segments else 0,
                *(("pass" if verdicts[k].passed else "fail") for k in CSV_COLUMNS[15:]),
            )
        )

    return collect


def to_csv_text(rows):
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(",".join(str(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"
