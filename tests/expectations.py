"""Frozen regression constants for the named instances.

The constants live in ``src/treelift/data/expectations.json`` and are
measured, never hand-written: ``PYTHONPATH=src python tests/expectations.py``
reruns the pipeline and rewrites the file in place.  Every constant is read
off the report of ``report.run_analysis``: Petersen under the default pair
policy and Heawood under the seeded ``sample:HEAWOOD_SAMPLE_COUNT`` sweep,
so the constants come through the same lifted group, tables and sweep as
every report.  The test suite compares fresh runs against the frozen
values, so any drift in lift girth or measured distortion is caught as a
regression rather than silently absorbed.  Distortion is exact at every
size; only the Heawood sweep's covered pair count is sampled.
"""

from __future__ import annotations

import json
from pathlib import Path

from treelift.families import load_named
from treelift.graph import spanning_tree
from treelift.report import run_analysis

#: the frozen constants, beside the named graphs they were measured on
PATH = Path(__file__).resolve().parents[1] / "src" / "treelift" / "data" / "expectations.json"

#: the sampled sweep policy the Heawood pair count is frozen under
HEAWOOD_SAMPLE_COUNT = 100_000
HEAWOOD_SEED = 7


def load():
    return json.loads(PATH.read_text("utf-8"))


def compute():
    """Measure every frozen constant from scratch, off ``run_analysis`` reports."""
    out = {
        "_meta": {
            "note": "DERIVED regression constants measured by the bootstrap run; never edit by hand",
            "regenerate": "PYTHONPATH=src python tests/expectations.py",
            "tree_strategy": "bfs",
            "tree_root": 0,
        }
    }
    policies = {"petersen": {}, "heawood": {"pairs": HEAWOOD_SAMPLE_COUNT, "seed": HEAWOOD_SEED}}
    for name, policy in policies.items():
        report = run_analysis(spanning_tree(load_named(name)), **policy).report
        lift, embedding = report["lift"], report["embedding"]
        entry = {
            "lift_vertices": lift["vertices"],
            "lift_girth": lift["girth"],
            "lift_diameter": lift["diameter"],
            "distortion_exhaustive": embedding["distortion"],
            "colip_exhaustive": embedding["colip"],
        }
        if policy:
            entry["sampled"] = {
                "sample_count": HEAWOOD_SAMPLE_COUNT,
                "seed": HEAWOOD_SEED,
                "pairs_covered": report["verdict_sweep"]["pairs_covered"],
            }
        out[name] = entry
    return out


def main():
    payload = compute()
    PATH.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {PATH}")
    for name in ("petersen", "heawood"):
        print(f"{name}: {payload[name]}")


if __name__ == "__main__":
    main()
