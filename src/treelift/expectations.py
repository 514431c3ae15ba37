"""Frozen regression constants for the named instances.

The constants live in ``data/expectations.json`` and are measured, never
hand-written: ``python -m treelift.expectations`` reruns the bootstrap
pipeline and rewrites the file in place.  The test suite compares fresh runs
against the frozen values, so any drift in lift girth or measured distortion
is caught as a regression rather than silently absorbed.  Distortion is
exact at every size; only the Heawood sweep's covered pair count is sampled.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

from .embedding import distortion, embed
from .families import load_named
from .graph import spanning_tree
from .lift import build_lift, lifted_diameter, lifted_girth, representative_tables, sample_pair_list

#: the sampled sweep policy the Heawood pair count is frozen under
HEAWOOD_SAMPLE_COUNT = 100_000
HEAWOOD_SEED = 7


def load():
    text = resources.files("treelift.data").joinpath("expectations.json").read_text("utf-8")
    return json.loads(text)


def compute():
    """Measure every frozen constant from scratch (the bootstrap run)."""
    out = {
        "_meta": {
            "note": "DERIVED regression constants measured by the bootstrap run; never edit by hand",
            "regenerate": "python -m treelift.expectations",
            "tree_strategy": "bfs",
            "tree_root": 0,
        }
    }
    for name in ("petersen", "heawood"):
        g = load_named(name)
        lg = build_lift(spanning_tree(g))
        table = embed(lg)
        tables = representative_tables(lg, table)
        rep = distortion(lg, table, tables)
        entry = {
            "lift_vertices": lg.num_vertices,
            "lift_girth": lifted_girth(lg, tables),
            "lift_diameter": lifted_diameter(lg, tables),
            "distortion_exhaustive": str(rep.distortion),
            "colip_exhaustive": str(rep.colip),
        }
        if name == "heawood":
            pairs = sample_pair_list(lg, tables, HEAWOOD_SAMPLE_COUNT, HEAWOOD_SEED)
            entry["sampled"] = {
                "sample_count": HEAWOOD_SAMPLE_COUNT,
                "seed": HEAWOOD_SEED,
                "pairs_covered": sum(covered for _, _, covered in pairs),
            }
        out[name] = entry
    return out


def main():
    data_dir = Path(__file__).resolve().parent / "data"
    target = data_dir / "expectations.json"
    payload = compute()
    target.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {target}")
    for name in ("petersen", "heawood"):
        print(f"{name}: {payload[name]}")


if __name__ == "__main__":
    main()
