"""Frozen sha256 digests of canonical reports.

Each case builds a report with no file paths in it, so its bytes depend only
on the code.  A digest that moves means a report changed: on purpose only
together with a schema bump and a new digest.  The regression constants in
``src/treelift/data/expectations.json`` (``expectations.py``) are frozen the
same way: a fresh measurement must equal the file.
"""

import hashlib

import pytest

from treelift.families import FamilySpec, make
from treelift.graph import spanning_tree
from treelift.lift import build_lift, lift_edge_list_text, lift_mapping_text
from treelift.report import CSV_HEADER, run_analysis, run_verify_instance, to_json_bytes

import expectations


def named(name):
    return make(FamilySpec.named(name))


def tree(name, strategy="bfs", root=0):
    return spanning_tree(named(name), strategy, root)


def analysis_json(name, **kw):
    return to_json_bytes(run_analysis(tree(name), **kw).report)


def exhaustive_csv(td, **kw):
    rows = [CSV_HEADER]
    run_analysis(td, pairs="exhaustive", emit_csv=rows.append, **kw)
    return "".join(rows).encode("ascii")


def lift_text(name, strategy, root, text):
    """The text form ``text`` (the edge list or the mapping) of a lift, joined."""
    lg = build_lift(tree(name, strategy, root))
    return "".join(text(lg)).encode("ascii")


def petersen_fault():
    # the fault `verify --fault-inject` plants: the coordinate-0 cotree edge
    # also flips coordinate 1
    td = tree("petersen")
    return td, (td.cotree[0], 1 << 1)


def fault_injected_petersen():
    td, fault = petersen_fault()
    ctx = run_verify_instance("petersen[fault]", td, pairs=300, seed=5, fault=fault)
    return to_json_bytes(ctx.report)


def fault_injected_petersen_csv():
    td, fault = petersen_fault()
    return exhaustive_csv(td, fault=fault)


def random_cubic():
    spec = FamilySpec.random_regular(20, 3, girth_min=5, seed=0)
    ctx = run_verify_instance(spec.describe(), spanning_tree(make(spec)), pairs=700, seed=0, oracle_pairs=400)
    return to_json_bytes(ctx.report)


def petersen_dfs_verify():
    ctx = run_verify_instance(
        "petersen",
        tree("petersen", "dfs", 5),
        pairs="exhaustive",
        seed=3,
        oracle_pairs=500,
    )
    return to_json_bytes(ctx.report)


CASES = {
    "petersen exhaustive": lambda: analysis_json("petersen", pairs="exhaustive"),
    "petersen exhaustive csv": lambda: exhaustive_csv(tree("petersen")),
    # 3,510 translation orbits of the fault lift, which keeps the trivial
    # group, 4,097 failing verdicts
    "petersen fault-injected exhaustive csv": fault_injected_petersen_csv,
    # 128 orbits of the lifted group (26,866 translation orbits), every
    # counter and all eight verdicts of each
    "heawood exhaustive csv": lambda: exhaustive_csv(tree("heawood")),
    "petersen sample:500 seed 7": lambda: analysis_json("petersen", pairs=500, seed=7),
    "heawood sample:2000 seed 5": lambda: analysis_json("heawood", pairs=2000, seed=5),
    "mcgee sample:2000 seed 3": lambda: analysis_json("mcgee", pairs=2000, seed=3),
    "petersen fault-injected sample:300 seed 5": fault_injected_petersen,
    # the only digest on a depth-first spanning tree
    "petersen dfs root 5 exhaustive verify": petersen_dfs_verify,
    "random:20:3 sample:700": random_cubic,
    # 1,966,080 lifted vertices, lift girth 16, diameter 35, exact colip 7/4
    "tutte_coxeter sample:200 seed 1": lambda: analysis_json("tutte_coxeter", pairs=200, seed=1),
    # the text form of `treelift lift` and its --mapping sidecar
    "petersen lift edges": lambda: lift_text("petersen", "bfs", 0, lift_edge_list_text),
    "petersen lift mapping": lambda: lift_text("petersen", "bfs", 0, lift_mapping_text),
    "heawood dfs root 5 lift edges": lambda: lift_text("heawood", "dfs", 5, lift_edge_list_text),
    "heawood dfs root 5 lift mapping": lambda: lift_text("heawood", "dfs", 5, lift_mapping_text),
}

GOLDEN = {
    "heawood dfs root 5 lift edges": "af2da376a0f8efcbbbd2ee73c2b38c41a048ac94610dee0ee5f15d05275c212c",
    "heawood dfs root 5 lift mapping": "04009acbfb320637495d3dee073e006ef19dcde45f36c498ae7bbda5ca6e53e1",
    "heawood exhaustive csv": "5788909be9a50d0224a75e68cb920c97dc2328ff62d5bb3d868ca9d074d44c50",
    "heawood sample:2000 seed 5": "1298cc34dbb18b2f7e4ede16337bac914716d925997c160f68db5cbaa6ba7b77",
    "mcgee sample:2000 seed 3": "f596d6c845dd581120a20834d1b4cecfe5c6dfc65f2572b2167c5f930e24fe6d",
    "petersen exhaustive": "6a6734a4e4eca11aaa695b9af307cd025562f0dbe27c189cdb013ccd7cf6af9b",
    "petersen dfs root 5 exhaustive verify": "049627388560d5d249b4acbded100b7ff5c7f79ebd4b2787a2b56a90bd463703",
    "petersen exhaustive csv": "68f5e551bc7acbfb445e8072493635041849bf99cb092880669cbeefd0d35b57",
    "petersen fault-injected exhaustive csv": "3042e27756d1ef03b90e71dc16cf433fa831a88b2546ba7f3675be53825555fb",
    "petersen fault-injected sample:300 seed 5": "4e1c47cf327d753971ea71c23670da70ea97d6a5e6ee44f74d70fe0dae71f892",
    "petersen lift edges": "00e493fbb57716fc7867b92c4f9c4b466f03660982349e236faee25fb4371988",
    "petersen lift mapping": "19e90aabda61f7b8c98a4e8f18e3e2b6f71cf857a3bf44365299d708af264b0d",
    "petersen sample:500 seed 7": "28c05a9f75d17d6417facbc33c50dc9d97ec745df313d4443bca3e110facb5e3",
    "random:20:3 sample:700": "21c7bc78315f950c5375d7026ff4822f27a9c8f8c722ea2c3718846fcaedba33",
    "tutte_coxeter sample:200 seed 1": "ba34af15ea0a22b2649aa4c5d736b87f397263a1a11aae8b75d0124e58b1605d",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_are_frozen(case):
    assert hashlib.sha256(CASES[case]()).hexdigest() == GOLDEN[case]


def test_the_frozen_expectations_are_what_a_fresh_run_measures():
    assert expectations.compute() == expectations.load()
