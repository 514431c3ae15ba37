"""Frozen sha256 digests of canonical reports.

Each case builds a report with no file paths in it, so its bytes depend only
on the code.  A digest that moves means a report changed: on purpose only
together with a schema bump and a new digest.
"""

import hashlib

import pytest

from treelift.families import FamilySpec, make
from treelift.graph import spanning_tree
from treelift.report import run_analysis, run_verify_instance, to_csv_text, to_json_bytes


def named(name):
    return make(FamilySpec.named(name))


def analysis_json(name, **kw):
    return to_json_bytes(run_analysis(named(name), **kw).report)


def exhaustive_csv(g, **kw):
    rows = []
    run_analysis(g, pairs="exhaustive", csv_rows=rows, **kw)
    return to_csv_text(rows).encode("ascii")


def petersen_fault():
    # the fault `verify --fault-inject` plants: the coordinate-0 cotree edge
    # also flips coordinate 1
    g = named("petersen")
    return g, (spanning_tree(g).cotree[0], 1 << 1)


def fault_injected_petersen():
    g, fault = petersen_fault()
    ctx = run_verify_instance(
        "petersen[fault]", g, pairs="sample", sample_count=300, seed=5, fault=fault
    )
    return to_json_bytes(ctx.report)


def fault_injected_petersen_csv():
    g, fault = petersen_fault()
    return exhaustive_csv(g, fault=fault)


def random_cubic():
    spec = FamilySpec.random_regular(20, 3, girth_min=5, seed=0)
    ctx = run_verify_instance(
        spec.describe(), make(spec), pairs="sample", sample_count=700, seed=0, oracle_pairs=400
    )
    return to_json_bytes(ctx.report)


def petersen_dfs_verify():
    ctx = run_verify_instance(
        "petersen",
        named("petersen"),
        tree_strategy="dfs",
        root=5,
        pairs="exhaustive",
        seed=3,
        oracle_pairs=500,
    )
    return to_json_bytes(ctx.report)


CASES = {
    "petersen exhaustive": lambda: analysis_json("petersen", pairs="exhaustive"),
    "petersen exhaustive csv": lambda: exhaustive_csv(named("petersen")),
    # 3,510 orbits of the fault lift, 4,097 failing verdicts
    "petersen fault-injected exhaustive csv": fault_injected_petersen_csv,
    # 26,866 orbits, every counter and all eight verdicts of each
    "heawood exhaustive csv": lambda: exhaustive_csv(named("heawood")),
    "petersen sample:500 seed 7": lambda: analysis_json(
        "petersen", pairs="sample", sample_count=500, seed=7
    ),
    "heawood sample:2000 seed 5": lambda: analysis_json(
        "heawood", pairs="sample", sample_count=2000, seed=5
    ),
    "mcgee sample:2000 seed 3": lambda: analysis_json(
        "mcgee", pairs="sample", sample_count=2000, seed=3
    ),
    "petersen fault-injected sample:300 seed 5": fault_injected_petersen,
    # the only digest on a depth-first spanning tree
    "petersen dfs root 5 exhaustive verify": petersen_dfs_verify,
    "random:20:3 sample:700": random_cubic,
    # 1,966,080 lifted vertices, lift girth 16, diameter 35, exact colip 7/4
    "tutte_coxeter sample:200 seed 1": lambda: analysis_json(
        "tutte_coxeter", pairs="sample", sample_count=200, seed=1
    ),
}

GOLDEN = {
    "heawood exhaustive csv": "164f6230cbc4a5e438c65723d1641bf94e8a9e2cdabd7e122e15fe855dd1fe3e",
    "heawood sample:2000 seed 5": "df68306f904e79f0f396dc73702e503ec8871a9d8883e6f14681673fd9df535e",
    "mcgee sample:2000 seed 3": "244a505c3b199c1e7983dff143171de6bf2eb5b999e1ab7a49d4b300eb5ca341",
    "petersen exhaustive": "9f5a326d0b48060090cacfedb45020c9112a0ed0c89665d6b5df059d9be36f97",
    "petersen dfs root 5 exhaustive verify": "9b4fc091eeb10eea0c488e74741bf34c353500784692893a5b8b9f71999f191b",
    "petersen exhaustive csv": "c54c38e69c7e211f72d9e745348c80d97e767344daefd0902718bafe0bab4b61",
    "petersen fault-injected exhaustive csv": "3042e27756d1ef03b90e71dc16cf433fa831a88b2546ba7f3675be53825555fb",
    "petersen fault-injected sample:300 seed 5": "4e1c47cf327d753971ea71c23670da70ea97d6a5e6ee44f74d70fe0dae71f892",
    "petersen sample:500 seed 7": "9dbfbe185c241ae25f4d3b68aa9e97a64ac74991db938af030f4c086969c8571",
    "random:20:3 sample:700": "21c7bc78315f950c5375d7026ff4822f27a9c8f8c722ea2c3718846fcaedba33",
    "tutte_coxeter sample:200 seed 1": "d05b7018af71099a034a79781691850b526e0cb2604fb88e075f7a872615a92c",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_are_frozen(case):
    assert hashlib.sha256(CASES[case]()).hexdigest() == GOLDEN[case]
