import json
import os
import stat
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import pytest

import treelift.cli as cli
import treelift.graph as graph_mod
import treelift.lift as lift_mod
import treelift.report as report_mod
from treelift.cli import main

from lift_reference import with_rows


ROOT = Path(__file__).resolve().parents[1]


def run(args):
    return main([str(a) for a in args])


def test_gen_petersen_header(tmp_path, capsys):
    out = tmp_path / "p.txt"
    assert run(["gen", "--family", "petersen", "-o", out]) == 0
    assert out.read_text().splitlines()[0] == "10 15"
    assert "girth=5" in capsys.readouterr().out


def test_gen_cycle_header(tmp_path):
    out = tmp_path / "c6.txt"
    assert run(["gen", "--family", "cycle:6", "-o", out]) == 0
    assert out.read_text().splitlines()[0] == "6 6"


def test_gen_random_with_floor(tmp_path, capsys):
    out = tmp_path / "r.txt"
    code = run(["gen", "--family", "random:20:3", "--girth-min", 5, "--seed", 1, "-o", out])
    assert code == 0
    assert out.read_text().splitlines()[0] == "20 30"


def test_gen_exhaustion_is_explicit(tmp_path, capsys):
    out = tmp_path / "r.txt"
    code = run(
        ["gen", "--family", "random:14:3", "--girth-min", 8, "--seed", 0, "--max-tries", 20, "-o", out]
    )
    assert code == 2
    assert "20 attempts" in capsys.readouterr().err
    assert not out.exists()


def test_gen_bad_family_usage_error(tmp_path, capsys):
    assert run(["gen", "--family", "dodecahedron", "-o", tmp_path / "x.txt"]) == 2


def test_lift_materialization_and_mapping(tmp_path):
    base = tmp_path / "p.txt"
    run(["gen", "--family", "petersen", "-o", base])
    lifted = tmp_path / "lift.txt"
    mapping = tmp_path / "map.txt"
    assert run(["lift", base, "-o", lifted, "--mapping", mapping]) == 0
    assert lifted.read_text().splitlines()[0] == "640 960"
    lines = mapping.read_text().splitlines()
    assert lines[0] == "0 0 000000"
    assert lines[-1] == "639 9 111111"


def test_a_mapping_that_cannot_be_opened_leaves_the_lift_file_as_it_was(tmp_path, capsys):
    base = tmp_path / "p.txt"
    run(["gen", "--family", "petersen", "-o", base])
    lifted = tmp_path / "lift.txt"
    lifted.write_text("the old lift\n")
    assert run(["lift", base, "-o", lifted, "--mapping", tmp_path / "nodir" / "map.txt"]) == 2
    assert lifted.read_text() == "the old lift\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["lift.txt", "p.txt"]
    assert "nodir" in capsys.readouterr().err


@pytest.mark.parametrize("names", ["one path", "one symlink", "symlink and target", "hard link", "missing"])
def test_a_mapping_that_names_the_lift_file_is_refused_before_either_is_written(tmp_path, capsys, names):
    # both outputs would write one file: the same path collides with the
    # edge list's temporary file, and an in-place output loses the mapping
    base = tmp_path / "p.txt"
    run(["gen", "--family", "petersen", "-o", base])
    target = tmp_path / "target.txt"
    link = tmp_path / "link.txt"
    if names == "missing":
        out, mapping = tmp_path / "new.txt", tmp_path / "." / "new.txt"
    else:
        target.write_text("the old lift\n")
        if names == "hard link":
            os.link(target, link)
        elif names != "one path":
            link.symlink_to(target)
        out, mapping = {
            "one path": (target, target),
            "one symlink": (link, link),
            "symlink and target": (link, target),
            "hard link": (target, link),
        }[names]
    assert run(["lift", base, "-o", out, "--mapping", mapping]) == 2
    assert f"error: -o and --mapping name the same file '{mapping}'" in capsys.readouterr().err
    if names == "missing":
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p.txt"]
    else:
        assert target.read_text() == "the old lift\n"


@pytest.mark.parametrize("link", ["symlink", "hardlink"])
def test_a_mapping_that_cannot_be_opened_leaves_an_in_place_lift_file_as_it_was(tmp_path, capsys, link):
    base = tmp_path / "p.txt"
    run(["gen", "--family", "petersen", "-o", base])
    target = tmp_path / "target.txt"
    target.write_text("the old lift\n" * 1000)
    lifted = tmp_path / "lift.txt"
    if link == "symlink":
        lifted.symlink_to(target)
    else:
        os.link(target, lifted)
    assert run(["lift", base, "-o", lifted, "--mapping", tmp_path / "nodir" / "map.txt"]) == 2
    assert "nodir" in capsys.readouterr().err
    assert target.read_text() == "the old lift\n" * 1000
    # a run that writes cuts the longer old file at the end of its output
    fresh = tmp_path / "fresh.txt"
    assert run(["lift", base, "-o", fresh]) == 0
    assert run(["lift", base, "-o", lifted]) == 0
    assert target.read_text() == fresh.read_text()
    assert target.stat().st_size < len("the old lift\n" * 1000)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_report_on_stdout_is_the_report_file(tmp_path, capsys, fmt):
    base = tmp_path / "c6.txt"
    run(["gen", "--family", "cycle:6", "-o", base])
    capsys.readouterr()
    report = tmp_path / "r.out"
    assert run(["analyze", base, "--format", fmt, "-o", report]) == 0
    assert run(["analyze", base, "--format", fmt]) == 0
    assert capsys.readouterr().out == report.read_text()


def test_analyze_json_report_contents(tmp_path):
    base = tmp_path / "c8.txt"
    run(["gen", "--family", "cycle:8", "-o", base])
    report_path = tmp_path / "r.json"
    assert run(["analyze", base, "-o", report_path]) == 0
    report = json.loads(report_path.read_text())
    assert report["schema"] == "treelift-report-v4"
    assert report["base"]["n"] == 8 and report["base"]["regular"] == 2
    assert report["lift"]["vertices"] == 16
    assert report["embedding"]["distortion"] == "1"
    assert report["bound"]["distortion_within_bound"] is True
    assert report["verdict_sweep"]["all_pass"] is True
    assert report["all_pass"] is True


def test_analyze_disconnected_no_partial_report(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("4 2\n0 1\n2 3\n")
    report_path = tmp_path / "r.json"
    assert run(["analyze", bad, "-o", report_path]) == 2
    assert not report_path.exists()
    assert "connected" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "lift"])
def test_a_header_with_more_vertices_than_a_connected_graph_allows_is_refused_first(
    tmp_path, capsys, monkeypatch, command
):
    bad = tmp_path / "huge.txt"
    bad.write_text("2000000 0")

    def refuse(*args):
        raise AssertionError("a Graph was built")

    monkeypatch.setattr(graph_mod, "Graph", refuse)
    out, mapping = tmp_path / "out", tmp_path / "map.txt"
    extra = ["--mapping", mapping] if command == "lift" else []
    assert run([command, bad, "-o", out, *extra]) == 2
    assert not out.exists() and not mapping.exists()
    assert "connected" in capsys.readouterr().err


def test_analyze_sampled_reports_byte_identical(tmp_path):
    base = tmp_path / "p.txt"
    run(["gen", "--family", "petersen", "-o", base])
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["analyze", base, "--pairs", "sample:500", "--seed", 7]
    assert run(args + ["-o", r1]) == 0
    assert run(args + ["-o", r2]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_analyze_csv_rows_sorted_and_flat(tmp_path):
    base = tmp_path / "c5.txt"
    run(["gen", "--family", "cycle:5", "-o", base])
    out = tmp_path / "pairs.csv"
    assert run(["analyze", base, "--format", "csv", "-o", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("x_base,x_label,y_base,y_label,pairs_covered,distance,l1,ratio")
    # 10-vertex lift: 5 zero-label representatives against later vertices
    keys = []
    for ln in lines[1:]:
        parts = ln.split(",")
        keys.append((int(parts[0]), parts[1], int(parts[2]), parts[3]))
        assert parts[15] == "pass"
    assert keys == sorted(keys)


def test_sampled_sweep_keeps_the_exact_embedding(tmp_path):
    base = tmp_path / "p.txt"
    run(["gen", "--family", "petersen", "-o", base])
    reports = []
    for pairs in ("exhaustive", "sample:500"):
        out = tmp_path / f"{pairs.replace(':', '')}.json"
        assert run(["analyze", base, "--pairs", pairs, "--seed", 7, "-o", out]) == 0
        reports.append(json.loads(out.read_text()))
    exhaustive, sampled = reports
    assert sampled["embedding"] == exhaustive["embedding"]
    assert sampled["embedding"]["mode"] == "exhaustive"
    assert sampled["embedding"]["pairs_examined"] == 640 * 639 // 2
    assert sampled["embedding"]["colip"] == "5/3"
    assert "sample_count" not in sampled["embedding"]
    assert sampled["verdict_sweep"]["mode"] == "sample"
    assert sampled["verdict_sweep"]["pairs_covered"] < exhaustive["verdict_sweep"]["pairs_covered"]


def test_sampled_csv_has_one_row_per_orbit(tmp_path):
    base = tmp_path / "p.txt"
    run(["gen", "--family", "petersen", "-o", base])
    args = ["analyze", base, "--pairs", "sample:500", "--seed", 7]
    assert run(args + ["--format", "csv", "-o", tmp_path / "r.csv"]) == 0
    assert run(args + ["-o", tmp_path / "r.json"]) == 0
    report = json.loads((tmp_path / "r.json").read_text())
    rows = [ln.split(",") for ln in (tmp_path / "r.csv").read_text().splitlines()[1:]]
    assert len(rows) == report["verdict_sweep"]["analyses"]
    assert sum(int(row[4]) for row in rows) == report["verdict_sweep"]["pairs_covered"]
    # Aut(G) is transitive on the 15 base edges: their 15 translation orbits
    # of 2^6 lifted edges are one orbit of the lifted group
    assert [row[4] for row in rows if row[5] == "1"] == [str(15 * 64)]


@pytest.mark.parametrize("command", ["analyze", "lift"])
def test_empty_graph_is_usage_error(tmp_path, capsys, command):
    base = tmp_path / "empty.txt"
    base.write_text("0 0\n")
    out = tmp_path / "out"
    assert run([command, base, "-o", out]) == 2
    err = capsys.readouterr().err
    assert "spanning tree of the empty graph is undefined" in err
    assert "out of range" not in err
    assert not out.exists()


@pytest.mark.parametrize("pairs", ["sample:10", "auto"])
def test_one_vertex_lift_is_usage_error(tmp_path, capsys, pairs):
    base = tmp_path / "one.txt"
    base.write_text("1 0\n")
    out = tmp_path / "r.json"
    assert run(["analyze", base, "--pairs", pairs, "--seed", 1, "-o", out]) == 2
    assert "at least two lifted vertices" in capsys.readouterr().err
    assert not out.exists()


def test_verify_reduced_matrix_passes(tmp_path):
    report_path = tmp_path / "v.json"
    code = run(
        [
            "verify",
            "--instances",
            "k4,cycle:3",
            "--random-count",
            0,
            "--pairs",
            "sample:100",
            "--seed",
            3,
            "--oracle-pairs",
            100,
            "-o",
            report_path,
        ]
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["all_pass"] is True
    labels = [inst["label"] for inst in report["instances"]]
    assert labels == ["k4", "cycle:3"]
    for inst in report["instances"]:
        assert inst["checks"]["cut_partition"]["pass"] is True
        assert inst["checks"]["oracle_distance_table"]["pass"] is True


def test_verify_reports_byte_identical(tmp_path):
    args = [
        "verify",
        "--instances",
        "cycle:4,k4",
        "--random-count",
        1,
        "--pairs",
        "sample:1000",
        "--seed",
        7,
        "--oracle-pairs",
        200,
    ]
    r1, r2 = tmp_path / "v1.json", tmp_path / "v2.json"
    assert run(args + ["-o", r1]) == 0
    assert run(args + ["-o", r2]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_verify_fault_injection_fails_with_cut_violation(tmp_path, capsys):
    report_path = tmp_path / "f.json"
    code = run(
        ["verify", "--fault-inject", "--pairs", "sample:200", "--seed", 1, "--oracle-pairs", 100, "-o", report_path]
    )
    assert code == 1
    report = json.loads(report_path.read_text())
    assert report["all_pass"] is False
    inst = report["instances"][0]
    assert inst["label"] == "petersen[fault]"
    cp = inst["checks"]["cut_partition"]
    assert cp["pass"] is False
    assert any("crosses cuts" in v for v in cp["violations"])
    assert "FAIL" in capsys.readouterr().out


def test_base_girth_and_diameter_run_once_per_gen_and_per_analysis(tmp_path, monkeypatch):
    calls = []
    for name in ("girth", "diameter"):
        real = getattr(graph_mod, name)

        def counted(g, real=real, name=name):
            calls.append(name)
            return real(g)

        for mod in (cli, report_mod):
            monkeypatch.setattr(mod, name, counted)
    base = tmp_path / "p.txt"
    assert run(["gen", "--family", "petersen", "-o", base]) == 0
    assert sorted(calls) == ["diameter", "girth"]
    calls.clear()
    assert run(["analyze", base, "-o", tmp_path / "r.json"]) == 0
    assert sorted(calls) == ["diameter", "girth"]


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_a_row_no_path_rebuilds_through_fails_the_run(tmp_path, capsys, monkeypatch, command):
    # row 0's largest entry raised by 3: no vertex is one level closer to it,
    # so the canonical path to it cannot be rebuilt
    real = report_mod.representative_tables

    def corrupted(lg, table, orbits):
        tables = real(lg, table, orbits)
        row = list(tables.rows[0])
        row[row.index(max(row))] += 3
        return with_rows(tables, [row, *tables.rows[1:]])

    monkeypatch.setattr(report_mod, "representative_tables", corrupted)
    base = tmp_path / "k4.txt"
    run(["gen", "--family", "k4", "-o", base])
    out = tmp_path / "r.json"
    if command == "analyze":
        argv = ["analyze", base, "-o", out]
    else:
        argv = ["verify", "--instances", "k4", "--random-count", 0, "-o", out]
    assert run(argv) == 1
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads(out.read_text())
    sweep = (report if command == "analyze" else report["instances"][0])["verdict_sweep"]
    assert not sweep["all_pass"]
    for totals in sweep["verdicts"].values():
        assert totals["fail"] >= 1 and totals["pass"] + totals["fail"] == sweep["analyses"]
    assert any(": no canonical path: vertex " in line for line in sweep["failures"])


def test_env_var_cap_override(tmp_path, capsys, monkeypatch):
    base = tmp_path / "p.txt"
    run(["gen", "--family", "petersen", "-o", base])
    monkeypatch.setenv("TREELIFT_MAX_VERTICES", "100")
    assert run(["analyze", base, "-o", tmp_path / "r.json"]) == 2
    err = capsys.readouterr().err
    assert "640" in err and "100" in err


def test_a_bad_cap_variable_is_not_read_by_gen_or_under_an_explicit_cap(tmp_path, capsys, monkeypatch):
    # gen has no cap, and --max-vertices wins over the variable
    monkeypatch.setenv("TREELIFT_MAX_VERTICES", "-5")
    base = tmp_path / "p.txt"
    assert run(["gen", "--family", "petersen", "-o", base]) == 0
    cap = ["--max-vertices", 1000]
    assert run(["lift", base, "-o", tmp_path / "l.txt", *cap]) == 0
    assert run(["analyze", base, "-o", tmp_path / "r.json", *cap]) == 0
    out = tmp_path / "v.json"
    assert run(["verify", "--instances", "k4", "--random-count", 0, "-o", out, *cap]) == 0
    assert json.loads(out.read_text())["config"]["max_vertices"] == 1000
    assert "TREELIFT_MAX_VERTICES" not in capsys.readouterr().err


@pytest.mark.parametrize("value, cap", [(None, lift_mod.DEFAULT_MAX_VERTICES), ("1000", 1000)])
def test_verify_records_the_cap_it_resolved(tmp_path, monkeypatch, value, cap):
    if value is None:
        monkeypatch.delenv("TREELIFT_MAX_VERTICES", raising=False)
    else:
        monkeypatch.setenv("TREELIFT_MAX_VERTICES", value)
    out = tmp_path / "v.json"
    assert run(["verify", "--instances", "k4", "--random-count", 0, "--oracle-pairs", 0, "-o", out]) == 0
    assert json.loads(out.read_text())["config"]["max_vertices"] == cap


def test_a_cold_import_of_the_cli_loads_no_module_the_commands_do_not_use():
    # dataclasses (which loads inspect), traceback and importlib.resources
    # cost tens of milliseconds at every start; -S keeps site hooks out
    unused = ("dataclasses", "inspect", "traceback", "importlib.resources")
    code = f"import sys, treelift.cli; print([m for m in {unused!r} if m in sys.modules])"
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout == "[]\n"


def test_mcgee_gen_available(tmp_path):
    out = tmp_path / "m.txt"
    assert run(["gen", "--family", "mcgee", "-o", out]) == 0
    assert out.read_text().splitlines()[0] == "24 36"


def test_non_utf8_input_is_usage_error(tmp_path, capsys):
    base = tmp_path / "bad.txt"
    base.write_bytes(b"2 1\n0 \xff1\n")
    assert run(["analyze", base, "-o", tmp_path / "r.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "UTF-8" in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--max-vertices", -5],
        ["--max-vertices", 0],
    ],
    ids=["cap-negative", "cap-0"],
)
def test_numeric_flags_below_one_are_usage_errors(tmp_path, capsys, flags):
    base = tmp_path / "p.txt"
    run(["gen", "--family", "petersen", "-o", base])
    with pytest.raises(SystemExit) as exc:
        run(["analyze", base, "-o", tmp_path / "r.json", *flags])
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_sample_count_flag_is_removed(tmp_path, capsys):
    # --pairs sample:N is the one way to size the sampled sweep
    base = tmp_path / "p.txt"
    run(["gen", "--family", "petersen", "-o", base])
    with pytest.raises(SystemExit) as exc:
        run(["analyze", base, "--pairs", "sample", "--sample-count", 5, "--seed", 1])
    assert exc.value.code == 2
    assert "unrecognized arguments: --sample-count" in capsys.readouterr().err


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize(
    "command",
    [["gen", "--family", "random:20:3"], ["verify", "--instances", "k4"]],
    ids=["gen", "verify"],
)
def test_max_tries_below_one_is_usage_error(tmp_path, capsys, command, value):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run([*command, "--max-tries", value, "-o", out])
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_env_var_cap_below_one_is_usage_error(tmp_path, capsys, monkeypatch):
    base = tmp_path / "p.txt"
    run(["gen", "--family", "petersen", "-o", base])
    monkeypatch.setenv("TREELIFT_MAX_VERTICES", "-5")
    assert run(["analyze", base, "-o", tmp_path / "r.json"]) == 2
    err = capsys.readouterr().err
    assert "TREELIFT_MAX_VERTICES" in err and "must be at least 1" in err
    assert "raise --max-vertices" not in err


@pytest.mark.parametrize("flag", ["--oracle-pairs", "--random-count"])
def test_negative_verify_counts_are_usage_errors(tmp_path, capsys, flag):
    out = tmp_path / "v.json"
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--instances", "k4", flag, -2, "-o", out])
    assert exc.value.code == 2
    assert "must be at least 0" in capsys.readouterr().err
    assert not out.exists()
    # zero stays a valid count
    assert run(["verify", "--instances", "k4", "--oracle-pairs", 0, "--random-count", 0]) == 0


@pytest.mark.parametrize("spec", ["petersen", "cycle:5", "complete:4", "k4"])
def test_verify_random_spec_must_be_random(tmp_path, capsys, spec):
    # a non-random family would otherwise run --random-count times, ignoring
    # --seed and --girth-min
    out = tmp_path / "v.json"
    assert run(["verify", "--random-spec", spec, "--random-count", 2, "--instances", "k4", "-o", out]) == 2
    captured = capsys.readouterr()
    assert "expected random:N:K" in captured.err
    assert captured.out == ""  # rejected before any instance runs
    assert not out.exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (["--instances", "k4,bogus", "--random-count", 0], "unknown family 'bogus'"),
        (["--instances", "k4,cycle:2", "--random-count", 0], "cycle needs n >= 3"),
        (["--instances", "k4", "--random-count", 1, "--random-spec", "random:5:3"], "n*k must be even"),
        (["--instances", "k4", "--random-count", 1, "--random-spec", "random:3:3"], "need n > k"),
        (["--instances", "k4", "--random-count", 1, "--girth-min", 2], "girth_min must be >= 3"),
        # one lift above the cap stops the run before any instance, even one under the cap
        (
            ["--instances", "petersen", "--random-count", 1, "--max-vertices", 1000],
            "the lift of random:20:3(girth_min=5,seed=0) would have 40960 vertices, above the cap of 1000",
        ),
        (
            ["--instances", "k4,heawood", "--random-count", 0, "--max-vertices", 1000],
            "the lift of heawood would have 3584 vertices",
        ),
        (["--fault-inject", "--max-vertices", 600], "the lift of petersen[fault] would have 640 vertices"),
        # the (4,5)-cage's lift, 19 * 2^20 vertices, needs the cap raised
        (
            ["--instances", "k4,robertson", "--random-count", 0],
            "the lift of robertson would have 19922944 vertices, above the cap of 4194304",
        ),
    ],
)
def test_verify_checks_every_instance_before_the_first_runs(tmp_path, capsys, args, message):
    out = tmp_path / "v.json"
    assert run(["verify", *args, "-o", out]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "PASS" not in captured.out and "FAIL" not in captured.out
    assert not out.exists()


def test_verify_frees_each_instance_before_the_next_starts(monkeypatch):
    real = cli.run_verify_instance
    lifts = []

    def wrapped(*args, **kwargs):
        # the lift of every earlier instance is gone, without a garbage collection
        assert [ref() for ref in lifts] == [None] * len(lifts)
        ctx = real(*args, **kwargs)
        lifts.append(weakref.ref(ctx.lg))
        return ctx

    monkeypatch.setattr(cli, "run_verify_instance", wrapped)
    args = ["verify", "--instances", "k4,petersen", "--random-count", 1, "--random-spec", "random:8:3"]
    assert run([*args, "--girth-min", 3, "--oracle-pairs", 50]) == 0
    assert len(lifts) == 3


def test_internal_error_has_its_own_exit_code(tmp_path, capsys, monkeypatch):
    base = tmp_path / "p.txt"
    run(["gen", "--family", "petersen", "-o", base])
    capsys.readouterr()

    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "run_analysis", crash)
    assert run(["analyze", base, "-o", tmp_path / "r.json"]) == cli.EXIT_INTERNAL == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: RuntimeError: boom\n")
    assert "Traceback (most recent call last)" in err
    assert not (tmp_path / "r.json").exists()


def test_a_bug_in_the_report_layer_exits_3_and_leaves_no_report(tmp_path, capsys, monkeypatch):
    # a bug raised while the embedding block is written is no verdict (1)
    base = tmp_path / "p.txt"
    run(["gen", "--family", "petersen", "-o", base])
    capsys.readouterr()

    def unfinished(*args):
        raise NotImplementedError

    monkeypatch.setattr(report_mod, "embedding_block", unfinished)
    out = tmp_path / "r.json"
    assert run(["analyze", base, "-o", out]) == cli.EXIT_INTERNAL == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: NotImplementedError")
    assert "Traceback (most recent call last)" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "value",
    ["sample", "samplez", "samples", "sample_1", "sample:", "sample:1:2", "sample:²", "exhaustively"],
)
@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_malformed_pairs_values_are_usage_errors(tmp_path, capsys, command, value):
    base = tmp_path / "p.txt"
    run(["gen", "--family", "petersen", "-o", base])
    capsys.readouterr()
    out = tmp_path / "r.json"
    target = [base] if command == "analyze" else ["--instances", "k4"]
    assert run([command, *target, "--pairs", value, "--seed", 1, "-o", out]) == 2
    assert f"bad --pairs value {value!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("pairs", ["sample:10", "auto"])
def test_a_sampled_policy_without_a_seed_is_refused_before_the_lift_is_built(
    tmp_path, capsys, monkeypatch, pairs
):
    # McGee lifts to 196,608 vertices, so "auto" samples too
    base = tmp_path / "mcgee.txt"
    run(["gen", "--family", "mcgee", "-o", base])
    capsys.readouterr()
    built = []
    monkeypatch.setattr(report_mod, "build_lift", lambda *args, **kw: built.append(args))
    out = tmp_path / "r.json"
    assert run(["analyze", base, "--pairs", pairs, "-o", out]) == 2
    assert "sampled pair policy requires --seed" in capsys.readouterr().err
    assert not out.exists()
    assert not built


@pytest.mark.parametrize("command", ["analyze", "verify"])
@pytest.mark.parametrize("target,message", [("missing/x.csv", "missing"), (".", "Is a directory")])
def test_a_bad_output_fails_before_the_lift_is_built(
    tmp_path, capsys, monkeypatch, command, target, message
):
    base = tmp_path / "p.txt"
    run(["gen", "--family", "petersen", "-o", base])
    capsys.readouterr()
    built = []
    monkeypatch.setattr(report_mod, "build_lift", lambda *args, **kw: built.append(args))
    out = tmp_path / target
    if command == "analyze":
        argv = ["analyze", base, "--pairs", "sample:20", "--seed", 1, "--format", "csv", "-o", out]
    else:
        argv = ["verify", "--instances", "k4", "--random-count", 0, "-o", out]
    assert run(argv) == 2
    assert message in capsys.readouterr().err
    assert not built
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.txt"]


@pytest.mark.parametrize(
    "command,fmt", [("analyze", "csv"), ("analyze", "json"), ("verify", "json")]
)
def test_a_crashed_sweep_leaves_no_file(tmp_path, capsys, monkeypatch, command, fmt):
    base = tmp_path / "p.txt"
    run(["gen", "--family", "petersen", "-o", base])
    capsys.readouterr()
    real = report_mod.verdict_sweep

    def crash(lg, table, tables, base_girth, base_diam, pairs, collect=None, exhaustive=False):
        # a few rows reach the output first
        real(lg, table, tables, base_girth, base_diam, list(pairs)[:3], collect)
        raise RuntimeError("boom")

    monkeypatch.setattr(report_mod, "verdict_sweep", crash)
    out = tmp_path / "r.out"
    if command == "analyze":
        argv = ["analyze", base, "--format", fmt, "-o", out]
    else:
        argv = ["verify", "--instances", "k4", "--random-count", 0, "-o", out]
    assert run(argv) == cli.EXIT_INTERNAL
    assert "internal error: RuntimeError: boom" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.txt"]


def test_an_analyze_csv_is_written_as_the_sweep_runs(tmp_path, monkeypatch):
    base = tmp_path / "p.txt"
    run(["gen", "--family", "petersen", "-o", base])
    out = tmp_path / "r.csv"
    written = []
    real = cli.write_text

    def spy(stream, blocks):
        blocks = list(blocks)
        written.append(len(blocks))
        real(stream, blocks)

    monkeypatch.setattr(cli, "write_text", spy)
    assert run(["analyze", base, "--pairs", "exhaustive", "--format", "csv", "-o", out]) == 0
    lines = out.read_text().splitlines()
    # the header, then one write per row: no row waits for the others
    assert written == [1] * len(lines) and len(lines) == 54


@pytest.mark.parametrize("kind", ["symlink", "fifo", "hardlink", "read_only_dir"])
def test_an_output_other_than_a_lone_regular_file_is_written_in_place(tmp_path, kind):
    base = tmp_path / "p.txt"
    run(["gen", "--family", "petersen", "-o", base])
    argv = ["analyze", base, "--pairs", "exhaustive", "--format", "csv", "-o"]
    want = tmp_path / "want.csv"
    assert run([*argv, want]) == 0
    box = tmp_path / "box"
    box.mkdir()
    out = target = box / "out.csv"
    received = []
    if kind == "fifo":
        os.mkfifo(out)
        reader = threading.Thread(target=lambda: received.append(out.read_text()), daemon=True)
        reader.start()
    else:
        if kind != "read_only_dir":
            target = tmp_path / "target.csv"
        target.write_text("old\n")
        if kind == "symlink":
            out.symlink_to(target)
        elif kind == "hardlink":
            os.link(target, out)
        else:  # only a process that may not write the directory takes this path
            box.chmod(0o555)
    try:
        assert run([*argv, out]) == 0
    finally:
        box.chmod(0o755)
    if kind == "fifo":
        reader.join(timeout=60)
        assert stat.S_ISFIFO(os.lstat(out).st_mode)
        assert received == [want.read_text()]
    else:
        assert target.read_text() == want.read_text()
    assert out.is_symlink() == (kind == "symlink")
    assert os.lstat(out).st_nlink == (2 if kind == "hardlink" else 1)
    assert os.listdir(box) == ["out.csv"]


def test_a_replaced_report_keeps_its_permission_bits(tmp_path):
    base = tmp_path / "p.txt"
    run(["gen", "--family", "petersen", "-o", base])
    out = tmp_path / "r.json"
    out.write_text("old\n")
    out.chmod(0o640)
    assert run(["analyze", base, "-o", out]) == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o640
    assert json.loads(out.read_text())["all_pass"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.txt", "r.json"]



def refused_command(tmp_path, case):
    """(argv without -o, the message) of a command that must exit 2."""
    if case == "one-vertex lift":
        base = tmp_path / "one.txt"
        base.write_text("1 0\n")
        return ["analyze", base], "distortion requires at least two lifted vertices"
    if case == "ungenerable random instance":
        argv = ["verify", "--instances", "k4", "--random-count", 1, "--girth-min", 9, "--max-tries", 2]
        return argv, "no 3-regular graph on 20 vertices with girth >= 9 found in 2 attempts (seed 0)"
    if case == "ungenerable gen":
        argv = ["gen", "--family", "random:14:3", "--girth-min", 8, "--max-tries", 2]
        return argv, "no 3-regular graph on 14 vertices with girth >= 8 found in 2 attempts (seed 0)"
    base = tmp_path / "p.txt"
    run(["gen", "--family", "petersen", "-o", base])
    if case == "over-cap lift":
        return ["lift", base, "--max-vertices", 100], "lift would have 640 vertices, above the cap of 100"
    fmt = "csv" if case == "over-cap csv" else "json"
    argv = ["analyze", base, "--format", fmt, "--max-vertices", 100]
    return argv, "lift would have 640 vertices, above the cap of 100"


@pytest.mark.parametrize("link", ["symlink", "hardlink"])
@pytest.mark.parametrize(
    "case",
    [
        "over-cap json",
        "over-cap csv",
        "one-vertex lift",
        "ungenerable random instance",
        "over-cap lift",
        "ungenerable gen",
    ],
)
def test_a_refusal_leaves_an_output_written_in_place_unchanged(
    tmp_path, capsys, monkeypatch, case, link
):
    argv, message = refused_command(tmp_path, case)
    target = tmp_path / "target.json"
    target.write_text("an earlier report\n")
    out = tmp_path / "out.json"
    if link == "symlink":
        out.symlink_to(target)
    else:
        os.link(target, out)
    real = report_mod.build_lift
    built = []
    monkeypatch.setattr(report_mod, "build_lift", lambda *args, **kw: built.append(args) or real(*args, **kw))
    capsys.readouterr()
    assert run([*argv, "-o", out]) == 2
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert "PASS" not in captured.out and "FAIL" not in captured.out
    assert target.read_text() == "an earlier report\n"
    assert not built


def spy_on_spanning_tree(monkeypatch):
    """The argument tuples of every spanning_tree call, wherever a module of
    the package looks it up."""
    real = graph_mod.spanning_tree
    calls = []

    def spy(*args):
        calls.append(args)
        return real(*args)

    for name, mod in list(sys.modules.items()):
        if name.startswith("treelift") and getattr(mod, "spanning_tree", None) is real:
            monkeypatch.setattr(mod, "spanning_tree", spy)
    return calls


@pytest.mark.parametrize(
    "argv,status,instances",
    [
        (["analyze", "{base}", "--pairs", "sample:50", "--seed", 1], 0, 1),
        (["analyze", "{base}", "--tree", "dfs", "--root", 3, "--format", "csv"], 0, 1),
        (["verify", "--instances", "k4,petersen", "--random-count", 1, "--random-spec", "random:8:3",
          "--girth-min", 3, "--oracle-pairs", 50], 0, 3),
        (["verify", "--fault-inject", "--pairs", "sample:200", "--seed", 1, "--oracle-pairs", 100], 1, 1),
    ],
    ids=["analyze sampled", "analyze dfs csv", "verify", "verify fault-inject"],
)
def test_one_spanning_tree_per_analysis(tmp_path, monkeypatch, argv, status, instances):
    base = tmp_path / "p.txt"
    run(["gen", "--family", "petersen", "-o", base])
    calls = spy_on_spanning_tree(monkeypatch)
    argv = [base if a == "{base}" else a for a in argv]
    assert run([*argv, "-o", tmp_path / "r.out"]) == status
    assert len(calls) == instances


def test_the_flip_masks_are_built_once_per_analysis(tmp_path, monkeypatch):
    base = tmp_path / "p.txt"
    run(["gen", "--family", "petersen", "-o", base])
    real = lift_mod._flip_masks
    calls = []
    monkeypatch.setattr(lift_mod, "_flip_masks", lambda s: calls.append(s) or real(s))
    assert run(["analyze", base, "-o", tmp_path / "r.json"]) == 0
    assert calls == [6]
