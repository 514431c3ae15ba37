import dataclasses
import json

import pytest

import treelift.cli as cli
import treelift.graph as graph_mod
import treelift.report as report_mod
from treelift.cli import main


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


def test_analyze_json_report_contents(tmp_path):
    base = tmp_path / "c8.txt"
    run(["gen", "--family", "cycle:8", "-o", base])
    report_path = tmp_path / "r.json"
    assert run(["analyze", base, "-o", report_path]) == 0
    report = json.loads(report_path.read_text())
    assert report["schema"] == "treelift-report-v2"
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
    # the 15 base edges each carry one whole orbit of 2^6 lifted edges
    assert sum(row[5] == "1" for row in rows) == 15
    assert all(row[4] == "64" for row in rows if row[5] == "1")


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

    def corrupted(lg, table):
        tables = real(lg, table)
        row = list(tables.rows[0])
        row[row.index(max(row))] += 3
        return dataclasses.replace(tables, rows=(row, *tables.rows[1:]))

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
    ],
)
def test_verify_checks_every_instance_before_the_first_runs(tmp_path, capsys, args, message):
    out = tmp_path / "v.json"
    assert run(["verify", *args, "-o", out]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "PASS" not in captured.out and "FAIL" not in captured.out
    assert not out.exists()


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


@pytest.mark.parametrize(
    "value", ["samplez", "samples", "sample_1", "sample:", "sample:1:2", "sample:²", "exhaustively"]
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
