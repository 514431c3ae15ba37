"""Seeded no-traceback fuzz of the command line.

About 200 edge lists and option mixes go through ``cli.main`` as ``gen``,
``analyze`` and ``lift`` commands: well-formed graphs, tiny and dense ones,
disconnected ones, self-loops, duplicate edges, endpoints out of range, bad
headers and bad lines, with trees, roots, pair policies, seeds, formats and
outputs drawn alongside.  About 60 more option mixes go through ``verify``:
small named, cycle and complete instances and bad instance strings, random
specs good and bad with few tries and girth floors of 3 to 6, every pair
policy, oracle pair counts, the fault injection and both trees.  Every lift
is capped at 4,096 vertices.  Each run must end in a verdict (0 or 1) or a
refusal (2), never in an internal error (3).
"""

import random

import pytest

from treelift.cli import EXIT_INTERNAL, main

CAP = "4096"


def graph_text(rng):
    """One edge-list file's text, the shape it was drawn as and its vertex count."""
    shape = rng.choice(
        ("sparse",) * 6 + ("tree", "cycle", "cycle", "dense", "dense", "tiny")
        + ("disconnected", "loop", "duplicate", "out of range", "bad header", "bad line", "short body")
    )
    n = rng.randrange(2, 9)
    if shape == "tiny":
        n = rng.randrange(0, 3)
        pairs = [(0, 1)] if n == 2 and rng.random() < 0.5 else []
    elif shape == "tree":
        pairs = [(rng.randrange(v), v) for v in range(1, n)]
    elif shape == "cycle":
        pairs = [(v, (v + 1) % n) for v in range(n)] if n >= 3 else [(0, 1)]
    elif shape == "dense":
        n = rng.randrange(4, 7)  # K6 lifts to 6 * 2^10 vertices, past the cap
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    elif shape == "disconnected":
        # a triangle beside a path: n - 1 edges, so the header check lets it through
        n = rng.randrange(5, 9)
        pairs = [(0, 1), (1, 2), (0, 2)] + [(v - 1, v) for v in range(4, n)]
    else:
        pairs = [(rng.randrange(v), v) for v in range(1, n)]
        pairs += [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.15]
        pairs = list(dict.fromkeys(pairs))
    pairs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
    rng.shuffle(pairs)
    if shape == "loop":
        pairs.insert(rng.randrange(len(pairs) + 1), (v := rng.randrange(n), v))
    elif shape == "duplicate" and pairs:
        u, v = rng.choice(pairs)
        pairs.append((v, u) if rng.random() < 0.5 else (u, v))
    elif shape == "out of range":
        pairs.append((rng.randrange(n), rng.choice((n, n + 3, -1))))
    lines = [f"{n} {len(pairs)}"] + [f"{u} {v}" for u, v in pairs]
    if shape == "bad header":
        lines[0] = rng.choice(("", "x y", f"{n}", f"{n} {len(pairs)} 1", f"-1 {len(pairs)}",
                               f"{n} -2", f"{n}.0 {len(pairs)}"))
    elif shape == "bad line" and len(lines) > 1:
        lines[rng.randrange(1, len(lines))] = rng.choice(("0", "0 1 2", "a b", "0 x", "1.5 2"))
    elif shape == "short body" and len(lines) > 1:
        lines.pop()
    if rng.random() < 0.2:
        lines.insert(rng.randrange(1, len(lines) + 1), "# a comment")
    return "\n".join(lines) + "\n", shape, n


def tree_options(rng, n):
    options = []
    if rng.random() < 0.5:
        options += ["--tree", rng.choice(("bfs", "dfs"))]
    if rng.random() < 0.3:
        options += ["--root", str(rng.choice((0, n - 1, n - 1, n, -1)))]
    return options


def analyze_argv(rng, path, n, out):
    argv = ["analyze", path, "--max-vertices", CAP, *tree_options(rng, n)]
    policy = rng.choice(("auto",) * 4 + ("exhaustive", "sample:1", "sample:25", "sample:0", "sample:x", "some"))
    argv += ["--pairs", policy]
    if rng.random() < 0.9:
        argv += ["--seed", str(rng.randrange(100))]
    if rng.random() < 0.5:
        argv += ["--format", rng.choice(("json", "csv"))]
    return argv + ["-o", out]


def lift_argv(rng, path, n, out):
    argv = ["lift", path, "-o", out, "--max-vertices", rng.choice((CAP, "64", "1")), *tree_options(rng, n)]
    if rng.random() < 0.4:
        argv += ["--mapping", out + ".map"]
    return argv


def gen_argv(rng, out):
    family = rng.choice(
        ("cycle:3", "cycle:7", "cycle:2", "cycle:-3", "complete:4", "complete:1", "k4", "petersen",
         "random:8:3", "random:10:3", "random:7:3", "random:4:5", "random:x:3", "nonsense")
    )
    argv = ["gen", "--family", family, "-o", out]
    if rng.random() < 0.6:
        argv += ["--girth-min", str(rng.randrange(3, 7)), "--seed", str(rng.randrange(50))]
    return argv + ["--max-tries", str(rng.choice((1, 5, 30)))]


def verify_argv(rng, out):
    good = ("k4", "petersen", *(f"cycle:{n}" for n in range(3, 10)), "complete:4", "complete:5")
    bad = ("nonsense", "cycle:2", "complete:x", "petersen:3", "mcgee", "random:8:3:1", "")
    picks = rng.sample(good, rng.randrange(1, 3))
    if rng.random() < 0.15:
        picks.insert(rng.randrange(len(picks) + 1), rng.choice(bad))
    argv = ["verify", "--instances", ",".join(picks), "--max-vertices", CAP]
    if rng.random() < 0.15:
        spec = rng.choice(("random:x:3", "random:8", "cycle:5", "random:7:3", "random:-4:3", "random:6:9"))
    elif rng.random() < 0.6:
        spec = f"random:{rng.choice((4, 6, 8, 10))}:3"
    else:
        spec = f"random:{rng.choice((5, 6, 7))}:4"
    argv += ["--random-spec", spec, "--random-count", str(rng.choice((0, 0, 1, 2)))]
    argv += ["--girth-min", str(rng.randrange(3, 7)), "--max-tries", str(rng.choice((1, 3, 10)))]
    if rng.random() < 0.15:
        policy = rng.choice(("sample:0", "sample:x", "some"))
    else:
        policy = rng.choice(("auto", "auto", "exhaustive", "sample:1", "sample:40", "sample:300"))
    argv += ["--pairs", policy, "--oracle-pairs", str(rng.randrange(301)), "--seed", str(rng.randrange(50))]
    if rng.random() < 0.5:
        argv += ["--tree", rng.choice(("bfs", "dfs"))]
    if rng.random() < 0.15:
        argv.append("--fault-inject")
    if rng.random() < 0.5:
        argv += ["-o", out]
    return argv


def exit_status(capsys, argv, *context):
    """``cli.main``'s exit status on ``argv``, which must be a verdict or a
    refusal; ``context`` is shown if it is not."""
    status = main(argv)
    err = capsys.readouterr().err
    assert status in (0, 1, 2) and status != EXIT_INTERNAL, (*context, argv, err)
    assert "Traceback" not in err, (*context, argv, err)
    return status


@pytest.mark.parametrize("seed", range(4))
def test_no_input_or_option_mix_ends_in_an_internal_error(tmp_path, capsys, seed):
    rng = random.Random(3600 + seed)
    statuses = set()
    for case in range(50):
        text, shape, n = graph_text(rng)
        path = tmp_path / f"g{case}.txt"
        path.write_text(text)
        out = str(tmp_path / f"out{case}")
        command = rng.choice(("analyze", "analyze", "lift", "gen"))
        if command == "analyze":
            argv = analyze_argv(rng, str(path), n, out)
        elif command == "lift":
            argv = lift_argv(rng, str(path), n, out)
        else:
            argv = gen_argv(rng, out)
        statuses.add(exit_status(capsys, argv, shape, text))
    assert statuses >= {0, 2}


@pytest.mark.parametrize("seed", range(3))
def test_no_verify_option_mix_ends_in_an_internal_error(tmp_path, capsys, seed):
    rng = random.Random(3700 + seed)
    statuses = {exit_status(capsys, verify_argv(rng, str(tmp_path / f"v{case}.json"))) for case in range(20)}
    assert statuses >= {0, 2}
