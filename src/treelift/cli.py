"""Command-line front end: generation, lifting, analysis and verification.

Exit codes: 0 success, 1 verdict failure, 2 usage or input error, 3 internal
error (an unexpected exception, i.e. a bug; its traceback goes to stderr).
Identical configurations (including seeds) produce byte-identical report
files; nothing time- or host-dependent is ever written.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import stat
import sys
import traceback

from .families import FORMS, check_spec, make, order_and_size, parse_family
from .graph import GraphError, diameter, girth, load_edge_list, save_edge_list, spanning_tree
from .lift import (
    DEFAULT_MAX_VERTICES,
    build_lift,
    check_lift_order,
    lift_edge_list_text,
    lift_mapping_text,
)
from .report import (
    CSV_HEADER,
    base_block,
    check_analysis,
    run_analysis,
    run_verify_instance,
    to_json_bytes,
)

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

#: the named-graph matrix every default verify run covers
DEFAULT_MATRIX = "k4,cycle:3,cycle:4,cycle:5,cycle:6,cycle:7,cycle:8,petersen,heawood"
ENV_MAX_VERTICES = "TREELIFT_MAX_VERTICES"


def int_at_least(low):
    """argparse type for counts and caps: an integer >= low."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


positive_int = int_at_least(1)
nonnegative_int = int_at_least(0)


def default_cap():
    value = os.environ.get(ENV_MAX_VERTICES)
    if value is None:
        return DEFAULT_MAX_VERTICES
    try:
        return positive_int(value)
    except argparse.ArgumentTypeError as exc:
        raise GraphError(f"{ENV_MAX_VERTICES}: {exc}") from None


def parse_pairs_arg(text):
    """The pair policy of --pairs: "auto", "exhaustive" or the COUNT of
    sample:COUNT (at least 1); ``report.check_analysis`` resolves it."""
    if text in ("auto", "exhaustive"):
        return text
    count = text.removeprefix("sample:")
    if count != text and count.isascii() and count.isdigit() and int(count) >= 1:
        return int(count)
    raise GraphError(f"bad --pairs value {text!r}: expected auto, exhaustive or sample:COUNT")


@contextlib.contextmanager
def output(path):
    """The open text stream of an output: stdout if ``path`` is None.

    A new file, or a regular file with no other hard link, is written under a
    temporary name beside ``path`` with the old file's permission bits,
    renamed onto it when the block finishes and removed if the block raises,
    so a failed run leaves no partial file.  Anything else at ``path`` (a
    symlink, a device, a FIFO, a hard-linked file, a file in a directory
    this process cannot write) is opened and written in place, so it stays
    what it is.  A regular file there is cut at the end of what was written
    when the block ends, unless it raises before its first write, so a run
    refused before it writes leaves the file as it was.  Either way the
    output is opened on entry, so a missing directory fails there.
    """
    if path is None:
        yield sys.stdout
        return
    try:
        old = os.lstat(path)
    except FileNotFoundError:
        old = None
    head, tail = os.path.split(path)
    if old is not None and not (
        stat.S_ISREG(old.st_mode) and old.st_nlink == 1 and os.access(head or ".", os.W_OK)
    ):
        # no O_TRUNC: "w" would empty the file before the block could refuse
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "w", encoding="utf-8", newline="\n") as fh:
            finished = False
            try:
                yield fh
                finished = True
            finally:
                if stat.S_ISREG(os.fstat(fh.fileno()).st_mode) and (finished or fh.tell()):
                    fh.truncate()
        return
    temp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        fh = open(temp, "x", encoding="utf-8", newline="\n")
    except OSError as exc:  # name the output, not its temporary file
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with fh:
            if old is not None:
                os.fchmod(fh.fileno(), stat.S_IMODE(old.st_mode))
            yield fh
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temp)
        raise


def write_text(out, blocks):
    """Write the text ``blocks`` one after another to ``out``, an open
    ``output``: the one writer of every output, which never joins its blocks."""
    out.writelines(blocks)


def cmd_gen(args):
    spec = parse_family(args.family)
    if spec.kind == "random_regular":
        spec = dataclasses.replace(
            spec, girth_min=args.girth_min, seed=args.seed, max_tries=args.max_tries
        )
    elif args.seed or args.girth_min != 3:
        print("note: --seed/--girth-min only apply to random families", file=sys.stderr)
    g = make(spec)
    save_edge_list(g, args.output)
    base = base_block(g, girth(g), diameter(g))
    print(
        f"{spec.describe()}: n={g.n} m={g.m} girth={base['girth']} diameter={base['diameter']} "
        f"girth/diameter={base['girth_diameter_ratio']} ({base['girth_diameter_ratio_decimal']})"
    )
    return EXIT_OK


def cmd_lift(args):
    td = spanning_tree(load_edge_list(args.input), args.tree, args.root)
    lg = build_lift(td, max_vertices=args.max_vertices)
    # both outputs are opened before either is written, so a mapping that
    # cannot be opened stops the run before the edge list file is replaced
    with (
        output(args.output) as out,
        output(args.mapping) if args.mapping else contextlib.nullcontext() as mapping,
    ):
        write_text(out, lift_edge_list_text(lg))
        if mapping:
            write_text(mapping, lift_mapping_text(lg))
    print(
        f"lift: {lg.num_vertices} vertices, {lg.num_edges} edges, "
        f"{lg.s} label coordinates (tree={args.tree}, root={args.root})"
    )
    return EXIT_OK


def cmd_analyze(args):
    g = load_edge_list(args.input)
    pairs = parse_pairs_arg(args.pairs)
    td = spanning_tree(g, args.tree, args.root)
    # every refusal before the output is opened, so an output written in
    # place keeps its bytes; a bad output is then refused before the lift
    check_analysis(td, args.max_vertices, pairs, args.seed)
    with output(args.output) as out:
        emit_csv = None
        if args.format == "csv":
            write_text(out, [CSV_HEADER])
            # each line goes out as the sweep finishes it
            emit_csv = lambda line: write_text(out, (line,))
        ctx = run_analysis(
            td,
            max_vertices=args.max_vertices,
            pairs=pairs,
            seed=args.seed,
            emit_csv=emit_csv,
        )
        report = ctx.report
        report["config"]["input"] = args.input
        report["schema"] = "treelift-report-v4"
        if args.format == "json":
            write_text(out, [to_json_bytes(report).decode("ascii")])
    summary = "PASS" if report["all_pass"] else "FAIL"
    print(
        f"analyze {args.input}: {summary} "
        f"(distortion={report['embedding'].get('distortion', 'error')}, "
        f"bound={report['bound'].get('value', 'n/a')}, "
        f"pairs={report['verdict_sweep']['pairs_covered']})",
        file=sys.stderr,
    )
    return EXIT_OK if report["all_pass"] else EXIT_VERDICT


def instance_graphs(args):
    """(label, spanning tree, fault) triples for the verify battery.

    Every label and the random spec are checked, and every lift size held
    against --max-vertices, before the first random graph is generated; then
    every graph is built, so bad input, an ungenerable random graph included,
    exits 2 before the output is opened and before any instance has run.
    """
    base = parse_family(args.random_spec)
    if base.kind != "random_regular":
        raise GraphError(f"bad --random-spec value {args.random_spec!r}: expected random:N:K")
    base = dataclasses.replace(base, girth_min=args.girth_min, max_tries=args.max_tries)
    check_spec(base)
    if args.fault_inject:
        g = make(parse_family("petersen"))
        check_lift_order(g.n, g.m, args.max_vertices, "the lift of petersen[fault]")
        td = spanning_tree(g, args.tree, 0)
        # corrupt one matching: the coordinate-0 cotree edge additionally
        # flips coordinate 1, so its fiber crosses two cuts
        fault = (td.cotree[0], 1 << 1)
        return [("petersen[fault]", td, fault)]
    specs = [(label, parse_family(label)) for label in args.instances.split(",")]
    for _, spec in specs:
        check_spec(spec)
    for i in range(args.random_count):
        spec = dataclasses.replace(base, seed=args.seed + i)
        specs.append((spec.describe(), spec))
    for label, spec in specs:
        check_lift_order(*order_and_size(spec), args.max_vertices, f"the lift of {label}")
    return [(label, spanning_tree(make(spec), args.tree, 0), None) for label, spec in specs]


def cmd_verify(args):
    pairs = parse_pairs_arg(args.pairs)
    battery = instance_graphs(args)  # every instance is built before the output is opened
    with (output(args.output) if args.output else contextlib.nullcontext()) as out:
        instances = []
        all_pass = True
        for label, td, fault in battery:
            # only the report is kept: the instance's lift, tables and sweep
            # are freed before the next instance is built
            inst = run_verify_instance(
                label,
                td,
                max_vertices=args.max_vertices,
                pairs=pairs,
                seed=args.seed,
                oracle_pairs=args.oracle_pairs,
                fault=fault,
            ).report
            instances.append(inst)
            ok = inst["all_pass"]
            all_pass &= ok
            detail = ""
            if not ok:
                failing = [
                    name
                    for name, block in inst.get("checks", {}).items()
                    if not block["pass"]
                ]
                if not inst["verdict_sweep"]["all_pass"]:
                    failing.append("verdict_sweep")
                if not inst["bound"]["distortion_within_bound"]:
                    failing.append("bound")
                detail = f" ({', '.join(failing)})" if failing else ""
            print(f"{'PASS' if ok else 'FAIL'} {label}{detail}")
        report = {
            "schema": "treelift-verify-v4",
            "config": {
                "pair_policy_arg": args.pairs,
                "seed": args.seed,
                "instances": args.instances,
                "random_spec": args.random_spec,
                "random_count": args.random_count,
                "girth_min": args.girth_min,
                "oracle_pairs": args.oracle_pairs,
                "fault_inject": args.fault_inject,
                "tree_strategy": args.tree,
                "max_vertices": args.max_vertices,
            },
            "instances": instances,
            "all_pass": all_pass,
        }
        if out is not None:
            write_text(out, [to_json_bytes(report).decode("ascii")])
    print(f"verify: {'PASS' if all_pass else 'FAIL'} ({len(instances)} instances)")
    return EXIT_OK if all_pass else EXIT_VERDICT


def build_parser():
    parser = argparse.ArgumentParser(
        prog="treelift",
        description=(
            "Build spanning-tree lifts of graphs over {0,1}^S, embed them into "
            "l1 via edge cuts, measure distortion exactly, and verify the "
            "structural invariants of shortest-path projections."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    cap = default_cap()

    p = sub.add_parser("gen", help="generate a base graph as an edge-list file")
    p.add_argument("--family", required=True, help="|".join(FORMS))
    p.add_argument("--girth-min", type=int, default=3, help="girth floor for random families")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-tries", type=positive_int, default=10_000)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("lift", help="materialize the lift of an edge-list file")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--mapping", help="sidecar file: lifted_id base_vertex label_bits")
    p.add_argument("--tree", choices=("bfs", "dfs"), default="bfs")
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--max-vertices", type=positive_int, default=cap)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("analyze", help="lift, embed, measure distortion, sweep verdicts")
    p.add_argument("input")
    p.add_argument("-o", "--output", help="report file (stdout if omitted)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--tree", choices=("bfs", "dfs"), default="bfs")
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--pairs", default="auto", help="verdict sweep pairs: auto|exhaustive|sample:COUNT")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-vertices", type=positive_int, default=cap)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="run the property battery over an instance matrix")
    p.add_argument("-o", "--output", help="JSON report file")
    p.add_argument("--pairs", default="auto", help="verdict sweep pairs: auto|exhaustive|sample:COUNT")
    p.add_argument(
        "--seed", type=int, default=0,
        help="seed of the sampled pairs and the oracle; random instance i uses SEED+i",
    )
    p.add_argument(
        "--instances", default=DEFAULT_MATRIX,
        help="comma-separated families: " + "|".join(FORMS),
    )
    p.add_argument("--random-spec", default="random:20:3", help="random:N:K family of the random instances")
    p.add_argument("--random-count", type=nonnegative_int, default=3, help="number of random instances")
    p.add_argument("--girth-min", type=int, default=5, help="girth floor for the random instances")
    p.add_argument(
        "--max-tries", type=positive_int, default=10_000,
        help="generation attempts per random instance before giving up",
    )
    p.add_argument(
        "--oracle-pairs", type=nonnegative_int, default=2_000,
        help="seeded random pairs cross-checked against the direct-search oracles",
    )
    p.add_argument("--tree", choices=("bfs", "dfs"), default="bfs")
    p.add_argument("--max-vertices", type=positive_int, default=cap)
    p.add_argument("--fault-inject", action="store_true", help="sabotage one matching bit; the battery must fail")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        return args.func(args)
    except (GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a bug: keep it apart from verdict failures (1)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
