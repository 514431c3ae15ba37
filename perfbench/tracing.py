"""Spans around treelift's public functions, installed from outside the package.

Each boundary is a function (or, for ``graph.Graph``, a class) of the package.
The tracer replaces every module attribute through which a caller looks the
function up with a wrapper that records one span per call: name, start, end,
parent span and operation id.  Spans are kept in flat arrays and written out
once, at the end of a run.  No file of the package is edited.
"""

from __future__ import annotations

import gzip
import resource
import sys
from array import array
from time import perf_counter

#: (span name, module defining it, attribute, modules wrapped or None for
#: every loaded treelift module that binds the same object)
BOUNDARIES = (
    ("cli.main", "cli", "main", None),
    ("report.run_analysis", "report", "run_analysis", None),
    ("report.run_verify_instance", "report", "run_verify_instance", None),
    ("report.to_json_bytes", "report", "to_json_bytes", None),
    ("families.make", "families", "make", None),
    ("lift.build_lift", "lift", "build_lift", None),
    ("lift.representative_tables", "lift", "representative_tables", None),
    ("lift.bfs_lifted", "lift", "bfs_lifted", None),
    ("lift.lifted_girth", "lift", "lifted_girth", None),
    ("lift.lifted_diameter", "lift", "lifted_diameter", None),
    ("lift.diameter_witness", "lift", "diameter_witness", None),
    ("lift.sample_pair_list", "lift", "sample_pair_list", None),
    ("embedding.embed", "embedding", "embed", None),
    ("embedding.distortion", "embedding", "distortion", None),
    ("sweeps.verdict_sweep", "sweeps", "verdict_sweep", None),
    ("sweeps.cut_partition_check", "sweeps", "cut_partition_check", None),
    ("sweeps.degree_preservation_check", "sweeps", "degree_preservation_check", None),
    ("sweeps.oracle_equivalence_checks", "sweeps", "oracle_equivalence_checks", None),
    ("walks.shortest_lifted_path", "walks", "shortest_lifted_path", None),
    ("walks.analyze", "walks", "analyze", None),
    ("walks.verify_all", "walks", "verify_all", None),
    ("graph.bridges_and_2ecc", "graph", "bridges_and_2ecc", None),
    # only the induced subgraphs of walks.analyze, not every Graph built
    ("graph.Graph", "graph", "Graph", ("walks",)),
)

#: boundaries whose calls also record the growth of the process's peak RSS;
#: getrusage is a system call, too costly for the per-pair boundaries
RSS_TRACKED = frozenset(
    {
        "lift.representative_tables",
        "lift.sample_pair_list",
        "embedding.embed",
        "sweeps.verdict_sweep",
    }
)


def _maxrss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Records spans while installed; ``op`` is set by the caller per operation."""

    def __init__(self):
        self.names = [name for name, *_ in BOUNDARIES]
        self.name_idx = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self.rss_kb = {}  # span name -> largest peak-RSS growth of one call
        self.op = -1
        self.problems = set()  # boundaries that could not be wrapped
        self._stack = [-1]
        self._undo = []

    def _wrap(self, fn, idx):
        name_idx, start, end, parent, op_id = (
            self.name_idx, self.start, self.end, self.parent, self.op_id,
        )
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            sid = len(start)
            name_idx.append(idx)
            parent.append(stack[-1])
            op_id.append(tracer.op)
            end.append(0.0)
            stack.append(sid)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()

        if self.names[idx] not in RSS_TRACKED:
            return traced
        name = self.names[idx]
        rss_kb = self.rss_kb

        def traced_rss(*args, **kwargs):
            before = _maxrss_kb()
            try:
                return traced(*args, **kwargs)
            finally:
                grown = _maxrss_kb() - before
                if grown > rss_kb.get(name, -1):
                    rss_kb[name] = grown

        return traced_rss

    def install(self):
        """Wrap every boundary where the package looks it up."""
        modules = {
            key[len("treelift."):]: mod
            for key, mod in sys.modules.items()
            if key.startswith("treelift.") and mod is not None
        }
        for idx, (name, home, attr, only) in enumerate(BOUNDARIES):
            fn = getattr(modules.get(home), attr, None)
            if fn is None:
                self.problems.add(f"{name}: treelift.{home}.{attr} does not exist")
                continue
            wrapper = self._wrap(fn, idx)
            for mod_name in only or sorted(modules):
                mod = modules.get(mod_name)
                if mod is None or getattr(mod, attr, None) is not fn:
                    if only:
                        self.problems.add(f"{name}: treelift.{mod_name} does not look up {attr}")
                    continue
                setattr(mod, attr, wrapper)
                self._undo.append((mod, attr, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._undo):
            setattr(mod, attr, fn)
        self._undo.clear()

    def summary(self):
        """Per span name: total and self seconds, calls, largest RSS growth (MB)."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"s": 0.0, "self_s": 0.0, "calls": 0} for name in self.names}
        for i in range(n):
            agg = out[self.names[self.name_idx[i]]]
            agg["s"] += dur[i]
            agg["self_s"] += dur[i] - child[i]
            agg["calls"] += 1
        for name, agg in out.items():
            agg["rss_mb"] = self.rss_kb.get(name, 0) / 1024
        return out

    def write(self, path, t0):
        """All spans as gzip'd TSV; times in seconds from ``t0``."""
        with gzip.open(path, "wt", compresslevel=1, newline="\n") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\top\n")
            names = self.names
            fh.writelines(
                f"{i}\t{names[self.name_idx[i]]}\t{self.start[i] - t0:.7f}\t"
                f"{self.end[i] - t0:.7f}\t{self.parent[i]}\t{self.op_id[i]}\n"
                for i in range(len(self.start))
            )
