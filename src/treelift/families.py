"""Base graph families: named high-girth graphs shipped as golden edge lists,
simple parametric families, and a seeded random regular generator with a girth
floor.
"""

from __future__ import annotations

import os
import random
from typing import NamedTuple

from .graph import Graph, GraphError, girth, is_connected, parse_edge_list

NAMED = ("petersen", "heawood", "mcgee", "pappus", "tutte_coxeter", "robertson", "k4")
#: every family string ``parse_family`` accepts, by form
FORMS = (*NAMED, "cycle:N", "complete:N", "random:N:K")
#: the directory of the shipped edge lists, beside this module
DATA = os.path.join(os.path.dirname(__file__), "data")


class FamilySpec(NamedTuple):
    """Which base graph to build.

    kind is one of "cycle", "complete", "named", "random_regular"; the other
    fields are meaningful per kind.
    """

    kind: str
    n: int = 0
    name: str = ""
    k: int = 0
    girth_min: int = 3
    seed: int = 0
    max_tries: int = 10_000

    @staticmethod
    def cycle(n):
        return FamilySpec(kind="cycle", n=n)

    @staticmethod
    def complete(n):
        return FamilySpec(kind="complete", n=n)

    @staticmethod
    def named(name):
        return FamilySpec(kind="named", name=name)

    @staticmethod
    def random_regular(n, k, girth_min=3, seed=0, max_tries=10_000):
        return FamilySpec(
            kind="random_regular", n=n, k=k, girth_min=girth_min, seed=seed, max_tries=max_tries
        )

    def describe(self):
        if self.kind == "cycle":
            return f"cycle:{self.n}"
        if self.kind == "complete":
            return f"complete:{self.n}"
        if self.kind == "named":
            return self.name
        return f"random:{self.n}:{self.k}(girth_min={self.girth_min},seed={self.seed})"


def parse_family(text):
    """Parse a CLI family string: a named graph, cycle:N, complete:N or random:N:K."""
    parts = text.split(":")
    head = parts[0]
    if head in NAMED:
        if len(parts) != 1:
            raise GraphError(f"named family {head!r} takes no parameters")
        return FamilySpec.named(head)
    try:
        if head == "cycle" and len(parts) == 2:
            return FamilySpec.cycle(int(parts[1]))
        if head == "complete" and len(parts) == 2:
            return FamilySpec.complete(int(parts[1]))
        if head == "random" and len(parts) == 3:
            return FamilySpec.random_regular(int(parts[1]), int(parts[2]))
    except ValueError:
        raise GraphError(f"bad family parameters in {text!r}") from None
    raise GraphError(f"unknown family {text!r}: expected one of {', '.join(FORMS)}")


def load_named(name):
    """Load a named graph from its golden edge-list data file."""
    if name not in NAMED:
        raise GraphError(f"unknown named graph {name!r}")
    with open(os.path.join(DATA, f"{name}.txt"), encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def check_spec(spec):
    """Raise GraphError unless a FamilySpec's parameters describe a graph.

    Builds nothing, so a batch of specs can be vetted before any is built;
    only a random family can still fail later, by exhausting its tries.
    """
    if spec.kind in ("cycle", "complete"):
        if spec.n < 3:
            raise GraphError(f"{spec.kind} needs n >= 3, got {spec.n}")
    elif spec.kind == "named":
        if spec.name not in NAMED:
            raise GraphError(f"unknown named graph {spec.name!r}")
    elif spec.kind == "random_regular":
        _check_random_regular(spec.n, spec.k, spec.girth_min)
    else:
        raise GraphError(f"unknown family kind {spec.kind!r}")


def order_and_size(spec):
    """(n, m) of the graph a checked FamilySpec describes, without building
    it; only a named graph is read, from its data file."""
    if spec.kind == "cycle":
        return spec.n, spec.n
    if spec.kind == "complete":
        return spec.n, spec.n * (spec.n - 1) // 2
    if spec.kind == "random_regular":
        return spec.n, spec.n * spec.k // 2
    g = load_named(spec.name)
    return g.n, g.m


def make(spec):
    """Build the graph described by a FamilySpec."""
    check_spec(spec)
    if spec.kind == "cycle":
        return Graph(spec.n, [(i, (i + 1) % spec.n) for i in range(spec.n)])
    if spec.kind == "complete":
        return Graph(spec.n, [(u, v) for u in range(spec.n) for v in range(u + 1, spec.n)])
    if spec.kind == "named":
        return load_named(spec.name)
    return random_regular(spec.n, spec.k, spec.girth_min, spec.seed, spec.max_tries)


def _check_random_regular(n, k, girth_min):
    if k < 3:
        raise GraphError(f"degree must be >= 3, got {k}")
    if n <= k:
        raise GraphError(f"need n > k, got n={n}, k={k}")
    if (n * k) % 2 != 0:
        raise GraphError(f"n*k must be even, got n={n}, k={k}")
    if girth_min < 3:
        raise GraphError(f"girth_min must be >= 3, got {girth_min}")


def random_regular(n, k, girth_min=3, seed=0, max_tries=10_000):
    """Random simple connected k-regular graph with girth >= girth_min.

    Configuration (pairing) model with rejection: resample on self-loop,
    parallel edge, disconnection or girth violation.  Reproducible from seed;
    raises GraphError once max_tries attempts are exhausted rather than
    returning a weaker graph.

    Each attempt pairs the stubs at positions (0, 1), (2, 3), ... of one
    shuffle.  The shuffle is ``random.shuffle``'s, with its draws made here:
    for positions i = nk - 1 down to 1, j = ``getrandbits((i +
    1).bit_length())``, drawn again while j > i, then swap i and j.  Positions
    i and up are then final, so the pair at (i, i + 1), i even, is finished
    (and (0, 1) after i = 1).  Once a finished pair is a loop or repeats one
    finished before it, the attempt is lost: the swaps stop, but the rest of
    its draws are still made, so every attempt starts from the RNG state a
    whole shuffle would leave, and each seed gives the graph
    ``random.shuffle`` gives.
    """
    _check_random_regular(n, k, girth_min)
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    ordered = [v for v in range(n) for _ in range(k)]
    steps = [(i, (i + 1).bit_length()) for i in range(len(ordered) - 1, 0, -1)]
    for attempt in range(max_tries):
        stubs = ordered.copy()
        pairs = []  # the last pair first
        seen = set()
        ok = True
        for i, width in steps:
            j = getrandbits(width)
            while j > i:
                j = getrandbits(width)
            if ok:
                stubs[i], stubs[j] = stubs[j], stubs[i]
                if not i & 1 or i == 1:
                    u, v = stubs[i & -2], stubs[(i & -2) + 1]
                    key = (u, v) if u < v else (v, u)
                    if u == v or key in seen:
                        ok = False
                    else:
                        seen.add(key)
                        pairs.append(key)
        if ok:
            pairs.reverse()
            g = Graph(n, pairs)
            if is_connected(g) and girth(g) >= girth_min:
                return g
    raise GraphError(
        f"no {k}-regular graph on {n} vertices with girth >= {girth_min} "
        f"found in {max_tries} attempts (seed {seed})"
    )

