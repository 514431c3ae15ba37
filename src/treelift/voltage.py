"""Voltage algebra of the lift: automorphisms of the base lifted to the lift.

The lift is a voltage graph over Z_2^s: lifted edge e joins (u, f) and
(v, f ^ rule[e]).  Under the tree rule (tree edges carry 0 and cotree edge i
the unit vector e_i) it is the Z_2-homology cover of the base, so every
automorphism alpha of G lifts to an automorphism

    phi(u, f) = (alpha(u), A.f ^ p(u))

with A in GL(s, 2) and a potential p on the base vertices (Malnic, Nedela
and Skoviera, "Lifting graph automorphisms by voltage assignments",
European J. Combin. 21, 2000).  phi maps the lifted edge ((u, f), (v, f ^
rule[e])) to one whose label XOR is A.rule[e] ^ p(u) ^ p(v), so phi is an
automorphism exactly when, on every base edge e = (u, v),

    A.rule[e] ^ p(u) ^ p(v) == rule[alpha(e)]

and A is invertible (phi is then a bijection taking the m * 2^s lifted edges
into themselves).  The tree rule and the fundamental cycles are recorded once,
by ``spanning_tree`` (``TreeDecomposition.rule`` and ``.cycles``), and every
map here is ``linear``: the XOR of a list of vectors over the set bits of a
mask.  ``lift_automorphism`` solves the equation: on a tree edge rule[e] = 0,
so p(v) is the XOR of rule[alpha(e)] over the root path P(v), with p(root) =
0 (label translations supply every other constant); on the cotree edge c_i =
(a, b), rule[e] = e_i, so A's column i is rule[alpha(c_i)] ^ p(a) ^ p(b), the
XOR of rule[alpha(e)] over the fundamental cycle of c_i.  ``certify`` checks
the equation on all m edges and A's rank, recomputing nothing it checks.

The verdict sweep may reduce by these automorphisms only when
``symmetry_applies``: the lift's rule is the tree rule and every lifted edge
over base edge e flips exactly cut e of the embedding.  Then the l1 distance
of a pair is the number of base edges a path between them uses an odd number
of times, which phi carries to alpha's image of that set, and re-lifting a
walk by the tree rule is walking it, so the ``relift`` verdict cannot tell a
path from its image.  A fault lift fails the rule test and keeps the trivial
group.
"""

from __future__ import annotations

from typing import NamedTuple

from .graph import bfs_distances

#: work the automorphism search may do before it settles for the trivial
#: group, in candidate tests weighted by the assigned vertices each is
#: compared with (Tutte-Coxeter's 1440 automorphisms take about 2.5 million)
AUT_SEARCH_BUDGET = 4_000_000


class LiftedAutomorphism(NamedTuple):
    """phi(u, f) = (alpha[u], A.f ^ pot[u]); ``cols[i]`` is A.e_i."""

    alpha: tuple
    cols: tuple
    pot: tuple


def linear(values, mask):
    """The XOR of ``values[i]`` over the set bits i of ``mask``: over GF(2),
    the linear map whose columns are ``values``, applied to ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out ^= values[low.bit_length() - 1]
        mask ^= low
    return out


def base_automorphisms(g):
    """Aut(g) as vertex permutations, sorted, so the identity comes first.

    Backtracking over the vertices in BFS order: each vertex after the first
    of its component has an earlier neighbour, whose image's neighbours are
    its candidates.  A candidate must have the same distance profile (the
    sorted row of distances) and lie at the same distance from each assigned
    image as the vertex does from its preimage; distance 0 only to itself
    keeps the images distinct.  A complete assignment is then a
    distance-preserving bijection, so it maps edges (distance 1) onto edges:
    an automorphism.  Returns only the identity once the search has done
    ``AUT_SEARCH_BUDGET`` work.
    """
    n = g.n
    identity = [tuple(range(n))]
    if n == 0:
        return identity
    adj = [[w for w, _ in nbrs] for nbrs in g.adj]
    dist = [bfs_distances(g, v) for v in range(n)]
    profiles = {}
    kind = [profiles.setdefault(tuple(sorted(row)), len(profiles)) for row in dist]
    order = []
    via = [-2] * n  # earlier neighbour in the BFS order, -1 for a component's first
    for root in range(n):
        if via[root] == -2:
            via[root] = -1
            order.append(root)
            i = len(order) - 1
            while i < len(order):
                v = order[i]
                i += 1
                for w in adj[v]:
                    if via[w] == -2:
                        via[w] = v
                        order.append(w)
    image = [-1] * n
    found = []
    tested = 0

    def candidates(v):
        nonlocal tested
        pool = range(n) if via[v] < 0 else adj[image[via[v]]]
        placed = [(dist[t][v], image[t]) for t in order[: len(stack)]]
        tested += len(pool) * len(placed)
        return iter(
            [
                w
                for w in pool
                if kind[w] == kind[v] and all(d == dist[t][w] for d, t in placed)
            ]
        )

    stack = []  # candidates() reads its depth
    stack.append(candidates(order[0]))
    while stack:
        if tested > AUT_SEARCH_BUDGET:
            return identity
        w = next(stack[-1], None)
        if w is None:
            stack.pop()
            continue
        image[order[len(stack) - 1]] = w
        if len(stack) == n:
            found.append(tuple(image))
        else:
            stack.append(candidates(order[len(stack)]))
    return sorted(found)


def lift_automorphism(lg, alpha):
    """The lift of the base automorphism ``alpha``, with p(root) = 0."""
    g = lg.base
    mapped = [lg.rule[g.edge_between(alpha[u], alpha[v])] for u, v in g.edges]
    pot = tuple(linear(mapped, path) for path in lg.td.root_paths)
    cols = tuple(linear(mapped, cycle) for cycle in lg.td.cycles)
    return LiftedAutomorphism(tuple(alpha), cols, pot)


def gf2_rank(vectors):
    """Rank over GF(2) of integers read as bit vectors."""
    pivots = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


def certify(lg, phi):
    """True when ``phi`` is an automorphism of the lift: alpha permutes the
    base vertices and maps each base edge e = (u, v) to an edge alpha(e) with
    A.rule[e] ^ p(u) ^ p(v) == rule[alpha(e)], and A is invertible."""
    g = lg.base
    alpha, cols, pot = phi
    mask = lg.mask
    if sorted(alpha) != list(range(g.n)) or len(pot) != g.n or len(cols) != lg.s:
        return False
    if not all(0 <= c <= mask for c in (*cols, *pot)):
        return False
    for (u, v), r in zip(g.edges, lg.rule):
        eid = g.edge_between(alpha[u], alpha[v])
        if eid is None or linear(cols, r) ^ pot[u] ^ pot[v] != lg.rule[eid]:
            return False
    return gf2_rank(cols) == lg.s


def symmetry_applies(lg, table):
    """The lift's rule is the tree rule and the embedding flips exactly cut e
    across every lifted edge over e (``EmbeddingTable.edge_flips``)."""
    return lg.rule == lg.td.rule and all(
        flip == 1 << eid for eid, flip in enumerate(table.edge_flips)
    )


def lifted_group(lg, table):
    """The certified lifted automorphisms of ``lg``, identity first, one per
    automorphism of the base (translations are left to the caller).

    Only the identity when the lift fails ``symmetry_applies``, the
    automorphism search runs out of budget, or a lifted element fails its
    certificate.
    """
    n = lg.base.n
    identity = [LiftedAutomorphism(tuple(range(n)), tuple(1 << i for i in range(lg.s)), (0,) * n)]
    if not symmetry_applies(lg, table):
        return identity
    group = [lift_automorphism(lg, alpha) for alpha in base_automorphisms(lg.base)]
    if not all(certify(lg, phi) for phi in group):
        return identity
    return group
