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
by ``spanning_tree`` (``TreeDecomposition.rule`` and ``.cycles``).
``lift_automorphism`` solves the equation down the tree, with mapped[e] =
rule[alpha(e)]: on a tree edge rule[e] = 0, so p(v) = p(parent) ^
mapped[e] for the tree edge e from v's parent, taken parents first from
p(root) = 0 (label translations supply every other constant); on the cotree
edge c_i = (a, b), rule[e] = e_i, so A's column i is mapped[c_i] ^ p(a) ^
p(b).  That is O(m) per element, and it proves itself: whenever alpha maps
base edges to base edges, the recursion is the equation on every tree edge
and the column formula is the equation on every cotree edge.  A is then
invertible, because alpha permutes the cycle space and the tree rule's
voltage map is an isomorphism from that space onto Z_2^s.  So the one thing
left to certify at run time is that alpha is an automorphism, and the
search (``_transversals``) checks that on each coset representative it
keeps: every element is a product of representatives, and products of
automorphisms are automorphisms.  ``lifted_group`` lifts every element
of ``base_automorphisms`` down the tree, one at a time, reading
rule[alpha(e)] for each edge e = (u, v) as ``rule[edge_ids[alpha(u) * n +
alpha(v)]]`` (``LiftedGraph.edge_ids``), and ``GroupOrbits.images`` is the
one place an element acts on a pair of lifted vertices.  It applies the
elements that can take an end of the pair to its orbit's source all at
once, each in its own lane of one int: the lanes are the w-bit items of one
``array`` (w the smallest of 8, 16, 32 and 64 that holds an encoded
vertex), whose bytes are read as one int in the host's byte order.  XOR
acts byte by byte, so it never mixes two lanes, and the same ``array``
reads them back out (see ``GroupOrbits``).

The verdict sweep may reduce by these automorphisms only when
``symmetry_applies``: the lift's rule is the tree rule.  Every lifted edge
over base edge e then flips exactly cut e of the embedding, by construction
and for every base, tree and root: with P the root paths, the flip over the
tree edge e = (u, v) is P(u) ^ P(v) = {e}, and over the cotree edge c_i =
(a, b) it is P(a) ^ P(b) ^ td.cycles[i] = {c_i} (the embedding's ``flip``
term cancels in both).  So the l1 distance of a pair is the number of base
edges a path between them uses an odd number of times, which phi carries to
alpha's image of that set, and re-lifting a walk by the tree rule is walking
it, so the ``relift`` verdict cannot tell a path from its image.  A fault
lift fails the rule test and keeps the trivial group.
"""

from __future__ import annotations

import math
import sys
from array import array
from operator import itemgetter
from typing import NamedTuple

from .graph import bfs_distances

#: work the automorphism search may do before it settles for the trivial
#: group: candidate tests weighted by the placed vertices each is compared
#: with, and then the group's order times n + m, the work of forming and
#: lifting its elements (Tutte-Coxeter's search takes about 64,000 and its
#: 1440 elements 1440 * (30 + 45) = 108,000).  Level i tests its own vertex
#: against the i placed ones, so any search costs at least n(n-1)/2, and a
#: base with n(n-1)/2 above the budget gets the trivial group before its
#: distance rows are built.
AUT_SEARCH_BUDGET = 4_000_000


class LiftedAutomorphism(NamedTuple):
    """phi(u, f) = (alpha[u], A.f ^ pot[u]); ``cols[i]`` is A.e_i."""

    alpha: tuple
    cols: tuple
    pot: tuple


def base_automorphisms(g):
    """Aut(g) as vertex permutations, sorted, so the identity comes first:
    every product u_0 u_1 ... of one element of each transversal of
    ``_transversals``, or only the identity when that search gives up.
    """
    identity = tuple(range(g.n))
    transversals = _transversals(g)
    if transversals is None:
        return [identity]
    return sorted(_products(identity, transversals))


def _transversals(g):
    """The transversals of a stabilizer chain of Aut(g), identity first in
    each, as vertex permutations; None when the search gives up.

    The chain runs along the vertices in BFS order b_0, b_1, ...: each
    vertex after the first of its component has an earlier neighbour, whose
    image's neighbours are its candidates.  A candidate must have the same
    distance profile (the sorted row of distances) and lie at the same
    distance from each placed image as the vertex does from its preimage;
    distance 0 only to itself keeps the images distinct.  A complete
    placement is then a distance-preserving bijection, so it maps edges
    (distance 1) onto edges: an automorphism.  Level i fixes b_0 .. b_{i-1}
    and, for each candidate w of b_i, backtracks over the later vertices to
    the first automorphism taking b_i to w, if there is one.  These coset
    representatives and the identity form the transversal U_i of G_{i+1} in
    G_i, the pointwise stabilizers of b_0 .. b_i and of b_0 .. b_{i-1}, so
    |Aut(g)| is the product of the |U_i| and every automorphism is one
    product u_0 u_1 ... u_{n-1} (Butler, "Fundamental Algorithms for
    Permutation Groups", LNCS 559, 1991).  Only the levels with more than the
    identity are returned.  Each representative kept must be a permutation
    mapping every edge to an edge, or the search gives up: the distance rows
    are trusted only to prune, and the products of certified representatives
    are automorphisms, so the group costs sum(|U_i| - 1) checks, not
    |Aut(g)|.  The search also gives up before any distance row is built
    when n(n-1)/2, the least work any search does, exceeds
    ``AUT_SEARCH_BUDGET``; once it has done that much work; or when the
    group's order times n + m, the work of forming and lifting its elements,
    exceeds it.
    """
    n = g.n
    if n * (n - 1) // 2 > AUT_SEARCH_BUDGET:
        return None
    identity = tuple(range(n))
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
    depth_of = [0] * n
    for d, t in enumerate(order):
        depth_of[t] = d
    # per level, by depth: the vertex's kind, the depth of its earlier
    # neighbour (-1 for none) and its distances to the vertices placed before
    # it; distance rows are symmetric, so d(t, v) is dist[v][t]
    kinds = [kind[v] for v in order]
    up = [depth_of[via[v]] if via[v] >= 0 else -1 for v in order]
    wants = [itemgetter(*order[:i])(dist[v]) if i else () for i, v in enumerate(order)]
    placed = list(order)  # placed[d] is the image of order[d]; depths below i are placed at level i
    tested = 0

    def candidates(i):
        nonlocal tested
        pool = range(n) if up[i] < 0 else adj[placed[up[i]]]
        tested += len(pool) * i
        k = kinds[i]
        if not i:
            return [w for w in pool if kind[w] == k]
        want, at = wants[i], itemgetter(*placed[:i])
        return [w for w in pool if kind[w] == k and at(dist[w]) == want]

    def extend(i, w):
        """The first automorphism agreeing with ``placed`` on depths below i
        and taking order[i] to w, or None."""
        stack = [iter((w,))]
        while stack and tested <= AUT_SEARCH_BUDGET:
            w = next(stack[-1], None)
            if w is None:
                stack.pop()
                continue
            depth = i + len(stack) - 1
            placed[depth] = w
            if depth == n - 1:
                return tuple(map(placed.__getitem__, depth_of))
            stack.append(iter(candidates(depth + 1)))
        return None

    transversals = []
    for i, v in enumerate(order):
        level = [identity]
        for w in candidates(i):
            alpha = extend(i, w) if w != v else None
            if alpha is not None:
                if not _is_automorphism(g, alpha):
                    return None
                level.append(alpha)
            if tested > AUT_SEARCH_BUDGET:
                return None
        placed[i] = v
        if len(level) > 1:
            transversals.append(level)
    if math.prod(map(len, transversals)) * (n + g.m) > AUT_SEARCH_BUDGET:
        return None
    return transversals


def _is_automorphism(g, alpha):
    """True when the vertex map ``alpha`` is a permutation taking every edge
    of ``g`` to an edge: injective on vertices, it is then injective on the
    m edges, so a bijection of them."""
    return len(set(alpha)) == g.n and all(
        g.edge_between(alpha[u], alpha[v]) is not None for u, v in g.edges
    )


def _products(identity, transversals):
    """Every product u_0 u_1 ... of one element of each transversal, as
    vertex permutations (u h)(x) = u[h[x]]."""
    group = [identity]
    for level in reversed(transversals):
        group = [tuple(map(u.__getitem__, h)) for u in level for h in group]
    return group


def lift_automorphism(lg, alpha, order):
    """The lift of the base automorphism ``alpha``, with p(root) = 0;
    ``order`` lists the base vertices with each parent in the tree before
    its children.  The id of each edge's image is one ``lg.edge_ids``
    lookup."""
    g = lg.base
    n = g.n
    rule = lg.rule
    ids = lg.edge_ids
    parent = lg.td.parent
    pot = [0] * n
    for v in order[1:]:
        above = parent[v][0]
        pot[v] = pot[above] ^ rule[ids[alpha[above] * n + alpha[v]]]
    cols = []
    for c in lg.td.cotree:
        a, b = g.edges[c]
        cols.append(rule[ids[alpha[a] * n + alpha[b]]] ^ pot[a] ^ pot[b])
    return LiftedAutomorphism(tuple(alpha), tuple(cols), tuple(pot))


def symmetry_applies(lg):
    """The lift's rule is the tree rule, so every lifted edge over e flips
    exactly cut e of the embedding (see the module docstring)."""
    return lg.rule == lg.td.rule


def identity_lift(lg):
    """The identity of the lift: alpha and A the identity, p = 0."""
    n = lg.base.n
    return LiftedAutomorphism(tuple(range(n)), tuple(1 << i for i in range(lg.s)), (0,) * n)


def lifted_group(lg):
    """The lifted automorphisms of ``lg``, one per automorphism of the base,
    each lifted by ``lift_automorphism`` with p(root) = 0, in
    ``base_automorphisms`` order, so the identity comes first (translations
    are left to the caller).  Each lift is an automorphism by construction
    (see the module docstring), so none is checked here.  Only the identity
    when the lift fails ``symmetry_applies`` or the automorphism search
    gives up.
    """
    if not symmetry_applies(lg):
        return [identity_lift(lg)]
    order = sorted(range(lg.base.n), key=lg.td.root_paths.__getitem__)  # a parent's path is a proper subset
    return [lift_automorphism(lg, alpha, order) for alpha in base_automorphisms(lg.base)]


class GroupOrbits:
    """The lifted group's action on the base vertices and on lifted pairs,
    as the pair streams and the distance tables read it.

    ``group`` is ``lifted_group``'s list, over s label coordinates.
    ``home[v]`` is the smallest
    alpha(v), and the walked sources are the vertices r with home[r] == r,
    one per Aut(G) vertex orbit.  ``coset[v]`` lists, in group order, the
    elements with alpha(v) == home[v]: for a walked r, its stabilizer.
    Both come from one pass over the columns of the alpha tuples.
    ``orbit_size(r)`` is the number of lifted vertices in the orbit of
    (r, 0).  ``images`` applies the elements to a pair, and ``canonical``
    reads the orbit's smallest pair off it.  With the trivial group every
    vertex is walked and ``canonical`` is the translation representative.

    ``images`` applies a whole coset at once, in packed lanes.  Lane k of
    a packed int is item k of an ``array`` of w-bit items, the bytes of
    that array read as one int in the host's byte order, and belongs to
    the element phi_k, the k-th of ``coset[a]``.  w is the smallest of 8,
    16, 32 and 64 bits that holds an encoded vertex, (n - 1).bit_length()
    + s bits, so every lane value fits, and XOR acts byte by byte, so it
    never mixes two lanes.  A packed int of one lane is that lane's
    value.  Per end a, the s packed
    columns (lane k of int i is phi_k's column i, keyed by 1 << i) are
    built on first use and kept.  Per pair of ends (a, b), the base lanes
    (lane k is alpha_k(b) << s | p_k(a) ^ p_k(b)) are kept in ``_pairs``,
    keyed by the second base vertex, only while the first end's base
    vertex stays the same: the cache is cleared when it changes, so it
    holds at most 2n base lanes.  The walk from (r, 0) asks only pairs
    with first end r, so it is served whole, and a sampled stream asks its
    drawn pairs in sorted order, so they change the first end at most n
    times.
    """

    def __init__(self, group):
        self.group = group
        self.s = s = len(group[0].cols)
        n = len(group[0].alpha)
        self.home = []
        self.coset = []
        for column in zip(*(phi.alpha for phi in group)):  # alpha(v) for every element
            home = min(column)
            self.home.append(home)
            self.coset.append([phi for phi, w in zip(group, column) if w == home])
        bits = (n - 1).bit_length() + s
        self._code = next(code for code in "BHILQ" if 8 * array(code).itemsize >= bits)
        self._itemsize = array(self._code).itemsize
        self._mask = (1 << s) - 1
        self._cols = [None] * n
        self._first = None
        self._pairs = {}

    def walked(self):
        """The walked sources, ascending."""
        return [r for r, home in enumerate(self.home) if home == r]

    def orbit_size(self, r):
        """|Aut(G).r| * 2^s lifted vertices, for the walked source r."""
        return len(self.group) // len(self.coset[r]) << self.s

    def _pack(self, values):
        """The ints ``values`` as the lanes of one int: the bytes of their
        ``array``, in the host's byte order."""
        return int.from_bytes(array(self._code, values).tobytes(), sys.byteorder)

    def _ends(self, u, v):
        """(r, ends) for the pairs over the base vertices u and v: one
        (packed columns of a, base lanes of (a, b), byte length of the
        lanes) per end a with home[a] == r, b the other end."""
        s, home = self.s, self.home
        r = min(home[u], home[v])
        ends = []
        for a, b in ((u, v), (v, u)) if u != v else ((u, v),):
            if home[a] != r:
                continue
            coset = self.coset[a]
            cols = self._cols[a]
            if cols is None:
                cols = self._cols[a] = {1 << i: self._pack([phi.cols[i] for phi in coset]) for i in range(s)}
            base = self._pack([alpha[b] << s | pot[a] ^ pot[b] for alpha, _, pot in coset])
            ends.append((cols, base, len(coset) * self._itemsize))
        return r, ends

    def images(self, x, y):
        """(r, far) for the orbit of {x, y} under Z_2^s x| Aut(G), two
        distinct encoded vertices: ``far`` is the set of the encoded t with
        ((r, 0), t) a pair of the orbit, each larger than (r, 0).

        r = min(home[u], home[v]) for the bases u and v of x and y.  Only
        the elements taking an end into r can put it there, with the
        translation by that end's new label: the end a (u or v) with
        home[a] == r goes to (r, 0) under each element of coset[a], and the
        other end b to (alpha(b), A.f ^ p(a) ^ p(b)), f the label XOR of the
        pair.  All of coset[a] at once: the base lanes of (a, b) XORed
        with a's packed column i for each set bit i of f, then read out
        as one array (a coset of one element is its one lane).
        """
        s = self.s
        u, v = x >> s, y >> s
        if u != self._first:
            self._first = u
            self._pairs.clear()
        pair = self._pairs.get(v)
        if pair is None:
            pair = self._pairs[v] = self._ends(u, v)
        r, ends = pair
        f = (x ^ y) & self._mask
        far = set()
        for cols, h, size in ends:
            d = f
            while d:
                low = d & -d
                h ^= cols[low]
                d ^= low
            if size == self._itemsize:
                far.add(h)
                continue
            far.update(array(self._code, h.to_bytes(size, sys.byteorder)))
        return r, far

    def canonical(self, x, y):
        """The smallest pair of the orbit of {x, y}: ((r, 0), min(far)) of
        ``images``."""
        r, far = self.images(x, y)
        return r << self.s, min(far)
