"""The cut-indicator embedding of a lifted graph into {0,1}^(base edges),
carrying the l1 metric.

Every base edge defines an edge cut of the lift (the fiber of matchings over
it), and each lifted vertex gets one indicator bit per cut saying which side
it is on.  For a cotree edge the side is its label bit, read directly.  For a
tree edge, removing it splits the tree into sides A and B (A holds the
lower-numbered endpoint), and the side of (v, f) is the parity of f over the
cotree coordinates crossing the split, flipped when v lies in B; the 0-side
is the even-parity-in-A side.

That definition is read off the tree's root paths, with ``P(v)`` the set of
tree edges from the root to v (``TreeDecomposition.root_paths``).  Tree edge
e separates v from the root exactly when e is in ``P(v)``, so ``[v in B]`` is
bit e of ``P(v)``, complemented when the lower endpoint is the child (then A
is the child's subtree).  The cotree edge of coordinate i, ``c_i = (a, b)``,
closes the fundamental cycle ``P(a) ^ P(b) ^ {c_i}``, and those are the cuts
it crosses.  Hence, with ``flip`` the tree edges whose child is the lower
endpoint:

    row(u, 0)  = P(u) ^ flip
    col_i      = {c_i} ^ P(a) ^ P(b)
    row(u, f)  = row(u, 0) ^ XOR of col_i over the set bits i of f

Rows are packed as m-bit integers, so l1 distances are XOR popcounts.  The
row map is affine-linear over the label group: row(u, f) = row(u, 0) ^
lin(f).  That form is the whole representation: n base rows plus 2^s label
columns, with any row derived on demand; no n * 2^s table is built.  By
linearity the row XOR across a lifted edge depends only on its base edge, so
facts about all m * 2^s lifted edges (the cut partition, the Lipschitz
constant) take one comparison per base edge.

The co-Lipschitz constant needs every pair.  Bit e of all rows is one bitset
over the lift, so l1 from one vertex to all others is a bit-sliced sum of m
bitsets, which ``lift.representative_tables`` folds into its BFS: the colip
``distortion`` reads is exact at every lift size.

All Lipschitz quantities are exact rationals; there are no float tolerances
anywhere in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .graph import GraphError


@dataclass(eq=False)
class EmbeddingTable:
    """The embedding in affine form: row(u, f) = base_rows[u] ^ lin[f].

    Row bit e is the vertex's side of cut e.  ``base_rows`` holds the n rows
    of the zero-label fiber and ``lin`` the 2^s label columns; no table of
    n * 2^s rows exists.
    """

    lg: object
    base_rows: list
    lin: list

    def row(self, x):
        return self.base_rows[x >> self.lg.s] ^ self.lin[x & self.lg.mask]

    def l1(self, x, y):
        """The l1 distance between two rows: a Hamming distance, all coordinates are bits."""
        return (self.row(x) ^ self.row(y)).bit_count()

    def edge_flips(self):
        """Row XOR across the lifted edges over each base edge, by edge id.

        Taken at label 0 as row(u, 0) ^ row(v, rule[e]).  By linearity the XOR
        across ((u, f), (v, f ^ rule[e])) is the same at every label f, so
        these m values describe all m * 2^s lifted edges.
        """
        base_rows = self.base_rows
        lin = self.lin
        return [
            base_rows[u] ^ base_rows[v] ^ lin[rule]
            for (u, v), rule in zip(self.lg.base.edges, self.lg.rule)
        ]


def embed(lg):
    """The affine embedding of a lift: n base rows plus 2^s label columns."""
    g = lg.base
    td = lg.td
    paths = td.root_paths
    flip = 0
    for child, link in enumerate(td.parent):
        if link is not None and child < link[0]:
            flip |= 1 << link[1]
    base_rows = [path ^ flip for path in paths]
    cols = []
    for eid in td.cotree:
        a, b = g.edges[eid]
        cols.append(1 << eid | paths[a] ^ paths[b])
    lin = [0] * (1 << lg.s)
    for f in range(1, 1 << lg.s):
        low = f & -f
        lin[f] = lin[f ^ low] ^ cols[low.bit_length() - 1]
    return EmbeddingTable(lg=lg, base_rows=base_rows, lin=lin)


def assert_injective(table):
    """Hard check that no two vertices share a row (distances would silently lie).

    O(n): the cotree bits of row(u, f) are exactly the bits of f (the cotree
    edge of coordinate i is cut by label bit i alone), and base rows have no
    cotree bits.  Equal rows therefore have equal labels and equal base rows,
    so distinct base rows mean distinct rows for the whole lift.
    """
    if len(set(table.base_rows)) != len(table.base_rows):
        raise RuntimeError("embedding is not injective: two lifted vertices share a row")


def distortion_bound(base_girth, base_diam):
    """Per-instance distortion bound max(1, 1 + 6*diam/girth), exact.

    Assembled from the walk-accounting chain: twice-used bridges contribute
    at most bridge_paths*diam <= (2*components+1)*diam while component edges
    contribute at least components*girth.  A forest base (infinite girth)
    gives exactly 1.
    """
    if base_girth == math.inf:
        return Fraction(1)
    return max(Fraction(1), 1 + Fraction(6 * base_diam, base_girth))


@dataclass(eq=False)
class DistortionReport:
    """Exact Lipschitz data of the embedding of one lift.

    lip and colip are exact rationals; distortion = lip * colip.  colip is
    the true maximum of d(x,y) over l1(x,y) across all unordered pairs,
    which cover ``orbits_examined`` translation orbits.
    """

    lip: Fraction
    colip: Fraction
    distortion: Fraction
    witness_pair: tuple
    pairs_examined: int
    orbits_examined: int


def distortion(lg, table, tables):
    """Exact distortion data of the embedding, over every pair of the lift.

    lip is exact at any lift size: a graph metric's Lipschitz constant is
    attained on an edge, and every lifted edge over base edge e has the same
    row XOR, so lip is the largest popcount of the m ``edge_flips``.  colip
    and its witness, the smallest encoded pair attaining it, come from the
    bit-sliced fold in ``representative_tables``.  Every pair is covered
    through the translation orbit of some ((u, 0), y) with y > (u, 0), so the
    counts are arithmetic.  The rows are certified injective first
    (``assert_injective``), so no pair has l1 0.
    """
    nn = lg.num_vertices
    if nn < 2:
        raise GraphError("distortion requires at least two lifted vertices")
    assert_injective(table)
    lip = Fraction(max(flip.bit_count() for flip in table.edge_flips()))
    if lip != 1:
        raise RuntimeError(
            f"embedding is not 1-Lipschitz (measured lip = {lip}); the cut partition is broken"
        )
    (d, h), (x, y) = tables.colip, tables.colip_witness
    n = lg.base.n
    colip = Fraction(d, h)
    return DistortionReport(
        lip=lip,
        colip=colip,
        distortion=lip * colip,
        witness_pair=(x, y),
        pairs_examined=nn * (nn - 1) // 2,
        orbits_examined=n * (nn - 1) - ((n * (n - 1) // 2) << lg.s),
    )
