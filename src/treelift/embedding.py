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
    col_i      = {c_i} ^ P(a) ^ P(b)   (td.cycles[i])
    row(u, f)  = row(u, 0) ^ XOR of col_i over the set bits i of f

Rows are packed as m-bit integers, so l1 distances are XOR popcounts.  The
row map is affine-linear over the label group: row(u, f) = row(u, 0) ^
lin(f).  That form is the whole representation: n base rows, and lin read
off two half tables of 2^ceil(s/2) and 2^floor(s/2) ints; no table of 2^s
or n * 2^s entries is built.  By linearity the row XOR across a lifted edge
depends only on its base edge, so facts about all m * 2^s lifted edges (the
cut partition, the Lipschitz constant) take one comparison per base edge.

The map is injective by construction.  The cotree bits of row(u, f) are
exactly the bits of f (the cotree edge of coordinate i is cut by label bit i
alone, and base rows have no cotree bits), so equal rows have equal labels
and then equal base rows; and the base rows P(u) ^ flip are distinct,
because a root path determines its far end.

The co-Lipschitz constant needs every pair.  Bit e of all rows is one bitset
over the lift, so l1 from one vertex to all others is a bit-sliced sum of m
bitsets, which ``lift.representative_tables`` folds into its BFS: the colip
``distortion`` reads is exact at every lift size.

All Lipschitz quantities are exact rationals; there are no float tolerances
anywhere in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction


@dataclass(eq=False)
class EmbeddingTable:
    """The embedding in affine form: row(u, f) = base_rows[u] ^ lin(f).

    Row bit e is the vertex's side of cut e.  ``base_rows`` holds the n rows
    of the zero-label fiber.  lin(f) = low[f & low_mask] ^ high[f >> h], with
    ``low[g]`` the XOR of col_i (``td.cycles``) over the set bits i of g for
    the h = ceil(s/2) columns i < h, and ``high[g]`` that of col_(h + i).

    ``edge_flips[e]`` is the row XOR across the lifted edges over base edge e,
    taken at label 0 as row(u, 0) ^ row(v, rule[e]).  By linearity the XOR
    across ((u, f), (v, f ^ rule[e])) is the same at every label f, so these
    m values describe all m * 2^s lifted edges.  They are computed once, with
    the table.
    """

    lg: object
    base_rows: list
    h: int = field(init=False)
    low_mask: int = field(init=False)
    low: list = field(init=False, repr=False)
    high: list = field(init=False, repr=False)
    edge_flips: tuple = field(init=False, repr=False)

    def __post_init__(self):
        lg = self.lg
        h = self.h = (lg.s + 1) >> 1
        self.low_mask = (1 << h) - 1
        self.low, self.high = [0], [0]
        for half, cols in ((self.low, lg.td.cycles[:h]), (self.high, lg.td.cycles[h:])):
            for col in cols:  # each column doubles its half: the XOR of every subset
                half.extend([x ^ col for x in half])
        rows, edges = self.base_rows, zip(lg.base.edges, lg.rule)
        self.edge_flips = tuple(rows[u] ^ rows[v] ^ self.lin(rule) for (u, v), rule in edges)

    def lin(self, f):
        return self.low[f & self.low_mask] ^ self.high[f >> self.h]

    def l1(self, x, y):
        """The l1 distance between two rows, a Hamming distance; lin is linear, so it is read once."""
        rows, s = self.base_rows, self.lg.s
        return (rows[x >> s] ^ rows[y >> s] ^ self.lin((x ^ y) & self.lg.mask)).bit_count()


def embed(lg):
    """The affine embedding of a lift: its n base rows, from which the table derives the rest."""
    # each child has its own tree edge, so this sum of distinct bits is their OR
    flip = sum(1 << link[1] for child, link in enumerate(lg.td.parent) if link and child < link[0])
    return EmbeddingTable(lg=lg, base_rows=[path ^ flip for path in lg.td.root_paths])


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
    counts are arithmetic.  The rows are injective by construction (see the
    module docstring), so no pair has l1 0.
    """
    nn = lg.num_vertices
    lip = Fraction(max(flip.bit_count() for flip in table.edge_flips))
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
