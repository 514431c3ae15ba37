"""Lifted graphs over the label space {0,1}^S defined by a spanning-tree
decomposition.

For a base graph G with spanning tree T and ordered cotree S, the lift has
vertex set V(G) x {0,1}^S.  Every base edge contributes a perfect matching
between the fibers of its endpoints: a tree edge matches equal labels, cotree
edge i matches labels differing exactly in bit i.  That rule, and the
fundamental cycles the cut sides are read from, come from the tree
decomposition (``TreeDecomposition.rule`` and ``.cycles``); nothing here
re-derives them.  Lifted vertices are encoded densely as ``base << s |
label`` (bit i of the label is cotree coordinate i), so XOR with a label
vector is both the matching rule and the translation automorphism.

A lift is derived from its tree decomposition alone (plus an optional
fault): ``LiftedGraph(td, fault)`` reads the base graph, the coordinate count
and the rule off ``td`` once.  Adjacency is computed on demand from (base
adjacency, rule masks), which the step table ``LiftedGraph.hops`` pairs up
once per lift.  All whole-lift distances come from one label-parallel BFS
(``bfs_lifted``), which carries a fiber's reached labels as one 2^s-bit
set.  The only objects of size n * 2^s are the distance rows of
``representative_tables``: one row of n * 2^s entries per walked source, the
smallest vertex of each Aut(G) vertex orbit of the caller's group (all n
sources when it is trivial), one byte each while the lifted diameter is
under 256, written once.  Besides the rows, the tables hold a few sets of
n * 2^s bits per walked source, while it is folded: its distance planes,
its adder's planes and at most one pending part per plane.  Each base edge
keeps two 2^s-bit fiber blocks, from which its n * 2^s-bit cut side is
built only as the adder reads it, so the m sides are never held together.
No other source has a row: a distance from any other source is read off a
walked row through the lifted group, at the far ends ``GroupOrbits.images``
gives its orbit (``GroupOrbits.canonical`` is the smallest of them).  The
same BFS that fills the rows also measures the lifted girth and the exact
colip of the cut embedding, and its reached labels are the one
connectivity check.  An explicit vertex cap guards all of them.  The
verification oracle answers its pairs with ``two_sided_distances``, a
scalar search that grows one ball per source, shared by all its targets,
and one small ball per target it does not yet hold.  The sampled pair
family of ``sample_pair_list`` holds no tuple per pair: a pair x < y is the
one int x * nn + y, the family is walked once in sorted order, and each
orbit it meets is one entry of an insertion-ordered dict of counts, handed
out as two ``array`` columns once it is built.  The text form of the lift
is never held whole: ``lift_edge_list_text`` and ``lift_mapping_text``
yield it one base edge (one base vertex) of 2^s lines at a time, for the
writer to put on disk block by block.
"""

from __future__ import annotations

import math
import random
import sys
from array import array
from functools import cached_property

from .graph import GraphError

DEFAULT_MAX_VERTICES = 1 << 22


def check_lift_order(n, m, cap, what):
    """Raise GraphError unless the lift of a connected base graph with n
    vertices and m edges, n * 2^(m - n + 1) vertices (one label coordinate
    per cotree edge), is within the vertex cap; ``what`` names the lift in
    the error."""
    required = n << (m - n + 1)
    if required > cap:
        raise GraphError(
            f"{what} would have {required} vertices, above the cap of {cap}; "
            f"raise --max-vertices (or TREELIFT_MAX_VERTICES) to proceed"
        )


class LiftedGraph:
    """The lift along the tree decomposition ``td``, vertices encoded as ints.

    ``td`` and ``fault`` are its only inputs; the rest is derived here, once,
    as plain attributes: ``base = td.graph``, the ``s`` label coordinates (one
    per cotree edge), ``mask = 2^s - 1``, ``rule`` and ``hops``.  ``rule[e]``
    is the label XOR mask of base edge e: the tree rule ``td.rule[e]``.
    ``fault``, if set, is (edge id, extra mask) and XORs the extra mask into
    that edge's rule (GraphError if either is out of range); it exists solely
    so verification sweeps can prove they detect a broken matching, and is
    reported loudly by the CLI.  Connectivity is checked by
    ``representative_tables``.
    ``hops[u]`` holds, for each edge e = (u, v) in adjacency order, the pair
    (v << s, rule[e]): (u, f) is adjacent to ``base | (f ^ rule)`` for each
    ``(base, rule)`` in it.  ``edge_ids`` maps ``u * n + v`` to e for each
    base edge e = (u, v), in both orientations (2m keys): the one lookup per
    hop with which ``walks.analyze`` projects a lifted edge, and per edge
    with which ``voltage.lift_automorphism`` finds an edge's image.
    ``label_steps`` and ``hops_by_id``, ``hops`` with each row ordered by
    neighbour id, are derived on first use and kept.
    """

    def __init__(self, td, fault=None):
        self.td = td
        self.fault = fault  # (edge id, extra xor mask) test hook
        base = self.base = td.graph
        s = self.s = len(td.cotree)
        self.mask = (1 << s) - 1
        rule = td.rule
        if fault is not None:
            eid, extra = fault
            if not (0 <= eid < base.m) or not (0 <= extra <= self.mask):
                raise GraphError(f"bad fault spec {fault!r}")
            rule = rule[:eid] + (rule[eid] ^ extra,) + rule[eid + 1 :]
        self.rule = rule
        self.hops = tuple(tuple((v << s, rule[eid]) for v, eid in nbrs) for nbrs in base.adj)
        n = base.n
        self.edge_ids = {u * n + v: eid for u, nbrs in enumerate(base.adj) for v, eid in nbrs}

    @property
    def num_vertices(self):
        return self.base.n << self.s

    @property
    def num_edges(self):
        return self.base.m << self.s

    def encode(self, base_vertex, label):
        if not (0 <= base_vertex < self.base.n):
            raise GraphError(f"base vertex {base_vertex} out of range")
        if not (0 <= label <= self.mask):
            raise GraphError(f"label {label} out of range for {self.s} coordinates")
        return (base_vertex << self.s) | label

    def decode(self, x):
        return x >> self.s, x & self.mask

    def neighbors(self, x):
        """Neighbor list of x, ordered by base edge id (the order of ``hops``)."""
        f = x & self.mask
        return [base | (f ^ rule) for base, rule in self.hops[x >> self.s]]

    def label_bits(self, label):
        """Label as a binary string, coordinate 0 rightmost."""
        return format(label, f"0{self.s}b") if self.s else ""

    @cached_property
    def label_steps(self):
        """(M_i per coordinate, the masked shifts of each base edge's rule),
        for the label-parallel BFS; the masks are 2^s-bit ints, so they are
        built once per lift."""
        masks = _flip_masks(self.s)
        steps = [[(1 << i, masks[i]) for i in range(self.s) if (rule >> i) & 1] for rule in self.rule]
        return masks, steps

    @cached_property
    def hops_by_id(self):
        """``hops`` with each row sorted: the base is simple, so the
        neighbours of a vertex lie in distinct fibers and come out in
        increasing id, whatever the label."""
        return tuple(tuple(sorted(row)) for row in self.hops)


def build_lift(td, max_vertices=DEFAULT_MAX_VERTICES, fault=None):
    """``LiftedGraph(td, fault)``, guarded by a vertex cap.

    The tree/cotree rule always yields a connected lift of a connected base
    (the fundamental cycle of cotree edge i carries exactly the bit-i flip, so
    the flips generate the whole label group), so nothing of the lift is
    searched here; a fault that disconnects it is refused by
    ``representative_tables``, whose BFS must reach every label.
    """
    check_lift_order(td.graph.n, td.graph.m, max_vertices, "lift")
    return LiftedGraph(td, fault)


def _grow(lg, ball, frontier, level, goal=()):
    """Add the next level of a scalar BFS ball: every unseen neighbour of
    ``frontier`` enters ``ball`` at ``level``; returns them as the new
    frontier, or None as soon as one of them lies in ``goal``."""
    s = lg.s
    mask = lg.mask
    hops = lg.hops
    nxt = []
    for x in frontier:
        f = x & mask
        for base, rule in hops[x >> s]:
            y = base | (f ^ rule)
            if y not in ball:
                if y in goal:
                    return None
                ball[y] = level
                nxt.append(y)
    return nxt


def two_sided_distances(lg, source, targets):
    """Exact lifted distances from ``source`` to each of ``targets`` (-1 if
    unreachable), by two-sided BFS on the lift's adjacency.

    One ball around the source is grown lazily, a full level at a time, and
    shared by all targets.  A target inside it is answered by its level.
    Otherwise a fresh ball grows from the target, one level per step, until
    the new level meets the other ball (the throwaway target ball stops at
    its first vertex in the source ball); the answer is then the sum of the
    two radii.  Any order of growth is exact: if the balls of radii (i - 1,
    j) are disjoint, then d > i - 1 + j, while a meeting at radii (i, j)
    gives d <= i + j, so the first meeting gives d = i + j.  If a frontier
    empties first, the target lies in another component.

    The order is chosen by cost.  A source level serves this target and
    every later one, a target level only this one.  So with k targets still
    to answer (this one included) the source ball grows while its frontier
    is at most sqrt(k) times the target's, ``len(front) ** 2 <= k *
    len(back) ** 2``, and the target ball otherwise; a lone target (k = 1)
    grows whichever frontier is smaller.  The model of k targets at distance
    d with branching b, where a source radius R costs b^R + k * b^(d - R),
    puts the balance at a frontier ratio of k, not sqrt(k).  But it counts
    every level in full, while a target ball stops at its first vertex in
    the source ball, so target levels cost less than it says.  Weighted by
    k, the source balls of ``random:20:3`` lifts under the default 2000
    oracle pairs grew to over a third of the lift, and the search was slower
    than weighted by sqrt(k), which measured fastest among the powers
    k^(1/4) .. k^(3/4).
    """
    ball = {source: 0}
    front = [source]
    radius = 0
    out = []
    k = len(targets)
    for y in targets:
        d = ball.get(y, -1)
        if d < 0:
            other = {y: 0}
            back = [y]
            reach = 0
            while front and back:
                if len(front) ** 2 <= k * len(back) ** 2:
                    radius += 1
                    front = _grow(lg, ball, front, radius)
                    met = not other.keys().isdisjoint(front)
                else:
                    reach += 1
                    back = _grow(lg, other, back, reach, ball)
                    met = back is None
                if met:
                    d = radius + reach
                    break
        out.append(d)
        k -= 1
    return out


class DistanceTables:
    """Distances from the representatives (u, 0), one compact row each.

    ``tables[u][y]`` is d((u, 0), y) for every encoded vertex y, stored as
    a ``bytearray`` when the row's largest entry is under 256 and as an
    unsigned ``array`` otherwise.  ``rows`` holds the rows of the walked
    sources of ``orbits`` (a ``voltage.GroupOrbits``, one source per Aut(G)
    vertex orbit); every other entry is None, and a distance from one of those
    sources is read off a walked row at a far end of its pair's orbit
    (``GroupOrbits.images``; ``.canonical`` is the smallest pair).
    ``ecc[u]`` is the eccentricity of (u, 0), for every u: the group
    carries (u, 0) to (home[u], 0).  ``girth`` is the girth of the lift
    (math.inf if it is acyclic).  ``colip`` is (d, l1) of ``colip_witness``,
    the smallest pair with the largest d / l1 (l1 is 0 only if the embedding
    collides).
    """

    __slots__ = ("rows", "ecc", "girth", "colip", "colip_witness", "orbits")

    def __init__(self, rows, ecc, girth, colip, colip_witness, orbits):
        self.rows = rows
        self.ecc = ecc
        self.girth = girth
        self.colip = colip
        self.colip_witness = colip_witness
        self.orbits = orbits

    def __getitem__(self, u):
        return self.rows[u]


def _flip_masks(s):
    """M_i for each coordinate i: the 2^s-bit set of labels with bit i clear.

    Read off a repeated byte pattern, fiber bit f being bit f % 8 of byte
    f // 8: 0x55, 0x33 and 0x0f hold the labels with bit 0, 1 and 2 clear,
    and from i = 3 on, labels with bit i clear fill runs of 2^(i - 3) bytes,
    ``ff`` runs alternating with ``00`` runs.  Below s = 3 the one pattern
    byte is cut to the 2^s bits of a fiber.
    """
    full = (1 << (1 << s)) - 1
    nbytes = max(1, (1 << s) >> 3)
    masks = []
    for i in range(s):
        if i < 3:
            pattern = (b"\x55", b"\x33", b"\x0f")[i]
        else:
            pattern = b"\xff" * (1 << (i - 3)) + b"\x00" * (1 << (i - 3))
        masks.append(int.from_bytes(pattern * (nbytes // len(pattern)), "little") & full)
    return masks


def bfs_lifted(lg, source):
    """Label-parallel BFS in the lift from the encoded vertex ``source`` = (u, f).

    The frontier and the visited set of fiber v are each one 2^s-bit int
    (bit f = label f).  Crossing base edge e XORs every label by rule[e],
    which ``lg.label_steps`` spells as one masked shift per set bit.  Level
    d is OR-ed into bit-plane k of each fiber for every set bit k of d, so
    plane k holds bit k of the distance.

    The cycle bound is 2d for the first level d at which a newly reached
    label arrives over two different edges.  The two shortest paths to it
    form a closed walk of length 2d that crosses its last edges once each,
    so it contains a cycle and 2d is at least the girth.  If (u, f) lies on
    a shortest cycle of the lift, the vertex opposite it on that cycle is
    reached that way at d = girth / 2, so the minimum over sources is the
    girth.  Only even cycles need testing, because a connected lift is
    bipartite: the voltage map from the base cycle space onto Z_2^s is onto
    (that is what connectivity means) between spaces of equal dimension s,
    hence one-to-one, so a closed lifted walk, whose projection has voltage
    0, uses every base edge an even number of times.

    Returns (the distance planes over the whole lift, fiber 0 lowest, the
    reached labels of each fiber, eccentricity, cycle bound or math.inf);
    labels never reached have distance 0 in the planes.
    """
    s = lg.s
    n = lg.base.n
    adj = lg.base.adj
    steps = lg.label_steps[1]
    u = source >> s
    seen = [0] * n
    seen[u] = 1 << (source & lg.mask)
    frontier = {u: seen[u]}
    planes = []
    cycle = 0  # none found yet
    level = 0
    while frontier:
        level += 1
        if level == 1 << len(planes):
            planes.append([0] * n)
        reached = {}
        for a, bits in frontier.items():
            for b, eid in adj[a]:
                moved = bits
                for w, m in steps[eid]:
                    moved = ((moved & m) << w) | ((moved >> w) & m)
                old = reached.get(b, 0)
                if not cycle and old & moved & ~seen[b]:
                    cycle = 2 * level
                reached[b] = old | moved
        frontier = {}
        for b, bits in reached.items():
            bits &= ~seen[b]
            if bits:
                seen[b] |= bits
                frontier[b] = bits
                for k, plane in enumerate(planes):
                    if (level >> k) & 1:
                        plane[b] |= bits
    ecc = level - 1
    whole = [_whole_lift(plane, 1 << s) for plane in planes[: ecc.bit_length()]]
    return whole, seen, ecc, cycle or math.inf


def _fiber_block(bits, fiber):
    """One fiber's ``fiber``-bit set in the form ``_join`` takes: its bytes,
    little-endian, when fibers fill whole bytes, else the int itself."""
    return bits.to_bytes(fiber >> 3, "little") if fiber % 8 == 0 else bits


def _join(blocks, fiber):
    """Fiber blocks of ``_fiber_block``, end to end as one int, fiber 0 lowest."""
    if fiber % 8 == 0:
        return int.from_bytes(b"".join(blocks), "little")
    whole = 0
    for bits in reversed(blocks):
        whole = (whole << fiber) | bits
    return whole


def _whole_lift(plane, fiber):
    """Per-fiber bitsets of ``fiber`` bits each, end to end as one int, fiber 0 lowest."""
    return _join([_fiber_block(bits, fiber) for bits in plane], fiber)


def _expand_row(whole, nn, ecc):
    """One source's row of nn lanes: lane y is the sum of (bit y of plane k) << k,
    for the distance bit-planes ``whole`` over the whole lift.

    Plane k supplies bit k % 8 of byte k // 8 of every lane.  With P the
    plane over the whole lift, byte i of ``(P >> j) & ones`` is bit 8i + j
    of P, i.e. the bit of lane 8i + j; OR-ing eight planes shifted by k % 8
    gives that lane byte for every i at once, and one strided slice writes
    it into the row, which is allocated once and written in place.
    """
    nbytes = (nn + 7) >> 3
    ones = int.from_bytes(b"\x01" * nbytes, "little")
    out = bytearray(nn) if ecc < 256 else array("H" if ecc < 65536 else "I", [0]) * nn
    # a bytearray takes strided writes twice as fast as a memoryview of it would
    view = out if ecc < 256 else memoryview(out).cast("B")
    width = len(view) // nn
    for first in range(0, len(whole), 8):
        byte = first >> 3
        off = byte if sys.byteorder == "little" else width - 1 - byte
        for j in range(8):
            lane = 0
            for k, bits in enumerate(whole[first : first + 8]):
                lane |= ((bits >> j) & ones) << k
            # the lanes y = j mod 8 below nn: all nbytes of them unless nn % 8 != 0
            view[j * width + off :: 8 * width] = lane.to_bytes(nbytes, "little")[: (nn - j + 7) >> 3]
    return out


def _cut_blocks(table, masks, full):
    """The two fiber blocks of cut e, for each base edge e: bit e of the rows
    of fiber v is bit e of base_rows[v] XOR the parity of the label over the
    coordinates whose column (fundamental cycle, ``td.cycles``) has bit e,
    i.e. over the XOR of their label sets ``full ^ masks[i]``.  So the fiber
    holds that parity set where bit e of base_rows[v] is 0 and its
    complement where it is 1; the pair (parity, complement) is kept as two
    ``_fiber_block`` blocks, 2^s bits each."""
    fiber = full.bit_length()
    blocks = []
    for e in range(table.lg.base.m):
        odd = 0
        for col, mask in zip(table.lg.td.cycles, masks):
            if (col >> e) & 1:
                odd ^= full ^ mask
        blocks.append((_fiber_block(odd, fiber), _fiber_block(odd ^ full, fiber)))
    return blocks


def _cut_sides(blocks, base_rows, fiber):
    """Bit e of every row, as one whole-lift bitset per base edge e, yielded
    in edge order: for each fiber v, the block of ``_cut_blocks`` that bit e
    of base_rows[v] picks, joined.  Each side is built only when the adder
    reads it, so the m sides are never held together.  With
    ``~(base_rows[v] ^ row)`` in place of base_rows[v], bit e picks the
    other block wherever ``row`` has bit e clear: the side is then the lanes
    that agree with ``row`` on cut e."""
    for e, pair in enumerate(blocks):
        yield _join([pair[(row >> e) & 1] for row in base_rows], fiber)


def _fold(whole, agreements, x, nn):
    """(d, smallest l1, smallest y attaining it) for each distance d from the
    source x to the vertices x < y < nn, in ascending d.

    ``whole`` holds the distance planes of the whole lift, and
    ``agreements`` yields, for each base edge e in turn, the whole-lift
    lanes that agree with row(x) on cut e; each is dropped once added.  A
    ripple-carry adder sums these m one-bit lanes into the planes of m - l1.
    The lanes above x are then split by distance depth first, top plane
    first, off a stack of (d, lanes, next plane) entries: a part whose lanes
    split on plane k pushes its high part and goes on with its low part.  So
    the stack holds at most one pending part per plane, and the parts come
    out in ascending d.  A descending pass over the agreement planes keeps,
    whenever some lanes of a part have bit k set, only those: the lanes of
    most agreement, i.e. of least l1.
    """
    agree = []
    m = 0
    for carry in agreements:
        m += 1
        for k, plane in enumerate(agree):
            agree[k], carry = plane ^ carry, plane & carry
            if not carry:
                break
        else:
            agree.append(carry)
    stack = [(0, (1 << nn) - (2 << x), len(whole))] if x + 1 < nn else []
    while stack:
        d, bits, k = stack.pop()
        while k:
            k -= 1
            high = bits & whole[k]
            if high:
                bits ^= high
                if bits:
                    stack.append((d | 1 << k, high, k))
                else:
                    d, bits = d | 1 << k, high
        most = 0
        for k in reversed(range(len(agree))):
            if keep := bits & agree[k]:
                bits = keep
                most |= 1 << k
        yield d, m - most, (bits & -bits).bit_length() - 1


def representative_tables(lg, table, orbits):
    """Distances from the walked sources (r, 0) of ``orbits`` by
    label-parallel BFS, the lifted girth and the exact colip of the
    embedding ``table``.

    ``orbits`` is the ``voltage.GroupOrbits`` of ``lifted_group``, so its
    elements and the label translations are automorphisms of the lift that
    keep d and l1 (``symmetry_applies``).  Together they determine every
    pairwise distance from the walked rows, and they carry every vertex to a
    walked source (r, 0): every cycle to one through a walked source, so the
    girth is the shortest cycle through any of them, and every pair to one
    ((r, 0), y) with y > (r, 0), the smallest pair of its orbit, with the
    same distance and l1.  So the colip is the largest d / l1 over those: per
    source and distance d, the smallest l1 there, ties going to the smallest
    pair, which is the smallest pair of the whole lift attaining it.  Raises
    GraphError if the lift is not connected.
    """
    s = lg.s
    n = lg.base.n
    nn = lg.num_vertices
    fiber = 1 << s
    full = (1 << fiber) - 1
    blocks = _cut_blocks(table, lg.label_steps[0], full)
    rows = [None] * n
    ecc = [0] * n
    girth = math.inf
    colip, witness = (0, 1), None
    for r in orbits.walked():
        x = r << s
        whole, seen, ecc[r], cycle = bfs_lifted(lg, x)
        if any(bits != full for bits in seen):
            raise GraphError("lift is not connected")
        del seen  # only the whole-lift planes live on through the fold
        girth = min(girth, cycle)
        # bit e of ~(base_rows[v] ^ row(x)) picks fiber v's lanes agreeing with row(x) on cut e
        row = table.base_rows[r]
        agreements = _cut_sides(blocks, [~(base ^ row) for base in table.base_rows], fiber)
        for d, h, y in _fold(whole, agreements, x, nn):
            ahead = d * colip[1] - colip[0] * h
            if ahead > 0 or (ahead == 0 and (x, y) < witness):
                colip, witness = (d, h), (x, y)
        # the row is built once the fold is done, so the fold never meets it
        rows[r] = _expand_row(whole, nn, ecc[r])
    return DistanceTables(
        rows=rows,
        ecc=tuple(ecc[home] for home in orbits.home),
        girth=girth,
        colip=colip,
        colip_witness=witness,
        orbits=orbits,
    )


def sample_pair_list(lg, tables, count, seed):
    """The canonical sampled pair family, as an iterator of one (x, y,
    covered) entry per orbit of the lifted group it meets.

    The family is every adjacent pair, the pair realizing the lifted diameter
    and ``count`` seeded uniform pairs.  (x, y) is the orbit's smallest pair
    (``GroupOrbits.canonical`` of ``tables.orbits``), the entry
    ``sweeps.group_orbit_reps`` lists for it, so it starts at a walked
    source, and ``covered`` is the number of family pairs in the orbit, so
    the ``covered`` sum is the family size.  Entries come in the order of
    each orbit's smallest family pair.  The lifted edges over base edge e
    are one translation orbit of 2^s pairs, and its smallest pair, the
    edge representative, stands for them all: it counts 2^s and makes its
    orbit an edge orbit, in which a drawn pair is one of the lifted edges
    and already counted.  With the trivial group the orbits are the
    translation orbits.

    No tuple is kept per pair: a family pair x < y is the one int
    x * nn + y.  Drawing stops early once every pair of the lift is drawn.
    The edge representatives then join the drawn pairs, and the family is
    walked once in sorted order, so an orbit is first met at its smallest
    family pair: for an edge orbit that is an edge representative, since a
    lifted edge is never below the representative of its base edge and the
    group maps edges to edges.  The packed smallest pair of each orbit keys
    an insertion-ordered dict of counts, whose order is the stream order;
    two ``array`` columns taken from it hand out the stream, all of the
    work done before the iterator is returned.
    """
    nn = lg.num_vertices
    s = lg.s
    canonical = tables.orbits.canonical
    rng = random.Random(seed)
    x, y = sorted(diameter_witness(lg, tables))
    drawn = {x * nn + y}
    every = nn * (nn - 1) >> 1
    for _ in range(count):
        if len(drawn) >= every:  # later draws would change nothing
            break
        x = rng.randrange(nn)
        y = rng.randrange(nn)
        while y == x:
            y = rng.randrange(nn)
        drawn.add(x * nn + y if x < y else y * nn + x)
    # each base edge's smallest lifted edge, its translation representative
    edges = {(min(u, v) << s) * nn + (max(u, v) << s | rule) for (u, v), rule in zip(lg.base.edges, lg.rule)}
    drawn |= edges  # in place: a copy would raise the peak
    drawn = array("q", sorted(drawn))  # the set is freed before the walk
    counts = {}  # packed smallest pair of an orbit -> its family pairs, by first meeting
    edge_orbits = set()
    for pair in drawn:
        x, y = canonical(*divmod(pair, nn))
        key = x * nn + y
        if pair in edges:
            counts[key] = counts.get(key, 0) + (1 << s)
            edge_orbits.add(key)
        elif key not in edge_orbits:
            counts[key] = counts.get(key, 0) + 1
    del drawn
    keys, covered = array("q", counts), array("q", counts.values())
    del counts
    return ((*divmod(key, nn), c) for key, c in zip(keys, covered))


def lifted_girth(lg, tables):
    """Exact girth of the lift, or math.inf if it is acyclic, as measured by
    the label-parallel BFS of ``representative_tables``."""
    return tables.girth


def lifted_diameter(lg, tables):
    """Exact diameter of the lift: the largest representative eccentricity."""
    return max(tables.ecc)


def diameter_witness(lg, tables):
    """A pair realizing the lifted diameter, smallest encoded pair first; its
    source, the smallest u of largest eccentricity, is walked (home[u] <= u)."""
    d = max(tables.ecc)
    u = tables.ecc.index(d)
    return (u << lg.s, tables.rows[u].index(d))


# --- materialization ---------------------------------------------------------


def lift_edge_list_text(lg):
    """The materialized lift in edge-list text format, as a stream of text
    blocks: the header line, then the 2^s lines of each base edge in turn.

    Lifted edges are emitted per base edge id, then per label of the edge's
    first endpoint, lower lifted id first, so the output is canonical.
    """
    s = lg.s
    yield f"{lg.num_vertices} {lg.num_edges}\n"
    for (u, v), rule in zip(lg.base.edges, lg.rule):
        lines = []
        for f in range(1 << s):
            x = (u << s) | f
            y = (v << s) | (f ^ rule)
            if x > y:
                x, y = y, x
            lines.append(f"{x} {y}\n")
        yield "".join(lines)


def lift_mapping_text(lg):
    """Sidecar mapping, lines 'lifted_id base_vertex label_bits' (bit 0
    rightmost), as a stream of text blocks: the 2^s lines of each base
    vertex in turn."""
    s = lg.s
    # each label's line ending; with no coordinates the label and its space drop
    tails = [f" {lg.label_bits(f)}".rstrip() + "\n" for f in range(1 << s)]
    for u in range(lg.base.n):
        x = u << s
        yield "".join([f"{x | f} {u}{tail}" for f, tail in enumerate(tails)])
