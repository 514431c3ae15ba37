"""Reference forms of the lift's pair streams and maps, for tests only.

``reference_group_orbit_reps`` is the image-set group walk that
``sweeps.group_orbit_reps`` replaced: it maps each new representative by
every lifted automorphism and normalises each image with ``orbit_rep``, so
it shares nothing with the stabilizer walk but the group itself.
``iter_orbit_reps`` lists every translation representative, the stream of
the translation-only sweep.  ``project_vertex``, ``project_edge`` and
``image`` read a lifted vertex, a lifted edge and an automorphism's image
straight off their encodings.
"""

from treelift.graph import GraphError
from treelift.lift import orbit_rep
from treelift.voltage import linear


def project_vertex(lg, x):
    return x >> lg.s


def project_edge(lg, x, y):
    """Base edge id of a lifted edge, validating that (x, y) really is one."""
    u, f = lg.decode(x)
    v, h = lg.decode(y)
    eid = lg.base.edge_between(u, v)
    if eid is None or f ^ h != lg.rule[eid]:
        raise GraphError(f"({x}, {y}) is not an edge of the lift")
    return eid


def image(phi, lg, x):
    """phi of the encoded lifted vertex x."""
    u = x >> lg.s
    return phi.alpha[u] << lg.s | linear(phi.cols, x & lg.mask) ^ phi.pot[u]


def iter_orbit_reps(lg):
    """Canonical representatives of unordered vertex pairs under label translation.

    Translating both endpoints by the first endpoint's label maps any pair
    {(u,f),(v,h)} to {(u,0),(v,f^h)}, so the representatives are exactly the
    encoded pairs (x, y) with x = (u, 0) and y > x.  Yields (x, y, covered)
    where covered is the orbit size: 2^s when the bases differ, 2^(s-1) for
    pairs within one fiber (translation by f^h swaps the endpoints).
    """
    s = lg.s
    nn = lg.num_vertices
    full = 1 << s
    half = full >> 1 if s else 1
    for u in range(lg.base.n):
        x = u << s
        fiber_end = x + full
        for y in range(x + 1, nn):
            yield x, y, (half if y < fiber_end else full)


def reference_group_orbit_reps(lg, group):
    """The stream of ``sweeps.group_orbit_reps``, by image sets.

    A smallest pair starts at a vertex (u, 0) with u the smallest of its
    Aut(G) vertex orbit, so only those sources are walked, each keeping one
    nn-byte mark row.  Their translation representatives are walked in
    order, skipping those already marked, so each one reached is the
    smallest of a new orbit.  Every element maps it to a pair whose
    translation orbit (``orbit_rep``) joins the orbit's image set;
    ``covered`` is the size of that set times the size of each translation
    orbit in it, and the images that start at a walked source are marked in
    its row.
    """
    s = lg.s
    nn = lg.num_vertices
    full = 1 << s
    half = full >> 1 if s else 1
    walked = [u for u in range(lg.base.n) if all(phi.alpha[u] >= u for phi in group)]
    marks = {u: bytearray(nn) for u in walked}
    for u in walked:
        x = u << s
        row = marks[u]
        for y in range(x + 1, nn):
            if row[y]:
                continue
            v = y >> s
            bits = [i for i in range(s) if y >> i & 1]
            images = set()
            for alpha, cols, pot in group:
                h = pot[v]  # A.f ^ p(v), f the label of y
                for i in bits:
                    h ^= cols[i]
                images.add(orbit_rep(lg, alpha[u] << s | pot[u], alpha[v] << s | h))
            for rx, ry in images:
                seen = marks.get(rx >> s)
                if seen is not None:
                    seen[ry] = 1
            # alpha is a bijection: every image lies within one fiber iff (x, y) does
            yield x, y, len(images) * (half if u == v else full)
