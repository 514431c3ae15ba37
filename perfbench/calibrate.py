"""Host-speed sampling: a fixed reference kernel timed throughout each pass.

The benchmark's host may be a virtual machine on a shared server.  Such a
host's speed can flip within fractions of a second between states far apart
and drift for minutes at a time, while CPU time moves with wall time, so
neither can hide it.  So while a pass runs, a timer signal interrupts it
every ``INTERVAL_S`` and the handler times a tiny reference kernel in the same
thread.  The pass's seconds, less the handler's, times the mean of
``REFERENCE_S / kernel seconds`` over its samples, is the time the pass would
take on a host where the kernel takes ``REFERENCE_S``: a time that follows
the program's speed and not the host's.

The kernel is stdlib only and frozen here, outside the package, so no change
to treelift can change it.  It does the kind of work treelift's hot paths do:
breadth-first search over an implicit XOR-matching graph into a list of
distances, a dict of small tuples, and union-find over ints; then a chain of
dependent reads scattered over an 8 MB buffer, because treelift's large
instances miss the caches, and a slow host does not slow cache misses and
core work alike.
"""

from __future__ import annotations

import signal
from collections import deque
from time import perf_counter

#: kernel seconds that normalized times are expressed against
REFERENCE_S = 0.002
#: seconds between two samples during a pass
INTERVAL_S = 0.05

_BUFFER_BYTES = 1 << 23
_READS = 1500
_buffer = None  # allocated by the first SpeedSampler, so importing costs nothing

_BASE = 12  # base vertices of the implicit graph
_S = 7  # label bits; the graph has _BASE << _S vertices
_RULES = tuple(
    tuple((u, 1 << ((u * 7 + k * 3) % _S) if k else 0) for u, k in (((v + d) % _BASE, d) for d in (1, 2, 5)))
    for v in range(_BASE)
)


def _bfs(source):
    n = _BASE << _S
    mask = (1 << _S) - 1
    dist = [-1] * n
    dist[source] = 0
    queue = deque([source])
    while queue:
        x = queue.popleft()
        b, label = x >> _S, x & mask
        d = dist[x] + 1
        for u, rule in _RULES[b]:
            y = (u << _S) | (label ^ rule)
            if dist[y] < 0:
                dist[y] = d
                queue.append(y)
    return dist


def _orbits(dist):
    seen = {}
    parent = list(range(len(dist)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for x, d in enumerate(dist):
        key = (d, x & 7)
        if key in seen:
            ra, rb = find(seen[key]), find(x)
            if ra != rb:
                parent[ra] = rb
        else:
            seen[key] = x
    return sum(1 for x in range(len(parent)) if find(x) == x)


def _scattered_reads(buffer):
    mask = len(buffer) - 1
    i = 0
    for _ in range(_READS):
        i = (i * 1103515245 + 12345 + buffer[i]) & mask
    return i


def kernel():
    """The reference work; returns a checksum so it cannot be skipped."""
    return _orbits(_bfs(5 << _S | 3)) + _scattered_reads(_buffer)


class SpeedSampler:
    """Samples the reference kernel every ``interval`` seconds while entered.

    Signals run in the main thread between bytecodes, so the kernel runs on
    the same CPU as the interrupted code, right where it was.  ``seconds`` is
    the time the handler took; ``speeds`` holds ``REFERENCE_S / kernel
    seconds`` per sample.
    """

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.speeds = []
        self.seconds = 0.0
        self._previous = None

    def _sample(self, signum, frame):
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.speeds.append(REFERENCE_S / (t1 - t0))
        self.seconds += perf_counter() - t0

    def __enter__(self):
        global _buffer
        if _buffer is None:
            _buffer = bytearray(b"\x01") * _BUFFER_BYTES  # written, so really resident
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.speeds:  # shorter than one interval: sample once, after it
            t0 = perf_counter()
            kernel()
            self.speeds.append(REFERENCE_S / (perf_counter() - t0))
        return False
