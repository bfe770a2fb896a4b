"""Static simple undirected graphs and seeded G(n, p) sampling.

Graphs are stored in compressed sparse row form (``indptr``/``indices``),
which keeps neighbor scans cache-friendly at the sizes the experiment
harness uses (up to a few times 10^7 arcs).  Vertices are the integers
``0 .. vertex_count - 1`` and every neighbour row is sorted.  ``spread`` is
the one wave loop, behind both the BFS here and the activation engine.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator

import numpy as np

__all__ = [
    "Graph",
    "GnpParams",
    "GraphFormatError",
    "sample_gnp",
    "connected_components",
    "gather_rows",
    "induced_edge_count",
    "is_connected",
    "load_edge_list",
    "save_edge_list",
]


class GraphFormatError(ValueError):
    """Malformed edge-list input; the message names the offending line."""


# Most vertices a graph may have: neighbour ids are int32 in ``Graph.indices``.
_MAX_N = 2**31


def checked_int(value, name: str, low: int = 0) -> int:
    """``value`` as an int; raises ValueError naming ``name`` unless it is an
    integer (an integral float passes, a bool does not) of at least ``low``."""
    try:
        ok = not isinstance(value, (bool, np.bool_)) and int(value) == value >= low
    except (TypeError, ValueError, OverflowError):  # a string, NaN, infinity
        ok = False
    if not ok:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def checked_real(value, name: str):
    """``value``, unchanged; raises ValueError naming ``name`` unless it is a real
    number (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):  # np.bool_ is no Real
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return value


def vertex_id(v, what: str = "vertex") -> int:
    """``v`` as an int; raises ValueError naming it unless it is a Python or numpy
    integer (a float, even an integral one, a string or a bool is not)."""
    if not isinstance(v, (bool, np.bool_)):
        try:
            return operator.index(v)
        except TypeError:
            pass
    shown = v.item() if isinstance(v, np.generic) else v
    raise ValueError(f"{what} id {shown!r} is not an integer")


def as_vertex_array(vertices: Iterable[int], n: int, *, what: str = "vertex") -> np.ndarray:
    """The distinct ids of ``vertices`` as a sorted int64 array.

    Each id must pass ``vertex_id``.  Raises ValueError naming an id that does
    not or that falls outside ``[0, n)``.  An integer array takes no per-id
    Python step: only its least and greatest id are checked.
    """
    numeric = isinstance(vertices, np.ndarray) and vertices.dtype.kind in "iu"
    if numeric:
        ids = vertices.ravel()
        ends = [ids.min().item(), ids.max().item()] if ids.size else []
    else:
        ids = sorted({vertex_id(v, what) for v in vertices})
        ends = ids[:1] + ids[-1:]
    if ends and (ends[0] < 0 or ends[-1] >= n):
        bad = ends[0] if ends[0] < 0 else ends[-1]
        raise ValueError(f"{what} id {bad} out of range for graph with {n} vertices")
    if numeric:
        return count_by_vertex(ids.astype(np.int64), n)[0]
    return np.array(ids, dtype=np.int64)


class Graph:
    """Immutable simple undirected graph in CSR form.

    ``indices[indptr[v]:indptr[v+1]]`` is the sorted neighbor row of ``v``.
    The state is exactly these two flat numpy arrays (and the cached
    ``degrees``), so instances are cheap to share between worker processes;
    a caller that steps on Python lists builds its own.
    """

    def __init__(self, vertex_count: int, indptr: np.ndarray, indices: np.ndarray):
        self.vertex_count = int(vertex_count)
        self.indptr = indptr
        self.indices = indices
        self.edge_count = int(indices.size) // 2

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int32))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from (u, v) pairs in either orientation; ids that fail ``vertex_id``,
        self-loops, out-of-range ids and duplicates raise GraphFormatError naming the
        first.  ``n`` must be an integer."""
        n = checked_int(n, "vertex count")
        if n > _MAX_N:
            raise GraphFormatError(f"vertex count {n} outside [0, {_MAX_N}]")
        pairs = np.array(list(edges) or np.empty((0, 2)), dtype=object)  # a ragged list stays 1-D
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise GraphFormatError("expected (u, v) pairs")
        try:
            pairs = np.array([vertex_id(v) for v in pairs.flat], dtype=np.int64).reshape(-1, 2)
        except OverflowError:
            raise GraphFormatError(f"vertex id out of range for {n} vertices") from None
        except ValueError as err:
            raise GraphFormatError(str(err)) from None
        return _from_keys(n, *_validated_keys(n, pairs.min(axis=1), pairs.max(axis=1)))

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor row of ``v`` (a read-only view, do not mutate)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in lexicographic order."""
        for u in range(self.vertex_count):
            for w in self.neighbors(u):
                if w > u:
                    yield u, int(w)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.vertex_count == other.vertex_count
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self) -> int:  # identity hash; content equality is for tests
        return id(self)

    def __repr__(self) -> str:
        return f"Graph(n={self.vertex_count}, m={self.edge_count})"


def _validated_keys(n: int, us: np.ndarray, vs: np.ndarray, edge: Callable | None = None):
    """Validate pairs; return their keys ``(u << shift) | v`` in increasing order, and shift.

    The first pair i that is a self-loop, has an id outside ``[0, n)``, has u > v
    or repeats an earlier pair raises GraphFormatError naming ``pair {i}``, or
    as ``edge(i)`` gives it: (where, u, v).  Pairs in lexicographic order (as
    ``save_edge_list`` writes them) skip the sort; the strict-increase check
    also rules out repeats.
    """
    shift = max(int(n - 1).bit_length(), 1)  # bits of an id
    bad = (us >= vs) | (us < 0) | (vs >= n)
    stop = int(bad.argmax()) if bad.any() else us.size
    if stop == us.size:
        keys = (us << shift) | vs
        if np.all(keys[1:] > keys[:-1]):
            return keys, shift
        keys.sort()
        if np.all(keys[1:] > keys[:-1]):
            return keys, shift
    # Error path: a repeat among the valid pairs before `stop` comes first.
    keys = (us[:stop] << shift) | vs[:stop]
    repeat = np.ones(stop, dtype=bool)
    repeat[np.unique(keys, return_index=True)[1]] = False
    if repeat.any():
        stop = int(repeat.argmax())
    where, u, v = edge(stop) if edge else (f"pair {stop}", int(us[stop]), int(vs[stop]))
    raise GraphFormatError(f"{where}: {_pair_fault(u, v, n)}")


def _from_keys(n: int, keys: np.ndarray, shift: int) -> Graph:
    """The graph of ``_validated_keys``'s keys; ``keys`` is reused for the upper ends."""
    up = np.bincount(keys >> shift, minlength=n)
    return _layout(n, up, np.bitwise_and(keys, (1 << shift) - 1, out=keys))


def _pair_fault(u: int, v: int, n: int) -> str:
    """Why the pair (u, v) is rejected, if it is not a repeat."""
    if u == v:
        return f"self-loop at vertex {u}"
    if not (0 <= u < n and 0 <= v < n):
        return f"edge ({u}, {v}) out of range for {n} vertices"
    if u > v:
        return f"edge ({u}, {v}): endpoints must satisfy u < v"
    return f"duplicate edge ({u}, {v})"


def gather_rows(graph: Graph, verts: np.ndarray) -> np.ndarray:
    """Concatenate the neighbour rows of ``verts`` without a Python loop."""
    return _gather(graph.indices, *_spans(graph.indptr, verts))


def _spans(indptr: np.ndarray, verts: np.ndarray):
    """Row starts and lengths of ``verts``, and each row's end in their concatenation."""
    starts = indptr[verts]
    sizes = indptr[verts + 1] - starts
    return starts, sizes, np.cumsum(sizes)


def _gather(indices, starts, sizes, ends) -> np.ndarray:
    if not ends.size or not ends[-1]:
        return np.empty(0, dtype=indices.dtype)
    idx = np.repeat(starts - ends + sizes, sizes)
    idx += np.arange(ends[-1])
    return indices[idx]


def count_by_vertex(ids: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ids of ``ids`` in increasing order, and how often each occurs.

    Past n ids an n-slot ``np.bincount`` beats the sort (measured at n = 20000, 200000).
    """
    if ids.size <= n:
        return np.unique(ids, return_counts=True)
    tally = np.bincount(ids, minlength=n)
    distinct = np.flatnonzero(tally)
    return distinct, tally[distinct]


# Label of a vertex that a run of ``spread`` may still reach.
UNREACHED = -1


def spread(graph: Graph, label: np.ndarray, frontier: np.ndarray, left: int,
           r: int = 1, hits: np.ndarray | None = None, wave: int = 0) -> list[np.ndarray]:
    """Run threshold-r waves from ``frontier`` (wave ``wave``); return each later wave.

    ``label[v]`` is UNREACHED while v may still be reached, then the wave that
    reached it; vertices below UNREACHED are outside the run.  v is reached once
    r neighbours are; for r > 1, ``hits`` carries each unreached vertex's reached
    neighbours up to ``frontier`` from call to call, exact for unreached vertices
    only.  ``left`` counts the unreached, and the run stops at 0, never gathering
    the rows of a final frontier with nothing to reach.  Each wave pushes (the
    frontier's rows) or pulls (every unreached vertex's rows, recounted), as
    ``_pull`` rules (Beamer, Asanovic and Patterson, SC 2012).
    """
    indptr, indices, n = graph.indptr, graph.indices, graph.vertex_count
    waves: list[np.ndarray] = []
    while frontier.size and left > 0:
        starts, sizes, ends = _spans(indptr, frontier)
        pull = _pull(indptr, label, int(ends[-1]), n)
        if pull is None:
            nbrs = _gather(indices, starts, sizes, ends)
            nbrs = nbrs[label[nbrs] == UNREACHED]
            if not nbrs.size:
                break
            cand, counts = count_by_vertex(nbrs, n)
            if hits is not None:
                counts += hits[cand]
        else:
            cand, spans = pull
            reached = np.zeros(spans[2][-1] + 1, dtype=np.int32)
            np.cumsum(label[_gather(indices, *spans)] >= 0, dtype=np.int32, out=reached[1:])
            counts = np.diff(reached[spans[2]], prepend=0)
        if hits is not None:
            hits[cand] = counts
        frontier = cand[counts >= r]
        if not frontier.size:
            break
        wave += 1
        label[frontier] = wave
        left -= frontier.size
        waves.append(frontier)
    return waves


def _pull(indptr: np.ndarray, label: np.ndarray, push: int, n: int):
    """The unreached vertices and their row spans if a wave should pull them, else None.

    Pulling is weighed, at the cost of an O(n) scan for the unreached, only when
    the push would gather more than n entries, and chosen when the pull gathers
    fewer.  A BFS of G(200000, d/n), d = 40 and 160, took 17-20 ns a pulled entry
    and 14-34 ns a pushed one.
    """
    if push <= n:
        return None
    unreached = np.flatnonzero(label == UNREACHED)  # not empty while a run has some left
    spans = _spans(indptr, unreached)
    return (unreached, spans) if spans[2][-1] < push else None


@dataclass(frozen=True)
class GnpParams:
    """Parameters of one G(n, p) draw."""

    n: int
    p: float
    rng_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", checked_int(self.n, "n"))
        object.__setattr__(self, "rng_seed", checked_int(self.rng_seed, "rng_seed"))
        if self.n > _MAX_N:
            raise ValueError(f"n must lie in [0, {_MAX_N}]")
        if not (0.0 <= checked_real(self.p, "p") <= 1.0):
            raise ValueError("p must lie in [0, 1]")


def sample_gnp(params: GnpParams) -> Graph:
    """Sample G(n, p): every unordered pair is an edge independently with prob p.

    Sparse draws walk the lexicographic pair order with geometric skip
    lengths (Batagelj and Brandes, Phys. Rev. E 71, 2005), so the cost is
    O(n + m) rather than O(n^2).  At p = 1 every skip is 1, so the same
    stream yields every pair (the complete graph is then the memory bound).
    The same params, including the seed, always reproduce the identical graph.

    The skips are those of ``rng.geometric(p)`` (see ``_geometric``).  A pair
    rank decodes to its row u by a search of the row starts and to v by one
    subtraction; the pairs are valid by construction, so they go to
    ``_layout``, which ``Graph.from_edges`` also ends in, with no validation.
    """
    n, p = params.n, params.p
    npairs = n * (n - 1) // 2
    if npairs == 0 or p == 0.0:
        return Graph.empty(n)
    rng = np.random.Generator(np.random.PCG64(params.rng_seed))
    linear = _skip_sample(rng, npairs, p)
    # The rank of (u, v) is offset[u] + v; row u's ranks start at offset[u] + u + 1.
    u_range = np.arange(n, dtype=np.int64)
    offset = u_range * n - (u_range * (u_range + 3)) // 2 - 1
    up = np.diff(np.searchsorted(linear, offset + u_range + 1), append=linear.size)
    vs = np.empty(linear.size, dtype=np.int32)
    np.subtract(linear, np.repeat(offset, up), out=vs, casting="unsafe")
    del linear  # the layout below is the memory peak
    return _layout(n, up, vs)


# Below this p numpy's Generator.geometric inverts; from it up it searches the CDF.
_SEARCH_P = 1 / 3


def _geometric(rng: np.random.Generator, p: float, size: int) -> np.ndarray:
    """The values of ``rng.geometric(p, size)``, as float64, from the same stream.

    Below ``_SEARCH_P`` numpy draws ceil(-E / log1p(-p)), E standard exponential;
    written out here, log1p runs once, not per draw.  The CDF search above has
    no such shortcut.  Unlike numpy, a draw past 2^63 is not cut to INT64_MAX.
    """
    if p >= _SEARCH_P:
        return rng.geometric(p, size=size).astype(np.float64)
    skips = rng.standard_exponential(size)
    with np.errstate(over="ignore"):  # a subnormal p gives inf, which stays a long skip
        skips /= -math.log1p(-p)
    return np.ceil(skips, out=skips)


def _skip_sample(rng: np.random.Generator, npairs: int, p: float) -> np.ndarray:
    """Positions of successes in a length-``npairs`` Bernoulli(p) stream, increasing.

    Skips are clamped to ``npairs + 1``, which ends the stream all the same, so
    the running sum cannot overflow at tiny p.  A skip below 1 raises.
    """
    chunks: list[np.ndarray] = []
    cursor = -1
    while True:
        remaining = npairs - cursor  # > 0
        expect = remaining * p
        size = int(expect + 8.0 * math.sqrt(expect + 1.0) + 16.0)
        skips = _geometric(rng, p, size)
        np.minimum(skips, npairs + 1, out=skips)
        if skips.min() < 1.0:
            raise RuntimeError(f"geometric skip {skips.min()} below 1 at p = {p}")
        positions = skips.astype(np.int64)
        del skips
        np.cumsum(positions, out=positions)
        positions += cursor
        if positions[-1] >= npairs:
            chunks.append(positions[: np.searchsorted(positions, npairs)])
            break
        chunks.append(positions)
        cursor = int(positions[-1])
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def _layout(n: int, up: np.ndarray, vs: np.ndarray) -> Graph:
    """CSR of the pairs u < v given by their ends ``vs`` in (u, v) order, ``up[u]`` per u.

    Each row holds its lower neighbours, then its higher ones, which are ``vs``
    in order.  The lower ones come from one value sort of the keys
    (v << bits) | u, int32 up to n = 2^15 and int64 above; a boolean slot mask
    places both, so no argsort runs over the 2m arcs.
    """
    bits = max(int(n - 1).bit_length(), 1)  # bits of an id
    keys = vs.astype(np.int32 if 2 * bits <= 31 else np.int64)
    keys <<= bits
    keys |= np.repeat(np.arange(n, dtype=keys.dtype), up)
    keys.sort()
    down = np.bincount(vs, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(up + down, out=indptr[1:])
    # per row: `down` lower-neighbour slots, then `up` higher-neighbour slots
    upper_slot = np.repeat(np.tile([False, True], n), np.column_stack((down, up)).ravel())
    indices = np.empty(2 * vs.size, dtype=np.int32)
    indices[upper_slot] = vs
    indices[~upper_slot] = np.bitwise_and(keys, (1 << bits) - 1, out=keys)
    return Graph(n, indptr, indices)


def connected_components(
    graph: Graph, restrict: Iterable[int] | None = None
) -> list[list[int]]:
    """Components of the subgraph induced on ``restrict`` (whole graph if None).

    Returned as sorted member lists, ordered by size descending and then by
    smallest member id ascending, so callers can take the head as "largest".
    Members with no neighbour in ``restrict`` are found in one numpy pass;
    ``_reach`` runs once for each other component.
    """
    n = graph.vertex_count
    members = np.arange(n) if restrict is None else as_vertex_array(restrict, n)
    label = np.full(n, UNREACHED - 1, dtype=np.int32)  # outside the restriction
    label[members] = UNREACHED
    # A member that no member's row lists has no neighbour inside: a component of its own.
    linked = np.zeros(n, dtype=bool)
    linked[graph.indices if restrict is None else gather_rows(graph, members)] = True
    lone = members[~linked[members]]
    label[lone] = UNREACHED - 1  # so no BFS starts from one
    # No earlier component neighbours an unreached member, so a pull counts
    # only the current run's vertices as reached.
    left, components = members.size - lone.size, []
    for v in members.tolist():
        if label[v] == UNREACHED:
            component = _reach(graph, v, label, left)
            left -= component.size
            components.append(np.sort(component).tolist())
    components.sort(key=lambda c: (-len(c), c[0]))
    return components + [[v] for v in lone.tolist()]  # every other component has 2 or more


def is_connected(graph: Graph) -> bool:
    """True when every vertex is reachable from vertex 0 (and n <= 1 trivially)."""
    n = graph.vertex_count
    return n <= 1 or _reach(graph, 0, np.full(n, UNREACHED, dtype=np.int32), n).size == n


def _reach(graph: Graph, start: int, label: np.ndarray, left: int) -> np.ndarray:
    """The vertices reachable from ``start`` through unreached ones, wave by wave.

    A threshold-1 run of ``spread``: ``left`` counts the unreached vertices,
    ``start`` included, and the ones returned are labelled reached.
    """
    label[start] = 0
    frontier = np.array([start], dtype=np.int64)
    return np.concatenate([frontier, *spread(graph, label, frontier, left - 1)])


def induced_edge_count(graph: Graph, subset: Iterable[int]) -> int:
    """Number of edges with both endpoints in ``subset``."""
    arr = as_vertex_array(subset, graph.vertex_count)
    if arr.size < 2:
        return 0
    mask = np.zeros(graph.vertex_count, dtype=bool)
    mask[arr] = True
    nbrs = gather_rows(graph, arr)
    return int(np.count_nonzero(mask[nbrs])) // 2


def load_edge_list(path) -> Graph:
    """Read the header ``n m`` and m lines ``u v`` (0-indexed, u < v, any order).

    Ids are ASCII digits, fields are separated by spaces or tabs, lines end in
    LF or CRLF and blank lines are skipped.  Any other byte, a self-loop, a
    repeat, an id out of range, a wrong count or n above 2^31 raises
    GraphFormatError naming the earliest faulty line.  Every layout takes one
    parse: ``_well_formed`` checks the body on the positions of its bytes below
    ``"0"``, and one ``np.fromstring`` reads the ids.
    """
    with open(path, "rb") as fh:
        header = fh.readline()
        body = fh.read()
    parts = _fields(header)
    if len(parts) != 2:
        raise GraphFormatError("line 1: expected header 'n m'")
    if not all(part.isdigit() for part in parts):  # ASCII digits only, as in the body
        raise GraphFormatError("line 1: expected two integers 'n m'")
    n, m = int(parts[0]), int(parts[1])
    if n > _MAX_N:
        raise GraphFormatError(f"line 1: vertex count {n} above {_MAX_N}")
    body, count, fault = _well_formed(body, m)
    ids = np.fromstring(body, dtype=np.int64, sep=" ") if count else np.empty(0, np.int64)
    keys, shift = _validated_keys(n, ids[0::2], ids[1::2], lambda i: _edge_text(body, i))
    if fault:
        raise GraphFormatError(fault)
    del body, ids  # the layout below is the memory peak
    return _from_keys(n, keys, shift)


def _well_formed(body: bytes, m: int) -> tuple[bytes, int, str | None]:
    """The whole edge lines of ``body`` before its earliest layout fault, their
    count, and that fault's message (None for a well-formed body of m edges).

    The bytes below ``"0"`` separate the tokens.  In a well-formed body they are
    all blanks (a space, a tab, an LF or the CR of a CRLF), and the run of them
    after token t holds an LF, or ends the body, exactly when t is odd.  Touching
    separators (a CRLF, a blank line) are grouped into runs only when some touch.
    """
    buf = np.frombuffer(body, dtype=np.uint8)
    below = buf < ord("0")
    touching = bool(np.any(below[1:] & below[:-1]))
    at = np.flatnonzero(below)
    del below
    kinds = buf[at]
    lf = kinds == ord("\n")
    blank = lf | (kinds == ord(" ")) | (kinds == ord("\t"))
    if touching:
        touch = np.diff(at) == 1
        blank[:-1] |= (kinds[:-1] == ord("\r")) & lf[1:] & touch  # the CR of a CRLF
        lf = np.logical_or.reduceat(lf, np.flatnonzero(np.concatenate(([True], ~touch))))
    strays = [] if blank.all() else [int(at[blank.argmin()])]
    if buf.size and buf.max() > ord("9"):
        strays.append(int(np.argmax(buf > ord("9"))))
    if buf.size and buf[-1] >= ord("0"):
        lf = np.append(lf, True)
    lf[-1:] = True  # the end of the body closes the last line
    after = lf[int(buf.size > 0 and buf[0] < ord("0")) :]  # after[t]: an LF follows token t
    misplaced = [2 * m] if after.size > 2 * m else []  # token indices
    if after[0::2].any():
        misplaced.append(2 * int(after[0::2].argmax()))
    if not after[1::2].all():
        misplaced.append(2 * int(after[1::2].argmin()) + 1)
    count = after.size // 2
    if not (strays or misplaced):
        return body, count, None if count == m else f"expected {m} edges, found {count}"
    starts = _token_starts(body)
    at = min(strays + [int(starts[t]) for t in misplaced])
    start = body.rfind(b"\n", 0, at) + 1  # the faulty line's first byte
    count = int(np.searchsorted(starts, start)) // 2
    fields = _fields(body[start : body.find(b"\n", at) + 1 or None])  # up to its LF, if any
    line = body.count(b"\n", 0, at) + 2
    kind = "expected 'u v'" if len(fields) != 2 else "expected two integers"
    return body[:start], count, f"line {line}: " + (f"more than {m} edges" if count == m else kind)


def _fields(line: bytes) -> list[bytes]:
    """The fields of one line: an LF or CRLF ending dropped, then split at spaces and tabs."""
    text = line[:-1].removesuffix(b"\r") if line.endswith(b"\n") else line
    return [field for field in text.replace(b"\t", b" ").split(b" ") if field]


def _token_starts(body: bytes) -> np.ndarray:
    """Offsets of the tokens of ``body``, the runs of bytes from ``"0"`` up."""
    below = np.concatenate(([True], np.frombuffer(body, dtype=np.uint8) < ord("0")))
    return np.flatnonzero(below[:-1] & ~below[1:])


def _edge_text(body: bytes, i: int) -> tuple[str, int, int]:
    """Edge i of well-formed ``body`` as ``("line L", u, v)``, with its ids as the
    file spells them (``np.fromstring`` saturates an id too wide for int64)."""
    start = int(_token_starts(body)[2 * i])
    u, v = body[start:].split(maxsplit=2)[:2]
    line = body.count(b"\n", 0, start) + 2
    return f"line {line}", int(u), int(v)


# Edges formatted per call of _format_pairs; bounds its scratch memory.
_FORMAT_CHUNK = 1 << 20


def save_edge_list(graph: Graph, path) -> None:
    """Write the format ``load_edge_list`` reads: the header, then the edges
    in lexicographic order as ``np.savetxt(fh, pairs, fmt="%d")`` writes them."""
    rows = np.repeat(np.arange(graph.vertex_count, dtype=graph.indices.dtype), graph.degrees)
    upper = rows < graph.indices
    pairs = np.column_stack((rows[upper], graph.indices[upper]))
    with open(path, "wb") as fh:
        fh.write(f"{graph.vertex_count} {graph.edge_count}\n".encode())
        top = int(pairs[:, 1].max(initial=0))
        text = _digit_records(np.arange(top + 1), len(str(top)))
        for at in range(0, len(pairs), _FORMAT_CHUNK):
            fh.write(_format_pairs(pairs[at : at + _FORMAT_CHUNK], text))


def _digit_records(ids: np.ndarray, width: int) -> np.ndarray:
    """Each id's text, built once, as V{width + 1} records: ``text[2 i]`` holds
    ``ids[i]`` right-aligned in width + 1 bytes ending in a space, ``text[2 i + 1]``
    the same ending in an LF; the leading cells are NUL, which no line holds."""
    chars = np.zeros((ids.size, 2, width + 1), dtype=np.uint8)
    chars[:, :, width] = (ord(" "), ord("\n"))
    for place in range(width):
        higher = ids // 10
        digits = ids - 10 * higher + ord("0")
        if place:
            digits[ids == 0] = 0
        chars[:, :, width - 1 - place] = digits[:, None]
        ids = higher
    return chars.view(np.dtype((np.void, width + 1))).ravel()


def _format_pairs(pairs: np.ndarray, text: np.ndarray) -> np.ndarray:
    """Lines ``"u v\\n"`` of the pairs of record indices ``pairs``, as one uint8 array."""
    at = np.multiply(pairs, 2, dtype=np.int64)
    at[:, 1] += 1  # the LF-ended record of v
    chars = np.take(text, at).view(np.uint8)
    return chars[chars != 0]
