"""Interference graphs.

A directed edge (u, v) means unit u's treatment can enter unit v's outcome,
so the object every estimator consumes is the in-neighborhood N_v. Each unit
is always a member of its own neighborhood; constructors enforce the implicit
self-loop so callers never have to remember it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, TextIO

import numpy as np

from .errors import GeometryError, InputError

__all__ = [
    "InterferenceGraph",
    "from_edge_list",
    "to_edge_list",
    "cycle_power",
    "sbm_sample",
    "load_edge_list",
    "save_edge_list",
]

# unit pairs drawn at once by sbm_sample; bounds its per-block arrays
_PAIRS = 1 << 16


def _frozen(a, dtype, name: str) -> np.ndarray:
    """a as a read-only array of dtype: a itself when it already is one and
    owns its data (a builder's fresh array), else a copy, so no writable
    array of a caller is ever kept. A non-empty array named name that is to
    hold integers must hold them already: its values are not truncated."""
    a = np.asarray(a)
    if a.dtype == dtype and a.flags.owndata and not a.flags.writeable:
        return a
    if np.dtype(dtype).kind == "i" and a.size and a.dtype.kind not in "iu":
        raise InputError(f"{name} must hold integers, got {a.dtype}")
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class InterferenceGraph:
    """Immutable CSR in-neighborhood view of an interference network.

    Attributes
    ----------
    indptr, indices : read-only int64 arrays
        Unit i's in-neighborhood N_i, every unit whose treatment can affect
        unit i, is indices[indptr[i]:indptr[i + 1]]: sorted ascending and
        always including i itself. Units are labeled 0..n-1, n = len(indptr) - 1.

    Two graphs are equal when their arrays are.
    """

    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self) -> None:
        indptr = _frozen(self.indptr, np.int64, "indptr")
        indices = _frozen(self.indices, np.int64, "indices")
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        n = indptr.size - 1
        if n <= 0:
            raise InputError(f"graph needs at least one unit, got n={n}")
        sizes = np.diff(indptr)
        if indptr[0] != 0 or np.any(sizes < 0) or indptr[-1] != indices.size:
            raise InputError(f"indptr does not delimit {indices.size} neighbors in {n} rows")
        owner = np.repeat(np.arange(n), sizes)
        # per unit, in the order checked: self loop, range, sorted and unique
        bad = np.zeros((3, n), dtype=bool)
        bad[0] = np.bincount(owner[indices == owner], minlength=n) == 0
        bad[1, owner[(indices < 0) | (indices >= n)]] = True
        bad[2, owner[1:][(owner[1:] == owner[:-1]) & (indices[1:] <= indices[:-1])]] = True
        if bad.any():
            i = int(np.flatnonzero(bad.any(axis=0))[0])
            raise InputError(
                [
                    f"unit {i} missing from its own neighborhood",
                    f"unit {i} has a neighbor outside [0, {n})",
                    f"neighborhood of unit {i} is not sorted and unique",
                ][int(np.argmax(bad[:, i]))]
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, InterferenceGraph):
            return NotImplemented
        return self is other or (
            np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    @property
    def n(self) -> int:
        return self.indptr.size - 1

    @property
    def degrees(self) -> np.ndarray:
        """Neighborhood sizes |N_i| (self included), as an int array."""
        return np.diff(self.indptr)


def _unique(keys: np.ndarray) -> np.ndarray:
    """The distinct entries of keys, ascending: np.unique's values by one sort
    and a neighbour compare (numpy 2's flagless np.unique hashes instead,
    which is slower on these CSR keys and imports numpy.ma)."""
    s = np.sort(keys, axis=None)
    keep = np.empty(s.size, dtype=bool)
    keep[:1] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def _csr(keys: np.ndarray, rows: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR arrays (indptr, cols) of the sorted unique keys row * width + col:
    row i holds cols[indptr[i]:indptr[i + 1]], ascending."""
    indptr = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // width, minlength=rows), out=indptr[1:])
    return indptr, keys % width


def _from_pairs(n: int, dst: np.ndarray, src: np.ndarray) -> InterferenceGraph:
    """The graph with src in N_dst for every pair, plus the implicit self
    loops (forced here, so callers never have to remember them); repeated
    pairs collapse."""
    keys = _unique(np.concatenate([dst * n + src, np.arange(n, dtype=np.int64) * (n + 1)]))
    return InterferenceGraph(*_csr(keys, n, n))


def from_edge_list(edges: list[tuple[int, int]], n: int) -> InterferenceGraph:
    """Build a graph from directed (src, dst) pairs on n units.

    Each pair states that src's treatment reaches dst. Duplicate pairs are
    collapsed and self-loops are added for every unit regardless of input.

    Raises
    ------
    InputError
        If an endpoint falls outside [0, n); the message carries the
        0-based index of the offending pair.
    """
    if n <= 0:
        raise InputError(f"graph needs at least one unit, got n={n}")
    pairs = np.array(edges, dtype=np.int64).reshape(len(edges), 2)
    out = np.flatnonzero(((pairs < 0) | (pairs >= n)).any(axis=1))
    if out.size:
        src, dst = pairs[out[0]].tolist()
        raise InputError(f"edge {out[0]}: endpoint ({src}, {dst}) out of range for n={n}")
    return _from_pairs(n, pairs[:, 1], pairs[:, 0])


def to_edge_list(g: InterferenceGraph) -> list[tuple[int, int]]:
    """All directed (src, dst) pairs except the implicit self-loops."""
    dst = np.repeat(np.arange(g.n), g.degrees)
    keep = g.indices != dst
    return list(zip(g.indices[keep].tolist(), dst[keep].tolist()))


def cycle_power(n: int, r: int) -> InterferenceGraph:
    """Cycle power graph: unit i is affected by the r nearest units on each
    side of the cycle, so |N_i| = 2r + 1 for every unit.

    Raises
    ------
    GeometryError
        If r < 0 or n <= 2r, in which case the wrap-around neighborhoods
        would collide with themselves.
    """
    if r < 0:
        raise GeometryError(f"cycle power radius must be nonnegative, got r={r}")
    if n <= 2 * r:
        raise GeometryError(f"cycle power needs n > 2r, got n={n}, r={r}")
    rows = (np.arange(n)[:, None] + np.arange(-r, r + 1)) % n
    rows.sort(axis=1)
    return InterferenceGraph(np.arange(n + 1) * (2 * r + 1), rows.ravel())


def sbm_sample(
    n: int, num_blocks: int, pi_in: float, pi_out: float, seed: int
) -> InterferenceGraph:
    """Sample a symmetric stochastic block model with equal contiguous blocks.

    Units [0, n) are split into num_blocks contiguous blocks of size
    n / num_blocks. Each unordered pair {i, j} is connected independently
    with probability pi_in when the two units share a block and pi_out
    otherwise; a realized connection adds both directed edges.

    Parameters
    ----------
    seed : int
        Feeds numpy's default_rng; the same seed always yields the same graph.

    Raises
    ------
    GeometryError
        If num_blocks does not divide n.
    InputError
        If either probability falls outside [0, 1], or seed is negative.
    """
    if num_blocks <= 0 or n % num_blocks != 0:
        raise GeometryError(
            f"num_blocks={num_blocks} must be positive and divide n={n}"
        )
    for name, val in (("pi_in", pi_in), ("pi_out", pi_out)):
        if not (0.0 <= val <= 1.0):
            raise InputError(f"{name}={val} is not a probability")
    if seed < 0:
        raise InputError(f"seed must be nonnegative, got {seed}")
    size = n // num_blocks
    rng = np.random.default_rng(seed)
    # pairs (i, j > i) in row-major order, a block of whole rows at a time;
    # drawing rng.random chunk by chunk gives the same stream as one draw
    unit = np.arange(n, dtype=np.int64)
    lengths = n - 1 - unit
    ends = np.cumsum(lengths)
    first = ends - lengths  # row i's pairs are numbered first[i]..ends[i]-1
    # row i's pairs run pi_in up to the end of its block, then pi_out
    inside = (unit // size + 1) * size - 1 - unit
    runs = np.column_stack([inside, lengths - inside]).ravel()
    probs = np.tile(np.array([pi_in, pi_out], dtype=np.float64), n)
    kept: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
    a = 0
    while a < n:
        done = int(first[a])
        b = max(a + 1, int(np.searchsorted(ends, done + _PAIRS, side="right")))
        thr = np.repeat(probs[2 * a : 2 * b], runs[2 * a : 2 * b])
        kept.append(np.flatnonzero(rng.random(thr.size) < thr) + done)
        a = b
    # pair number p of row i is (i, i + 1 + p - first[i])
    pair = np.concatenate(kept)
    iu = np.searchsorted(ends, pair, side="right")
    ju = pair - first[iu] + iu + 1
    return _from_pairs(n, np.concatenate([iu, ju]), np.concatenate([ju, iu]))


# ---------------------------------------------------------------------------
# text round-trip: "n=<count>" header, then one "src<TAB>dst" line per edge
# ---------------------------------------------------------------------------


def _write_lines(lines: Iterable[str], out: str | TextIO) -> None:
    """Write text lines to a path, or to an open text stream."""
    if hasattr(out, "write"):
        out.writelines(lines)
        return
    with open(out, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def _read_lines(path: str) -> Iterator[tuple[str, str]]:
    """Each line of the UTF-8 text file at path, as (where, line) with where
    "<path>: line <n>" (1-based) for error messages. A file that does not
    decode raises InputError naming path."""
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                yield f"{path}: line {lineno}", line
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: {exc}") from None


def save_edge_list(g: InterferenceGraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"n={g.n}\n")
        for src, dst in to_edge_list(g):
            fh.write(f"{src}\t{dst}\n")


def load_edge_list(path: str) -> InterferenceGraph:
    """Read a graph saved by save_edge_list.

    Lines starting with '#' and blank lines are skipped. The first payload
    line must be the "n=<count>" header. Malformed lines, and endpoints
    outside [0, n), raise InputError with their 1-based line number.
    """
    n: int | None = None
    edges: list[tuple[int, int]] = []
    for where, raw in _read_lines(path):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            if not line.startswith("n="):
                raise InputError(f"{where}: expected 'n=<count>' header")
            try:
                n = int(line[2:])
            except ValueError:
                raise InputError(f"{where}: bad unit count {line[2:]!r}")
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise InputError(f"{where}: expected 'src<TAB>dst'")
        try:
            src, dst = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"{where}: non-integer endpoint")
        if not (0 <= src < n) or not (0 <= dst < n):
            raise InputError(f"{where}: endpoint ({src}, {dst}) out of range for n={n}")
        edges.append((src, dst))
    if n is None:
        raise InputError(f"{path}: missing 'n=<count>' header")
    return from_edge_list(edges, n)
