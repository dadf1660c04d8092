"""Length-squared sampling trees over streamed matrix entries.

One complete binary tree per row holds squared entries at the leaves and
subtree sums at internal nodes, so a leaf can be drawn with probability
proportional to its squared value in one root-to-leaf walk. A second tree of
the same kind over the squared row norms picks rows proportional to their
share of the squared Frobenius norm. Entry signs are kept beside the leaves;
the trees themselves only ever see squared weights.

Every tree lives in a ``TreeTable``: one heap-ordered float64 array with a
row per tree, where node (t, prefix) of tree i sits at column 2^t + prefix
(the root at column 1, the leaves from column 2^depth), plus a sign and a
held flag per leaf. A node with no written leaf below it holds +0.0.

Updates carry the new sum up the leaf's path, so each ancestor is the exact
sum of its two children rather than an old sum plus a delta, and the stored
floats depend only on the final set of leaf values, never on arrival order.
``MatrixStore.insert`` is one checked pass: it validates the cell and value
once, carries the squared value up the row tree and the new row root up the
norm tree, and writes signs and held flags only once ||A||_F^2 is finite.
Otherwise it carries the old leaf weight back up both paths, which puts
every node back to its earlier bits, and refuses the entry.
Bulk construction (``from_dense`` and ``deserialize``) writes the leaves and
then forms each level from the one below as left child + right child, the
same IEEE additions on the same operands that one insert per cell performs
(addition commutes, so an insert's path sum + sibling is the same), so a
bulk-built store is bit-identical to one filled insert by insert: same
nodes, signs and serialized bytes. After a bulk build ``node_touches``
counts one write per node on the path of a written leaf, rather than the
per-insert path cost.
"""

from __future__ import annotations

import math
import struct
from typing import Iterable, Iterator

import numpy as np

from .errors import EmptyRowError, MatrixError, StoreFormatError
from .linalg import as_matrix, check_count

_MAGIC = b"QRST"
_VERSION = 1
_HEADER = struct.Struct("<4sIQQQ")
_ROW_COUNT = struct.Struct("<Q")
# One leaf record, u64 column, f64 squared weight, i8 sign: packed, 17 bytes.
_LEAF_DTYPE = np.dtype([("column", "<u8"), ("weight", "<f8"), ("sign", "i1")])
# Largest row or column count that ``ingest_triplets`` (inferred or given) and
# a ``deserialize`` header accept. The row trees are dense whatever the
# sparsity: m * 2^(ceil(log2 n) + 1) * 8 bytes of nodes plus 2 mn bytes of
# signs and flags, 18 MiB at 1024 x 1024 and about 4.5 GiB at this cap, where
# every consumer also densifies the store to m x n float64 (2 GiB), so one bad
# index or header would exhaust memory.
MAX_INGEST_DIM = 1 << 14


class TreeTable:
    """``m`` prefix-sum trees over ``n`` squared amplitudes each, kept as
    ``count`` and ``size`` (integers in [1, MAX_INGEST_DIM]); the leaves are
    padded to 2**depth.

    ``nodes[i, 2**t + prefix]`` is the total squared weight of tree i's
    leaves whose index starts with the t-bit ``prefix``; column 1 is the
    root and ``leaves`` are the columns from 2**depth on. ``signs`` holds
    each leaf's sign and ``held`` whether it was ever written: an explicitly
    inserted zero is a held zero-weight leaf, so the set of populated cells
    is part of the state. Single-entry reads and writes go through a flat
    memoryview of ``nodes`` in Python floats; bulk loads write the arrays
    and call ``fill``. Each of these takes tree i as row i of ``nodes`` and
    rejects an i outside [0, count), which would read or write another
    tree's row.
    """

    __slots__ = ("count", "size", "depth", "nodes", "signs", "held", "_flat", "_signs", "_held")

    def __init__(self, m: int, n: int):
        check_count(1, MAX_INGEST_DIM, m=m, n=n)
        self.count = int(m)
        self.size = int(n)
        self.depth = (self.size - 1).bit_length()
        self.nodes = np.zeros((self.count, 2 << self.depth))
        self.signs = np.zeros((self.count, self.size), dtype=np.int8)
        self.held = np.zeros((self.count, self.size), dtype=bool)
        self._flat = memoryview(self.nodes.reshape(-1))
        self._signs = memoryview(self.signs.reshape(-1))
        self._held = memoryview(self.held.reshape(-1))

    @property
    def leaves(self) -> np.ndarray:
        """Leaf weights, one row per tree (a view of ``nodes``)."""
        first = 1 << self.depth
        return self.nodes[:, first : first + self.size]

    def root(self, i: int) -> float:
        if not 0 <= i < self.count:
            raise MatrixError(f"row index {i} outside [0, {self.count})")
        return self._flat[i * (2 << self.depth) + 1]

    def amplitude(self, i: int, j: int) -> float:
        """Signed entry value sign_j * sqrt(weight_j) of tree i."""
        weight, sign, _ = self.leaf(i, j)
        return float(sign * np.sqrt(weight))

    def node_weight(self, i: int, t: int, prefix: int) -> float:
        if not 0 <= i < self.count:
            raise MatrixError(f"row index {i} outside [0, {self.count})")
        if not 0 <= t <= self.depth:
            raise MatrixError(f"depth {t} outside [0, {self.depth}]")
        if not 0 <= prefix < (1 << t):
            raise MatrixError(f"prefix {prefix} is not a {t}-bit value")
        return self._flat[i * (2 << self.depth) + (1 << t) + prefix]

    def update(self, i: int, j: int, weight: float, sign: int) -> int:
        """Set leaf j of tree i to ``weight`` and refresh its ancestors.

        Returns the number of tree nodes written (depth + 1).
        """
        if not 0 <= i < self.count:
            raise MatrixError(f"row index {i} outside [0, {self.count})")
        if not 0 <= j < self.size:
            raise MatrixError(f"leaf index {j} outside [0, {self.size})")
        if not math.isfinite(weight) or weight < 0.0:
            raise MatrixError(f"leaf weight must be finite and >= 0, got {weight}")
        self._carry(i, j, float(weight))
        self._signs[i * self.size + j] = int(sign)
        self._held[i * self.size + j] = True
        return self.depth + 1

    def _carry(self, i: int, j: int, weight: float) -> float:
        """Write ``weight`` at leaf j of tree i, carry the new sum up its path
        and return the new root; neither checks i, j or weight nor touches the
        sign and held flag. One sibling read per level, so each ancestor is
        left child + right child bit for bit (see the module docstring)."""
        width = 2 << self.depth
        tree = self._flat[i * width : (i + 1) * width]
        k = (width >> 1) + j
        tree[k] = total = weight
        while k > 1:
            total += tree[k ^ 1]
            k >>= 1
            tree[k] = total
        return total

    def leaf(self, i: int, j: int) -> tuple[float, int, bool]:
        """Leaf j of tree i as (weight, sign, held)."""
        if not 0 <= i < self.count:
            raise MatrixError(f"row index {i} outside [0, {self.count})")
        if not 0 <= j < self.size:
            raise MatrixError(f"leaf index {j} outside [0, {self.size})")
        k = i * self.size + j
        weight = self._flat[i * (2 << self.depth) + (1 << self.depth) + j]
        return weight, self._signs[k], self._held[k]

    def insert(self, i: int, j: int, value: float) -> int:
        if not math.isfinite(value):
            raise MatrixError(f"entry value must be finite, got {value}")
        return self.update(i, j, value * value, int(value > 0.0) - int(value < 0.0))

    def sample(self, i: int, rng: np.random.Generator) -> int:
        """Draw a leaf of tree i with probability weight_j / root.

        The walk takes one uniform per level, all ``depth`` of them from one
        ``rng.random(depth)`` block: the same doubles, in the same order, as
        one ``rng.random()`` per level. It never enters a zero-weight child:
        when rounding picks one (u * (left + 0) can round up to a subnormal
        ``left``), it takes the positive sibling, so the drawn leaf always
        has positive weight.
        """
        if not 0 <= i < self.count:
            raise MatrixError(f"row index {i} outside [0, {self.count})")
        width = 2 << self.depth
        tree = self._flat[i * width : (i + 1) * width]
        if tree[1] <= 0.0:
            raise EmptyRowError("empty-row sample: row has zero total weight")
        k = 1
        for u in rng.random(self.depth).tolist():
            k += k
            left, right = tree[k], tree[k + 1]
            if u * (left + right) >= left and right > 0.0:
                k += 1
        return k - (width >> 1)

    def _held_leaves(self) -> np.ndarray:
        """``held`` padded with False to the 2**depth leaf columns."""
        out = np.zeros((self.count, 1 << self.depth), dtype=bool)
        out[:, : self.size] = self.held
        return out

    def fill(self) -> int:
        """Recompute every internal node from the leaves, a level at a time.

        Each parent is left child + right child, the sum ``update`` makes, so
        a filled table is bit-identical to one written leaf by leaf. Returns
        the number of nodes on the path of a held leaf.
        """
        live = self._held_leaves()
        written = np.count_nonzero(live)
        lo = 1 << self.depth
        while lo > 1:
            np.add(
                self.nodes[:, lo : 2 * lo : 2],
                self.nodes[:, lo + 1 : 2 * lo : 2],
                out=self.nodes[:, lo >> 1 : lo],
            )
            live = live[:, 0::2] | live[:, 1::2]
            written += np.count_nonzero(live)
            lo >>= 1
        return int(written)

    def states(self) -> np.ndarray:
        """Amplitudes of every tree's conditional-rotation cascade, a row per tree.

        Level by level, each node's amplitude splits between its children as
        amp * sqrt(child / node), and the leaves then take their signs: the
        leaves normalized by the root, by the mechanism the store supports
        on hardware. Only a child of positive weight, or a held leaf, under
        a reached node is reached; every other amplitude is +0.0, and so is
        every amplitude of a tree whose root is not positive.
        """
        amp = np.ones((self.count, 1))
        reach = self.nodes[:, 1:2] > 0.0
        held = self._held_leaves()
        for t in range(self.depth):
            lo = 1 << t
            kids = self.nodes[:, 2 * lo : 4 * lo].reshape(self.count, lo, 2)
            opened = kids > 0.0
            if t == self.depth - 1:
                opened |= held.reshape(self.count, lo, 2)
            reach = reach[:, :, None] & opened
            ratio = np.divide(
                kids, self.nodes[:, lo : 2 * lo, None], out=np.zeros_like(kids), where=reach
            )
            amp = (amp[:, :, None] * np.sqrt(ratio)).reshape(self.count, 2 * lo)
            reach = reach.reshape(self.count, 2 * lo)
        size = self.size
        return np.where(reach[:, :size], amp[:, :size] * self.signs, 0.0)


class MatrixStore:
    """Streamed m x n matrix with row trees and a row-norm tree.

    ``entry_count`` counts distinct populated cells; re-inserting a cell
    overwrites its value. ``node_touches`` accumulates tree-node writes, and
    ``insert`` returns its own, for verifying the logarithmic update bound.
    """

    def __init__(self, m: int, n: int):
        self.rows = TreeTable(m, n)
        self.m = self.rows.count
        self.n = self.rows.size
        self.norm_tree = TreeTable(1, self.m)
        self.node_touches = 0

    @property
    def entry_count(self) -> int:
        return int(np.count_nonzero(self.rows.held))

    def insert(self, i: int, j: int, value: float) -> int:
        """Record A[i, j] = value, overwriting any previous value there.

        One checked pass: i, j and value are validated once, value^2 is
        carried up row i's tree and the new row root up the norm tree.
        Touches at most ceil(log2 n) + ceil(log2 m) + 2 tree nodes: the leaf
        and its ancestors in the row tree, then the row's leaf and ancestors
        in the norm tree. When the new ||A||_F^2 is not finite, the old leaf
        weight is carried back up both paths, which returns every node to
        its earlier bits, and MatrixError is raised; signs, held flags and
        ``node_touches`` are written only after that check, so a refused
        insert leaves the store exactly as it was.
        """
        rows, norm = self.rows, self.norm_tree
        if not 0 <= i < self.m:
            raise MatrixError(f"row index {i} outside [0, {self.m})")
        if not 0 <= j < self.n:
            raise MatrixError(f"leaf index {j} outside [0, {self.n})")
        try:
            finite = math.isfinite(value)  # TypeError on a str, OverflowError on 10**309
        except (TypeError, OverflowError):
            finite = False
        if not finite:
            raise MatrixError(f"entry value must be a finite real number, got {value!r}")
        value = float(value)
        old = rows._flat[((2 * i + 1) << rows.depth) + j]
        if not math.isfinite(norm._carry(0, i, rows._carry(i, j, value * value))):
            norm._carry(0, i, rows._carry(i, j, old))
            raise MatrixError(f"entry ({i}, {j}) too large: ||A||_F^2 overflows")
        rows._signs[i * self.n + j] = int(value > 0.0) - int(value < 0.0)
        rows._held[i * self.n + j] = True
        norm._signs[i] = 1
        norm._held[i] = True
        touches = rows.depth + norm.depth + 2
        self.node_touches += touches
        return touches

    # -- queries ---------------------------------------------------------

    def row_norm(self, i: int) -> float:
        return float(np.sqrt(self.rows.root(i)))

    def frobenius_sq(self) -> float:
        return self.norm_tree.root(0)

    def frobenius_norm(self) -> float:
        return float(np.sqrt(self.norm_tree.root(0)))

    def subtree_weight(self, i: int, prefix: str) -> float:
        """Squared weight under the row-i subtree addressed by a bit string.

        The empty prefix addresses the row root (the squared row norm).
        """
        self._check_row(i)
        if any(c not in "01" for c in prefix):
            raise MatrixError(f"prefix must be a bit string, got {prefix!r}")
        depth = self.rows.depth
        if len(prefix) > depth:
            raise MatrixError(f"prefix longer than tree depth {depth}: {prefix!r}")
        key = int(prefix, 2) if prefix else 0
        return self.rows.node_weight(i, len(prefix), key)

    def entry(self, i: int, j: int) -> float:
        self._check_row(i)
        if not 0 <= j < self.n:
            raise MatrixError(f"column index {j} outside [0, {self.n})")
        return self.rows.amplitude(i, j)

    def row_dense(self, i: int) -> np.ndarray:
        self._check_row(i)
        return self._dense(slice(i, i + 1))[0]

    def to_dense(self) -> np.ndarray:
        return self._dense(slice(None))

    def _dense(self, rows: slice) -> np.ndarray:
        """Signed entries sign_j * sqrt(weight_j) of a run of rows."""
        out = np.sqrt(self.rows.leaves[rows])
        out *= self.rows.signs[rows]
        return out

    # -- sampling --------------------------------------------------------

    def l2_sample_in_row(self, i: int, rng: np.random.Generator) -> int:
        """Column j with probability A_ij^2 / ||A_i||^2."""
        return self.rows.sample(i, rng)

    def l2_sample_row_index(self, rng: np.random.Generator) -> int:
        """Row i with probability ||A_i||^2 / ||A||_F^2."""
        if self.norm_tree.root(0) <= 0.0:
            raise EmptyRowError("empty-store sample: no nonzero entries")
        return self.norm_tree.sample(0, rng)

    def sample_entry(self, rng: np.random.Generator) -> tuple[int, int]:
        i = self.l2_sample_row_index(rng)
        return i, self.l2_sample_in_row(i, rng)

    def _check_row(self, i: int) -> None:
        if not 0 <= i < self.m:
            raise MatrixError(f"row index {i} outside [0, {self.m})")

    # -- construction ----------------------------------------------------

    @classmethod
    def from_dense(cls, a) -> "MatrixStore":
        """Store holding every nonzero cell of a dense matrix.

        Built in bulk (see the module docstring): the result is bit-identical
        to inserting each nonzero cell, and ``node_touches`` counts the nodes
        on a written leaf's path. Raises MatrixError when ``linalg.as_matrix``
        rejects the input or when a squared entry or ||A||_F^2 overflows.
        """
        arr = as_matrix(a)
        store = cls(arr.shape[0], arr.shape[1])
        rows = store.rows
        with np.errstate(over="ignore"):
            np.multiply(arr, arr, out=rows.leaves)
        np.sign(arr, out=rows.signs, casting="unsafe")
        np.not_equal(arr, 0.0, out=rows.held)
        if not store._fill():
            raise MatrixError("entries too large: ||A||_F^2 overflows")
        return store

    def _fill(self) -> bool:
        """Sum every internal node after a bulk load of the row leaves, and
        report whether ||A||_F^2 is finite.

        A row enters the norm tree, with sign 1, when it holds a leaf, as it
        does after its first insert. A leaf or partial sum that overflows
        makes the norm tree's root inf, so the root alone is checked.
        """
        norm = self.norm_tree
        with np.errstate(over="ignore"):
            written = self.rows.fill()
            norm.held[0] = self.rows.held.any(axis=1)
            norm.signs[0] = norm.held[0]
            norm.leaves[0] = self.rows.nodes[:, 1]
            self.node_touches = written + norm.fill()
        return math.isfinite(norm.root(0))

    # -- serialization ---------------------------------------------------

    def serialize(self) -> bytes:
        """Versioned binary snapshot; weights and signs survive bit-exactly.

        Layout (little endian): magic 'QRST', u32 version, u64 m, u64 n,
        u64 entry_count, then per row a u64 leaf count followed by
        (u64 column, f64 squared weight, i8 sign) records in column order.
        Internal nodes are recomputed on load, which reproduces them exactly
        because every stored sum is a pure function of the leaf values.
        """
        rows, cols = np.nonzero(self.rows.held)
        records = np.empty(cols.size, dtype=_LEAF_DTYPE)
        records["column"] = cols
        records["weight"] = self.rows.leaves[rows, cols]
        records["sign"] = self.rows.signs[rows, cols]
        counts = np.count_nonzero(self.rows.held, axis=1).tolist()
        body = memoryview(records.tobytes())
        parts = [_HEADER.pack(_MAGIC, _VERSION, self.m, self.n, cols.size)]
        offset = 0
        for count in counts:
            end = offset + count * _LEAF_DTYPE.itemsize
            parts += (_ROW_COUNT.pack(count), body[offset:end])
            offset = end
        return b"".join(parts)

    @classmethod
    def deserialize(cls, blob: bytes) -> "MatrixStore":
        """Load a ``serialize`` blob; any malformed byte raises StoreFormatError.

        Rejected, at the offset of the first bad record: a column outside
        [0, n), a weight that is negative or not finite, a sign outside
        {-1, 0, 1}, and a column not above the one before it in its row
        (duplicate or out of order). A shape over MAX_INGEST_DIM, truncation,
        trailing bytes, an entry count unlike the header's and weights whose
        sum overflows are rejected too.
        The trees are bulk-built as in ``from_dense``, bit-identical to
        inserting each record, and ``node_touches`` counts the nodes on a
        written leaf's path.
        """
        if len(blob) < _HEADER.size:
            raise StoreFormatError("truncated header", offset=len(blob))
        magic, version, m, n, count = _HEADER.unpack_from(blob, 0)
        if magic != _MAGIC:
            raise StoreFormatError(f"bad magic {magic!r}", offset=0)
        if version != _VERSION:
            raise StoreFormatError(f"unsupported version {version}", offset=4)
        if not (1 <= m <= MAX_INGEST_DIM and 1 <= n <= MAX_INGEST_DIM):
            raise StoreFormatError(f"invalid shape {m}x{n} (limit {MAX_INGEST_DIM})", offset=8)
        # Walk the row headers first; records that precede a truncation are
        # still checked, so the earliest fault in the blob is the one reported.
        starts, counts, segments = [], [], []
        truncated = None
        offset = _HEADER.size
        view = memoryview(blob)
        for i in range(m):
            if offset + _ROW_COUNT.size > len(blob):
                truncated = StoreFormatError(f"truncated row header for row {i}", offset=offset)
                break
            (row_count,) = _ROW_COUNT.unpack_from(blob, offset)
            offset += _ROW_COUNT.size
            whole = min(row_count, (len(blob) - offset) // _LEAF_DTYPE.itemsize)
            starts.append(offset)
            counts.append(whole)
            segments.append(view[offset : offset + whole * _LEAF_DTYPE.itemsize])
            offset += whole * _LEAF_DTYPE.itemsize
            if whole < row_count:
                truncated = StoreFormatError(f"truncated leaf record in row {i}", offset=offset)
                break
        records = np.frombuffer(b"".join(segments), dtype=_LEAF_DTYPE)
        rows = np.repeat(np.arange(len(counts)), counts)
        cols, weights, signs = records["column"], records["weight"], records["sign"]
        unordered = np.zeros(rows.size, dtype=bool)
        unordered[1:] = (rows[1:] == rows[:-1]) & (cols[1:] <= cols[:-1])
        checks = (
            (cols >= n, "column {col} out of range in row {row}"),
            (~np.isfinite(weights) | (weights < 0.0), "invalid weight {weight} in row {row}"),
            ((signs < -1) | (signs > 1), "invalid sign {sign} in row {row}"),
            (unordered, "column {col} duplicated or out of order in row {row}"),
        )
        bad = np.logical_or.reduce([mask for mask, _ in checks])
        if bad.any():
            k = int(np.argmax(bad))
            row = int(rows[k])
            message = next(text for mask, text in checks if mask[k]).format(
                col=int(cols[k]), weight=float(weights[k]), sign=int(signs[k]), row=row
            )
            raise StoreFormatError(
                message,
                offset=starts[row] + (k - sum(counts[:row])) * _LEAF_DTYPE.itemsize,
            )
        if truncated is not None:
            raise truncated
        if offset != len(blob):
            raise StoreFormatError("trailing bytes after last row", offset=offset)
        if rows.size != count:
            raise StoreFormatError(
                f"entry count mismatch: header says {count}, found {rows.size}",
                offset=_HEADER.size - 8,
            )
        store = cls(m, n)
        table = store.rows
        table.leaves[rows, cols] = weights
        table.signs[rows, cols] = signs
        table.held[rows, cols] = True
        if not store._fill():
            raise StoreFormatError("weights too large: ||A||_F^2 overflows")
        return store

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.serialize())

    @classmethod
    def load(cls, path) -> "MatrixStore":
        with open(path, "rb") as fh:
            return cls.deserialize(fh.read())


# -- triplet text format ---------------------------------------------------


def parse_triplets(lines: Iterable[str]) -> Iterator[tuple[int, int, float]]:
    """Yield (row, column, value) from ``i,j,value`` lines (0-based indices).

    Blank lines and lines starting with '#' are skipped. Malformed lines
    raise StoreFormatError carrying the 1-based line number.
    """
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        if len(fields) != 3:
            raise StoreFormatError(f"line {lineno}: expected i,j,value, got {raw!r}", offset=lineno)
        try:
            i, j, value = int(fields[0]), int(fields[1]), float(fields[2])
        except ValueError:
            # int() and float() skip the whitespace around a field, but their
            # messages quote it: parse the stripped fields for the message.
            fields = [f.strip() for f in fields]
            try:
                i, j, value = int(fields[0]), int(fields[1]), float(fields[2])
            except ValueError as exc:
                raise StoreFormatError(f"line {lineno}: {exc}", offset=lineno) from exc
        if i < 0 or j < 0:
            raise StoreFormatError(f"line {lineno}: negative index", offset=lineno)
        if not math.isfinite(value):
            raise StoreFormatError(f"line {lineno}: non-finite value", offset=lineno)
        yield i, j, value


def ingest_triplets(lines: Iterable[str], m: int | None = None, n: int | None = None) -> MatrixStore:
    """Build a store from triplet lines, inferring the shape when absent."""
    triplets = list(parse_triplets(lines))
    if (m is None or n is None) and not triplets:
        raise StoreFormatError("cannot infer shape from an empty triplet stream")
    m = max(t[0] for t in triplets) + 1 if m is None else m
    n = max(t[1] for t in triplets) + 1 if n is None else n
    if m > MAX_INGEST_DIM or n > MAX_INGEST_DIM:
        raise StoreFormatError(
            f"shape {m}x{n} exceeds the ingest limit of {MAX_INGEST_DIM} rows or columns"
        )
    store = MatrixStore(m, n)
    for i, j, value in triplets:
        if i >= store.m or j >= store.n:
            raise StoreFormatError(f"entry ({i},{j}) outside declared shape {store.m}x{store.n}")
        store.insert(i, j, value)
    return store
