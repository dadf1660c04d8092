"""Length-squared sampling trees over streamed matrix entries.

One complete binary tree per row holds squared entries at the leaves and
subtree sums at internal nodes, so a leaf can be drawn with probability
proportional to its squared value in one root-to-leaf walk. A second tree of
the same kind over the squared row norms picks rows proportional to their
share of the squared Frobenius norm. Entry signs are kept beside the leaves;
the trees themselves only ever see squared weights.

Updates recompute each ancestor as the exact sum of its two children rather
than propagating deltas, so the stored floats depend only on the final set of
leaf values, never on arrival order.

Bulk construction (``MatrixStore.from_dense`` and ``deserialize``) builds each
level in numpy from the one below, as left child + right child with an absent
child counting as 0.0. Those are the same IEEE additions on the same operands
that one insert per cell performs, so a bulk-built store is bit-identical to
one filled insert by insert: same levels, signs and serialized bytes. After a
bulk build ``node_touches`` counts the tree nodes written, one per stored
node, rather than the per-insert path cost.
"""

from __future__ import annotations

import struct
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from .errors import EmptyRowError, MatrixError, StoreFormatError

_MAGIC = b"QRST"
_VERSION = 1
_HEADER = struct.Struct("<4sIQQQ")
_ROW_COUNT = struct.Struct("<Q")
# One leaf record, u64 column, f64 squared weight, i8 sign: packed, 17 bytes.
_LEAF_DTYPE = np.dtype([("column", "<u8"), ("weight", "<f8"), ("sign", "i1")])
# Bulk builds and dense reads go this many rows at a time to bound scratch memory.
_BLOCK_ROWS = 64
# Largest row or column count that ``ingest_triplets`` (inferred or given) and
# a ``deserialize`` header accept. A store allocates its row trees up front
# (about 1.3 KB per row at this width) and every consumer densifies it to m x n
# float64 (2 GiB at the cap), so one bad index or header would exhaust memory.
MAX_INGEST_DIM = 1 << 14


def _leaf_depth(count: int) -> int:
    """Tree depth for ``count`` leaves padded to the next power of two."""
    if count < 1:
        raise MatrixError(f"leaf count must be >= 1, got {count}")
    return int(count - 1).bit_length()


class RowTree:
    """Prefix-sum tree over one row of squared amplitudes.

    ``levels[t]`` maps a t-bit prefix (as an integer) to the total squared
    weight of leaves whose index starts with that prefix; ``levels[depth]``
    holds the leaves themselves and ``levels[0][0]`` is the row's squared
    norm. Absent nodes weigh zero. An explicitly inserted zero is stored as a
    zero-weight leaf so the set of populated cells is part of the state.
    """

    __slots__ = ("size", "depth", "levels", "signs")

    def __init__(self, size: int):
        self.size = int(size)
        self.depth = _leaf_depth(self.size)
        self.levels: list[dict[int, float]] = [{} for _ in range(self.depth + 1)]
        self.signs: dict[int, int] = {}

    @property
    def root(self) -> float:
        return self.levels[0].get(0, 0.0)

    def leaf_weight(self, j: int) -> float:
        return self.levels[self.depth].get(j, 0.0)

    def sign(self, j: int) -> int:
        return self.signs.get(j, 0)

    def amplitude(self, j: int) -> float:
        """Signed entry value sign_j * sqrt(weight_j)."""
        return self.sign(j) * float(np.sqrt(self.leaf_weight(j)))

    def node_weight(self, t: int, prefix: int) -> float:
        if not 0 <= t <= self.depth:
            raise MatrixError(f"depth {t} outside [0, {self.depth}]")
        if not 0 <= prefix < (1 << t):
            raise MatrixError(f"prefix {prefix} is not a {t}-bit value")
        return self.levels[t].get(prefix, 0.0)

    def update(self, j: int, weight: float, sign: int) -> int:
        """Set leaf j to ``weight`` and refresh its ancestors.

        Returns the number of tree nodes written (depth + 1). Each ancestor
        is recomputed as left child + right child, which keeps stored sums
        independent of the order updates arrive in.
        """
        if not 0 <= j < self.size:
            raise MatrixError(f"leaf index {j} outside [0, {self.size})")
        if not np.isfinite(weight) or weight < 0.0:
            raise MatrixError(f"leaf weight must be finite and >= 0, got {weight}")
        self.levels[self.depth][j] = float(weight)
        self.signs[j] = int(sign)
        for t in range(self.depth - 1, -1, -1):
            prefix = j >> (self.depth - t)
            child = self.levels[t + 1]
            self.levels[t][prefix] = child.get(2 * prefix, 0.0) + child.get(2 * prefix + 1, 0.0)
        return self.depth + 1

    def insert(self, j: int, value: float) -> int:
        if not np.isfinite(value):
            raise MatrixError(f"entry value must be finite, got {value}")
        return self.update(j, value * value, int(np.sign(value)))

    def sample(self, rng: np.random.Generator) -> int:
        """Draw a leaf with probability weight_j / root."""
        if self.root <= 0.0:
            raise EmptyRowError("empty-row sample: row has zero total weight")
        prefix = 0
        for t in range(self.depth):
            child = self.levels[t + 1]
            left = child.get(2 * prefix, 0.0)
            right = child.get(2 * prefix + 1, 0.0)
            if rng.random() * (left + right) < left:
                prefix = 2 * prefix
            else:
                prefix = 2 * prefix + 1
        return prefix


def _fill_levels(
    trees: list[RowTree],
    owner: np.ndarray,
    keys: np.ndarray,
    weights: np.ndarray,
    signs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Fill empty trees of one depth from their leaves, a whole level at a time.

    Leaf k belongs to ``trees[owner[k]]`` at column ``keys[k]``; the pairs
    (owner, key) are sorted, distinct and not empty. Each parent is left child + right
    child with an absent child as 0.0, exactly as ``RowTree.update`` sums it.
    Returns the owners that hold a leaf, their root weights, and the number
    of nodes written.
    """
    depth = trees[0].depth
    written = 0
    for t in range(depth, -1, -1):
        if t < depth:
            parent = keys >> 1
            first = np.ones(keys.size, dtype=bool)
            first[1:] = (owner[1:] != owner[:-1]) | (parent[1:] != parent[:-1])
            slot = np.cumsum(first) - 1
            right = (keys & 1) == 1
            left_w = np.zeros(int(slot[-1]) + 1)
            right_w = np.zeros_like(left_w)
            left_w[slot[~right]] = weights[~right]
            right_w[slot[right]] = weights[right]
            weights = left_w + right_w
            owner, keys = owner[first], parent[first]
        bounds = np.searchsorted(owner, np.arange(len(trees) + 1)).tolist()
        key_list, weight_list = keys.tolist(), weights.tolist()
        sign_list = signs.tolist() if t == depth else None
        for k, tree in enumerate(trees):
            lo, hi = bounds[k], bounds[k + 1]
            if lo == hi:
                continue
            tree_keys = key_list[lo:hi]
            tree.levels[t] = dict(zip(tree_keys, weight_list[lo:hi]))
            if sign_list is not None:
                tree.signs = dict(zip(tree_keys, sign_list[lo:hi]))
        written += keys.size
    return owner, weights, written


class MatrixStore:
    """Streamed m x n matrix with row trees and a row-norm tree.

    ``entry_count`` counts distinct populated cells; re-inserting a cell
    overwrites its value. ``node_touches`` accumulates tree-node writes and
    ``last_insert_touches`` holds the cost of the most recent insert, for
    verifying the logarithmic update bound.
    """

    def __init__(self, m: int, n: int):
        if m < 1 or n < 1:
            raise MatrixError(f"store shape must be >= 1x1, got {m}x{n}")
        self.m = int(m)
        self.n = int(n)
        self.rows = [RowTree(self.n) for _ in range(self.m)]
        self.norm_tree = RowTree(self.m)
        self.node_touches = 0
        self.last_insert_touches = 0
        self._entry_count = 0

    @property
    def entry_count(self) -> int:
        return self._entry_count

    def insert(self, i: int, j: int, value: float) -> int:
        """Record A[i, j] = value, overwriting any previous value there.

        Touches at most ceil(log2 n) + ceil(log2 m) + 2 tree nodes: the leaf
        and its ancestors in the row tree, then the row's leaf and ancestors
        in the norm tree.
        """
        if not 0 <= i < self.m:
            raise MatrixError(f"row index {i} outside [0, {self.m})")
        row = self.rows[i]
        fresh = j not in row.levels[row.depth] if 0 <= j < row.size else False
        touches = row.insert(j, value)
        touches += self.norm_tree.update(i, row.root, 1)
        if fresh:
            self._entry_count += 1
        self.node_touches += touches
        self.last_insert_touches = touches
        return touches

    # -- queries ---------------------------------------------------------

    def row_norm(self, i: int) -> float:
        self._check_row(i)
        return float(np.sqrt(self.rows[i].root))

    def frobenius_sq(self) -> float:
        return self.norm_tree.root

    def frobenius_norm(self) -> float:
        return float(np.sqrt(self.norm_tree.root))

    def subtree_weight(self, i: int, prefix: str) -> float:
        """Squared weight under the row-i subtree addressed by a bit string.

        The empty prefix addresses the row root (the squared row norm).
        """
        self._check_row(i)
        if any(c not in "01" for c in prefix):
            raise MatrixError(f"prefix must be a bit string, got {prefix!r}")
        tree = self.rows[i]
        if len(prefix) > tree.depth:
            raise MatrixError(f"prefix longer than tree depth {tree.depth}: {prefix!r}")
        key = int(prefix, 2) if prefix else 0
        return tree.node_weight(len(prefix), key)

    def entry(self, i: int, j: int) -> float:
        self._check_row(i)
        if not 0 <= j < self.n:
            raise MatrixError(f"column index {j} outside [0, {self.n})")
        return self.rows[i].amplitude(j)

    def row_dense(self, i: int) -> np.ndarray:
        self._check_row(i)
        return self._dense(range(i, i + 1))[0]

    def to_dense(self) -> np.ndarray:
        return self._dense(range(self.m))

    def _dense(self, rows: range) -> np.ndarray:
        """Signed entries sign_j * sqrt(weight_j) of a run of rows, gathered
        a block of rows at a time to bound scratch memory."""
        out = np.zeros((len(rows), self.n))
        for first in range(0, len(rows), _BLOCK_ROWS):
            block = rows[first : first + _BLOCK_ROWS]
            counts, cols, weights, signs = self._leaves(block)
            at = first + np.repeat(np.arange(len(block)), counts)
            out[at, cols] = signs * np.sqrt(weights)
        return out

    def _leaves(self, rows: range) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray]:
        """Per-row leaf counts, then column, weight and sign of every populated
        cell of ``rows``, ordered by row and then column."""
        trees = [self.rows[i] for i in rows]
        cols = [sorted(tree.levels[tree.depth]) for tree in trees]
        counts = [len(c) for c in cols]
        total = sum(counts)
        weights = chain.from_iterable(
            map(tree.levels[tree.depth].__getitem__, c) for tree, c in zip(trees, cols)
        )
        signs = chain.from_iterable(map(tree.signs.__getitem__, c) for tree, c in zip(trees, cols))
        return (
            counts,
            np.fromiter(chain.from_iterable(cols), dtype=np.uint64, count=total),
            np.fromiter(weights, dtype=np.float64, count=total),
            np.fromiter(signs, dtype=np.int8, count=total),
        )

    # -- sampling --------------------------------------------------------

    def l2_sample_in_row(self, i: int, rng: np.random.Generator) -> int:
        """Column j with probability A_ij^2 / ||A_i||^2."""
        self._check_row(i)
        return self.rows[i].sample(rng)

    def l2_sample_row_index(self, rng: np.random.Generator) -> int:
        """Row i with probability ||A_i||^2 / ||A||_F^2."""
        if self.norm_tree.root <= 0.0:
            raise EmptyRowError("empty-store sample: no nonzero entries")
        return self.norm_tree.sample(rng)

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

        Built level by level in bulk (see the module docstring): the result is
        bit-identical to inserting each nonzero cell, and ``node_touches``
        counts the nodes written.
        """
        arr = np.asarray(a, dtype=np.float64)
        if arr.ndim != 2 or arr.size == 0:
            raise MatrixError(f"expected a non-empty 2-d matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise MatrixError("matrix entries must be finite")
        store = cls(arr.shape[0], arr.shape[1])

        def blocks():
            for first in range(0, store.m, _BLOCK_ROWS):
                block = arr[first : first + _BLOCK_ROWS]
                rows, cols = np.nonzero(block)
                values = block[rows, cols]
                yield rows, cols, values * values, np.sign(values).astype(np.int8)

        store._bulk_build(blocks())
        return store

    def _bulk_build(self, blocks: Iterable[tuple[np.ndarray, ...]]) -> None:
        """Fill an empty store from its leaves, one block of rows at a time.

        Block b covers rows from b * _BLOCK_ROWS on and holds (row within the
        block, column, weight, sign) arrays, sorted by row and column and free
        of duplicates. A row enters the norm tree when it has at least one
        leaf, as it does after its first insert.
        """
        filled, roots = [], []
        written = entries = 0
        for block, (rows, cols, weights, signs) in enumerate(blocks):
            if rows.size == 0:
                continue
            first_row = block * _BLOCK_ROWS
            owner, root, count = _fill_levels(
                self.rows[first_row : first_row + _BLOCK_ROWS], rows, cols, weights, signs
            )
            filled.append(owner + first_row)
            roots.append(root)
            written += count
            entries += rows.size
        if filled:
            populated = np.concatenate(filled)
            _, _, count = _fill_levels(
                [self.norm_tree],
                np.zeros(populated.size, dtype=np.intp),
                populated,
                np.concatenate(roots),
                np.ones(populated.size, dtype=np.int8),
            )
            written += count
        self._entry_count = entries
        self.node_touches = written

    # -- serialization ---------------------------------------------------

    def serialize(self) -> bytes:
        """Versioned binary snapshot; weights and signs survive bit-exactly.

        Layout (little endian): magic 'QRST', u32 version, u64 m, u64 n,
        u64 entry_count, then per row a u64 leaf count followed by
        (u64 column, f64 squared weight, i8 sign) records in column order.
        Internal nodes are recomputed on load, which reproduces them exactly
        because every stored sum is a pure function of the leaf values.
        """
        counts, cols, weights, signs = self._leaves(range(self.m))
        records = np.empty(cols.size, dtype=_LEAF_DTYPE)
        records["column"], records["weight"], records["sign"] = cols, weights, signs
        body = memoryview(records.tobytes())
        parts = [_HEADER.pack(_MAGIC, _VERSION, self.m, self.n, self._entry_count)]
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
        trailing bytes and an entry count unlike the header's are rejected too.
        The trees are bulk-built as in ``from_dense``, bit-identical to
        inserting each record, and ``node_touches`` counts the nodes written.
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
        edges = np.searchsorted(rows, range(0, m + _BLOCK_ROWS, _BLOCK_ROWS)).tolist()
        store._bulk_build(
            (rows[lo:hi] - first, cols[lo:hi], weights[lo:hi], signs[lo:hi])
            for first, lo, hi in zip(range(0, m, _BLOCK_ROWS), edges, edges[1:])
        )
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
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 3:
            raise StoreFormatError(f"line {lineno}: expected i,j,value, got {raw!r}", offset=lineno)
        try:
            i, j = int(fields[0]), int(fields[1])
            value = float(fields[2])
        except ValueError as exc:
            raise StoreFormatError(f"line {lineno}: {exc}", offset=lineno) from exc
        if i < 0 or j < 0:
            raise StoreFormatError(f"line {lineno}: negative index", offset=lineno)
        if not np.isfinite(value):
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
