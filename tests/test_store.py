"""Sampling-tree store: weights, updates, sampling, serialization."""

import functools
import hashlib
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from qrecsim.errors import EmptyRowError, MatrixError, StoreFormatError
from qrecsim.store import MAX_INGEST_DIM, MatrixStore, TreeTable, ingest_triplets, parse_triplets

from oracles import leaf_scan_weights, prepare_vector_state, reference_insert

EXAMPLE_ROW = [0.4, 0.4, 0.8, 0.2]


def example_tree() -> TreeTable:
    tree = TreeTable(1, 4)
    for j, v in enumerate(EXAMPLE_ROW):
        tree.insert(0, j, v)
    return tree


class TestRowTree:
    """One row tree of a TreeTable."""

    def test_example_weights(self):
        tree = example_tree()
        assert tree.leaves[0, 0] == pytest.approx(0.16, abs=1e-12)
        assert tree.leaves[0, 2] == pytest.approx(0.64, abs=1e-12)
        assert tree.node_weight(0, 1, 0) == pytest.approx(0.32, abs=1e-12)
        assert tree.node_weight(0, 1, 1) == pytest.approx(0.68, abs=1e-12)
        assert tree.root(0) == pytest.approx(1.0, abs=1e-12)
        # Bit-exact against the IEEE sums of the squared inputs.
        sq = [v * v for v in EXAMPLE_ROW]
        assert tree.node_weight(0, 1, 0) == sq[0] + sq[1]
        assert tree.node_weight(0, 1, 1) == sq[2] + sq[3]
        assert tree.root(0) == (sq[0] + sq[1]) + (sq[2] + sq[3])

    def test_signs_kept_separately(self):
        tree = TreeTable(1, 4)
        tree.insert(0, 1, -0.5)
        assert tree.leaves[0, 1] == 0.25
        assert tree.signs[0, 1] == -1
        assert tree.amplitude(0, 1) == -0.5

    def test_explicit_zero_is_stored(self):
        tree = TreeTable(1, 4)
        tree.insert(0, 2, 0.0)
        assert tree.held[0, 2]
        assert tree.leaves[0, 2] == 0.0
        assert tree.signs[0, 2] == 0

    def test_overwrite_replaces(self):
        tree = example_tree()
        tree.insert(0, 2, -0.1)
        assert tree.amplitude(0, 2) == pytest.approx(-0.1, abs=1e-15)
        scan = leaf_scan_weights(tree)
        for (t, prefix), want in scan.items():
            assert tree.node_weight(0, t, prefix) == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_single_leaf_tree(self):
        tree = TreeTable(1, 1)
        assert tree.depth == 0
        touches = tree.insert(0, 0, -2.0)
        assert touches == 1
        assert tree.root(0) == 4.0
        assert tree.amplitude(0, 0) == -2.0

    def test_non_power_of_two_padding(self):
        tree = TreeTable(1, 5)
        assert tree.depth == 3
        tree.insert(0, 4, 1.0)
        assert tree.root(0) == 1.0
        with pytest.raises(MatrixError):
            tree.insert(0, 5, 1.0)

    def test_sample_empty_row_errors(self):
        with pytest.raises(EmptyRowError):
            TreeTable(1, 4).sample(0, np.random.default_rng(0))
        tree = TreeTable(1, 4)
        tree.insert(0, 0, 0.0)
        with pytest.raises(EmptyRowError):
            tree.sample(0, np.random.default_rng(0))

    def test_subnormal_weight_never_draws_a_zero_leaf(self):
        # 1.6e-162 squared is one subnormal ulp; u * (ulp + 0) rounds up to
        # the ulp for about half the draws, which once sent the walk into
        # the empty right subtree (columns 1 and 3, outside [0, 3)).
        store = MatrixStore.from_dense([[1.6e-162, 0.0, 0.0]])
        rng = np.random.default_rng(0)
        assert {store.l2_sample_in_row(0, rng) for _ in range(200)} == {0}
        assert {store.sample_entry(rng) for _ in range(200)} == {(0, 0)}

    def test_rejects_nonfinite(self):
        tree = TreeTable(1, 2)
        with pytest.raises(MatrixError):
            tree.insert(0, 0, np.inf)
        with pytest.raises(MatrixError):
            tree.update(0, 0, -1.0, 1)


class TestShapesAndAddresses:
    @pytest.mark.parametrize(
        "m, n, name",
        [(2.5, 3, "m"), (3, 2.0, "n"), (True, 3, "m"), (3, "3", "n"), (0, 3, "m"), (3, -1, "n"),
         (MAX_INGEST_DIM + 1, 1, "m"), (1, MAX_INGEST_DIM + 1, "n")],
    )
    def test_store_shape_takes_the_count_rule(self, m, n, name):
        # Rejected before any tree is allocated, by a store and by a direct
        # TreeTable caller: the norm tree alone of MAX_INGEST_DIM + 1 rows
        # would take 512 KiB.
        value = m if name == "m" else n
        want = f"{name} must be an integer in [1, {MAX_INGEST_DIM}], got {value!r}"
        for build in (MatrixStore, TreeTable):
            tracemalloc.start()
            try:
                with pytest.raises(MatrixError) as info:
                    build(m, n)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert str(info.value) == want
            assert peak < 1 << 16

    def test_numpy_integer_shape_accepted(self):
        store = MatrixStore(np.int64(2), np.uint16(MAX_INGEST_DIM))
        assert (type(store.m), store.m, store.n) == (int, 2, MAX_INGEST_DIM)

    def test_zero_leaf_count_rejected(self):
        want = rf"n must be an integer in \[1, {MAX_INGEST_DIM}\], got 0"
        with pytest.raises(MatrixError, match=want):
            TreeTable(1, 0)

    def test_node_address_checked(self):
        table = MatrixStore.from_dense([[1.0, 2.0, 3.0]]).rows  # depth 2
        assert table.node_weight(0, 2, 3) == 0.0
        for t in (-1, 3):
            with pytest.raises(MatrixError, match=rf"depth {t} outside \[0, 2\]"):
                table.node_weight(0, t, 0)
        for prefix in (-1, 2):
            with pytest.raises(MatrixError, match=f"prefix {prefix} is not a 1-bit value"):
                table.node_weight(0, 1, prefix)

    def test_entry_column_checked(self):
        store = MatrixStore.from_dense([[1.0, 2.0]])
        assert store.entry(0, 1) == 2.0
        for j in (-1, 2):
            with pytest.raises(MatrixError, match=rf"column index {j} outside \[0, 2\)"):
                store.entry(0, j)

    @pytest.mark.parametrize("i", [-1, 2, 5])
    @pytest.mark.parametrize(
        "method, args",
        [("root", ()), ("amplitude", (0,)), ("node_weight", (0, 0)), ("leaf", (0,)),
         ("update", (0, 1.0, 1)), ("insert", (0, 1.0)),
         ("sample", (np.random.default_rng(0),))],
    )
    def test_tree_index_checked(self, method, args, i):
        # In a 2-tree table, -1 would read or write tree 1, and 2 or 5 would
        # run past the heap array.
        table = TreeTable(2, 3)
        table.insert(0, 0, 1.0)
        table.insert(1, 2, -2.0)
        nodes, signs, held = table.nodes.copy(), table.signs.copy(), table.held.copy()
        with pytest.raises(MatrixError, match=rf"row index {i} outside \[0, 2\)"):
            getattr(table, method)(i, *args)
        assert table.nodes.tobytes() == nodes.tobytes()
        assert np.array_equal(table.signs, signs) and np.array_equal(table.held, held)

    def test_amplitude_column_checked(self):
        table = MatrixStore.from_dense([[1.0, -2.0]]).rows
        assert table.amplitude(0, 1) == -2.0
        for j in (-1, 2):
            with pytest.raises(MatrixError, match=rf"leaf index {j} outside \[0, 2\)"):
                table.amplitude(0, j)

    @pytest.mark.parametrize("i", [-1, 2])
    @pytest.mark.parametrize(
        "method, args",
        [("insert", (0, 1.0)), ("row_norm", ()), ("subtree_weight", ("0",)), ("entry", (0,)),
         ("row_dense", ()), ("l2_sample_in_row", (np.random.default_rng(0),))],
    )
    def test_store_row_checked(self, method, args, i):
        store = MatrixStore.from_dense([[1.0, 0.0], [0.0, 3.0]])
        blob = store.serialize()
        with pytest.raises(MatrixError, match=rf"row index {i} outside \[0, 2\)"):
            getattr(store, method)(i, *args)
        assert store.serialize() == blob


class TestMatrixStore:
    def test_row_norm_345(self):
        store = MatrixStore(2, 2)
        store.insert(0, 0, 3.0)
        store.insert(0, 1, 4.0)
        assert store.row_norm(0) == pytest.approx(5.0, abs=1e-12)
        assert store.row_norm(1) == 0.0

    def test_frobenius_accumulates(self):
        store = MatrixStore.from_dense([[3.0, 4.0], [0.0, 5.0]])
        assert store.frobenius_sq() == pytest.approx(50.0, abs=1e-12)
        assert store.frobenius_norm() == pytest.approx(np.sqrt(50.0), abs=1e-12)

    def test_entry_count_tracks_distinct_cells(self):
        store = MatrixStore(2, 2)
        assert store.entry_count == 0
        store.insert(0, 0, 1.0)
        store.insert(0, 1, 2.0)
        store.insert(0, 0, 3.0)  # overwrite
        assert store.entry_count == 2

    def test_node_touch_bound(self):
        m = n = 1024
        store = MatrixStore(m, n)
        bound = int(np.ceil(np.log2(n))) + int(np.ceil(np.log2(m))) + 2
        rng = np.random.default_rng(0)
        for _ in range(200):
            before = store.node_touches
            t = store.insert(int(rng.integers(m)), int(rng.integers(n)), float(rng.normal()))
            assert t <= bound
            assert store.node_touches == before + t

    def test_subtree_weight_prefixes(self):
        store = MatrixStore(1, 4)
        for j, v in enumerate(EXAMPLE_ROW):
            store.insert(0, j, v)
        assert store.subtree_weight(0, "") == pytest.approx(1.0, abs=1e-12)
        assert store.subtree_weight(0, "0") == pytest.approx(0.32, abs=1e-12)
        assert store.subtree_weight(0, "1") == pytest.approx(0.68, abs=1e-12)
        assert store.subtree_weight(0, "10") == pytest.approx(0.64, abs=1e-12)
        with pytest.raises(MatrixError):
            store.subtree_weight(0, "012")
        with pytest.raises(MatrixError):
            store.subtree_weight(0, "000")

    @pytest.mark.parametrize("row", [[1e200, 1.0], [1e154, 1e154]])
    def test_from_dense_rejects_overflowing_weights(self, row):
        # 1e200 squared overflows as a leaf, 1e154 only in the row sum; both
        # would leave ||A||_F^2 infinite, which insert refuses too.
        with pytest.raises(MatrixError, match="overflows"):
            MatrixStore.from_dense([row])

    @pytest.mark.parametrize(
        "before, cell",
        [
            ([(0, 0, 1e154)], (0, 1)),  # the row sum overflows
            ([(0, 0, 1e154)], (1, 0)),  # only the norm tree's root overflows
            ([(0, 0, 1e154), (1, 0, -2.0)], (1, 0)),  # over a held cell
        ],
    )
    def test_overflowing_insert_leaves_store_unchanged(self, before, cell):
        def filled() -> MatrixStore:
            store = MatrixStore(2, 3)
            for i, j, value in before:
                store.insert(i, j, value)
            return store

        store, twin = filled(), filled()
        with pytest.raises(MatrixError, match="overflows"):
            store.insert(*cell, 1e154)
        assert_same_store(store, twin)
        assert store.node_touches == twin.node_touches
        assert store.serialize() == twin.serialize()
        assert_same_store(MatrixStore.deserialize(store.serialize()), twin)
        assert store.insert(*cell, 1.0) == twin.insert(*cell, 1.0)
        assert_same_store(store, twin)

    @pytest.mark.parametrize(
        "value, message",
        [
            (1e200, r"entry \(0, 1\) too large: \|\|A\|\|_F\^2 overflows"),  # the square overflows
            (10**200, r"entry \(0, 1\) too large"),  # converts to 1e200
            (10**309, "must be a finite real number, got 1000"),  # past the float range
            ("1.0", "must be a finite real number, got '1.0'"),
            (None, "must be a finite real number, got None"),
            (math.nan, "must be a finite real number, got nan"),
        ],
        ids=["1e200", "10**200", "10**309", "str", "None", "nan"],
    )
    def test_refused_value_leaves_store_unchanged(self, value, message):
        store = MatrixStore.from_dense([[1.0, -2.0, 0.0], [0.0, 3.0, 0.0]])
        twin = MatrixStore.from_dense(store.to_dense())
        blob = store.serialize()
        with pytest.raises(MatrixError, match=message):
            store.insert(0, 1, value)
        assert_same_store(store, twin)
        assert store.node_touches == twin.node_touches
        assert store.serialize() == blob

    @pytest.mark.parametrize(
        "value, tree_message",
        [
            (1e200, "leaf weight must be finite and >= 0, got inf"),  # the square overflows
            (10**200, "leaf weight must be finite and >= 0, got inf"),  # converts to 1e200
            (10**309, None),
            ("1.0", None),
            (None, None),
            (math.nan, None),
        ],
        ids=["1e200", "10**200", "10**309", "str", "None", "nan"],
    )
    def test_tree_insert_refuses_what_the_store_insert_refuses(self, value, tree_message):
        # Both inserts take a value in the same way: the store's message, or,
        # for a square that overflows, the tree's leaf-weight refusal.
        store = MatrixStore.from_dense([[1.0, -2.0, 0.0], [0.0, 3.0, 0.0]])
        tree = MatrixStore.from_dense(store.to_dense()).rows
        before = [a.tobytes() for a in (tree.nodes, tree.signs, tree.held)]
        with pytest.raises(MatrixError) as refused:
            store.insert(0, 1, value)
        with pytest.raises(MatrixError) as info:
            tree.insert(0, 1, value)
        assert str(info.value) == (tree_message or str(refused.value))
        assert [a.tobytes() for a in (tree.nodes, tree.signs, tree.held)] == before

    @pytest.mark.parametrize("j", [-1, 3, 1 << 40])
    def test_insert_outside_the_columns_leaves_store_unchanged(self, j):
        store = MatrixStore.from_dense([[1.0, 0.0, -2.0], [0.0, 3.0, 0.0]])
        twin = MatrixStore.from_dense(store.to_dense())
        blob = store.serialize()
        with pytest.raises(MatrixError, match=f"leaf index {j} outside"):
            store.insert(1, j, 5.0)
        assert_same_store(store, twin)
        assert store.node_touches == twin.node_touches
        assert store.serialize() == blob

    def test_dense_round_trip(self):
        a = np.random.default_rng(3).normal(size=(5, 7))
        a[np.abs(a) < 0.3] = 0.0
        store = MatrixStore.from_dense(a)
        assert np.array_equal(store.to_dense(), a)
        assert np.array_equal(store.row_dense(2), a[2])

    def test_arrival_order_invariance_bitwise(self):
        rng = np.random.default_rng(9)
        entries = [
            (int(i), int(j), float(rng.normal()))
            for i in range(6)
            for j in range(6)
            if rng.random() < 0.7
        ]
        s1 = MatrixStore(6, 6)
        for i, j, v in entries:
            s1.insert(i, j, v)
        s2 = MatrixStore(6, 6)
        for idx in rng.permutation(len(entries)):
            i, j, v = entries[int(idx)]
            s2.insert(i, j, v)
        assert s1.serialize() == s2.serialize()


class TestSampling:
    def test_in_row_distribution_binomial(self):
        # Uniform four-way row: every frequency within 3 binomial sigmas.
        store = MatrixStore(1, 4)
        for j in range(4):
            store.insert(0, j, 0.5)
        rng = np.random.default_rng(2024)
        draws = 100_000
        counts = np.bincount(
            [store.l2_sample_in_row(0, rng) for _ in range(draws)], minlength=4
        )
        se = np.sqrt(0.25 * 0.75 / draws)
        assert np.all(np.abs(counts / draws - 0.25) <= 3.0 * se)

    def test_in_row_distribution_chisquare(self):
        values = [0.5, -1.5, 2.0, 0.0, 3.0, -0.25]
        store = MatrixStore(1, 6)
        for j, v in enumerate(values):
            store.insert(0, j, v)
        probs = np.array(values) ** 2 / np.sum(np.array(values) ** 2)
        rng = np.random.default_rng(77)
        draws = 30_000
        counts = np.bincount(
            [store.l2_sample_in_row(0, rng) for _ in range(draws)], minlength=6
        )
        keep = probs > 0
        assert counts[~keep].sum() == 0
        _, pvalue = stats.chisquare(counts[keep], f_exp=probs[keep] * draws)
        assert pvalue > 0.01

    def test_row_index_distribution(self):
        store = MatrixStore.from_dense([[3.0, 0.0], [0.0, 4.0], [0.0, 0.0]])
        rng = np.random.default_rng(5)
        draws = 40_000
        counts = np.bincount(
            [store.l2_sample_row_index(rng) for _ in range(draws)], minlength=3
        )
        assert counts[2] == 0
        _, pvalue = stats.chisquare(counts[:2], f_exp=np.array([9.0, 16.0]) / 25.0 * draws)
        assert pvalue > 0.01

    def test_example_row_marginals(self):
        store = MatrixStore(1, 4)
        for j, v in enumerate(EXAMPLE_ROW):
            store.insert(0, j, v)
        rng = np.random.default_rng(123)
        draws = 50_000
        counts = np.bincount(
            [store.l2_sample_in_row(0, rng) for _ in range(draws)], minlength=4
        )
        assert counts[2] / draws == pytest.approx(0.64, abs=0.01)
        assert counts[0] / draws == pytest.approx(0.16, abs=0.008)

    def test_seeded_sampling_reproducible(self):
        store = MatrixStore.from_dense(np.random.default_rng(1).normal(size=(4, 4)))
        a = [store.sample_entry(np.random.default_rng(10)) for _ in range(20)]
        b = [store.sample_entry(np.random.default_rng(10)) for _ in range(20)]
        assert a == b

    @pytest.mark.parametrize("m, n", [(1, 1), (2, 2), (129, 256)])
    def test_walk_draws_one_uniform_per_level(self, m, n):
        # A walk consumes exactly the doubles that one scalar rng.random()
        # per level would, and none when the row is empty.
        a = np.random.default_rng(4).normal(size=(m, n))
        a[0] = 0.0
        a[-1, 0] = 1.0
        store = MatrixStore.from_dense(a)
        depth_m, depth_n = store.norm_tree.depth, store.rows.depth
        assert depth_m == depth_n == {1: 0, 2: 1, 256: 8}[n]
        walks = [(lambda rng: store.l2_sample_in_row(m - 1, rng), depth_n)]
        walks.append((store.sample_entry, depth_m + depth_n))
        for walk, levels in walks:
            rng, twin = np.random.default_rng(5), np.random.default_rng(5)
            for _ in range(7):
                walk(rng)
            for _ in range(7 * levels):
                twin.random()
            assert rng.bit_generator.state == twin.bit_generator.state
        if m > 1:
            with pytest.raises(EmptyRowError):
                store.l2_sample_in_row(0, rng)
            assert rng.bit_generator.state == twin.bit_generator.state

    def test_sample_entry_draws_digest(self):
        # Pins 2,000 seeded draws across versions, on the golden blob's store.
        store = TestSerialization.golden_store()
        rng = np.random.default_rng(20160321)
        draws = np.array([store.sample_entry(rng) for _ in range(2000)], dtype=np.int64)
        assert hashlib.sha256(draws.tobytes()).hexdigest() == (
            "4c545aac30edba2c25c8401ccef3259360d61d9a3d7e286ca88fa889fd81f910"
        )

    def test_empty_store_sample_errors(self):
        with pytest.raises(EmptyRowError):
            MatrixStore(2, 2).l2_sample_row_index(np.random.default_rng(0))


class TestSerialization:
    def make_store(self) -> MatrixStore:
        a = np.random.default_rng(8).normal(size=(5, 6))
        a[np.abs(a) < 0.4] = 0.0
        a[3] = 0.0  # one empty row
        store = MatrixStore.from_dense(a)
        store.insert(2, 1, 0.0)  # explicit zero cell
        return store

    def test_round_trip_bit_identical(self):
        store = self.make_store()
        blob = store.serialize()
        back = MatrixStore.deserialize(blob)
        assert back.serialize() == blob
        assert back.entry_count == store.entry_count
        assert np.array_equal(back.to_dense(), store.to_dense())
        assert_same_store(back, store)

    @staticmethod
    def golden_store() -> MatrixStore:
        a = np.random.default_rng(2016).normal(size=(64, 48))
        a[np.abs(a) < 0.5] = 0.0
        a[11] = 0.0  # one empty row
        assert a[40, 3] == 0.0
        store = MatrixStore.from_dense(a)
        store.insert(40, 3, 0.0)  # explicit zero cell
        return store

    def test_golden_blob_digest(self):
        # Pins the blob format and every stored float bit for bit.
        blob = self.golden_store().serialize()
        assert hashlib.sha256(blob).hexdigest() == (
            "5ac136223c68de53c212850c0c3611f34c7e28a2f8cdacbdd956b0425271b563"
        )

    def test_file_round_trip(self, tmp_path):
        store = self.make_store()
        path = tmp_path / "store.bin"
        store.save(path)
        assert MatrixStore.load(path).serialize() == store.serialize()

    def test_bad_magic(self):
        blob = bytearray(self.make_store().serialize())
        blob[0] = ord(b"X")
        with pytest.raises(StoreFormatError) as err:
            MatrixStore.deserialize(bytes(blob))
        assert err.value.offset == 0

    def test_bad_version(self):
        blob = bytearray(self.make_store().serialize())
        blob[4] = 99
        with pytest.raises(StoreFormatError) as err:
            MatrixStore.deserialize(bytes(blob))
        assert err.value.offset == 4

    def test_truncation_reports_offset(self):
        blob = self.make_store().serialize()
        with pytest.raises(StoreFormatError) as err:
            MatrixStore.deserialize(blob[:-3])
        assert err.value.offset is not None

    def test_trailing_bytes_rejected(self):
        blob = self.make_store().serialize()
        with pytest.raises(StoreFormatError):
            MatrixStore.deserialize(blob + b"\x00")

    @staticmethod
    def blob(rows, n=4, count=None) -> bytes:
        """Hand-built blob: rows of (column, weight, sign) records."""
        total = sum(len(r) for r in rows) if count is None else count
        parts = [struct.pack("<4sIQQQ", b"QRST", 1, len(rows), n, total)]
        for records in rows:
            parts.append(struct.pack("<Q", len(records)))
            parts += [struct.pack("<Qdb", *rec) for rec in records]
        return b"".join(parts)

    # Row 0 starts at byte 32 with its count; its records sit at 40, 57, ...
    @pytest.mark.parametrize(
        "rows, message, offset",
        [
            ([[(0, 1.0, 1), (4, 1.0, 1)]], "column 4 out of range in row 0", 57),
            ([[(0, -1.0, 1)]], "invalid weight -1.0 in row 0", 40),
            ([[(0, float("nan"), 1)]], "invalid weight nan in row 0", 40),
            ([[(0, 4.0, 5)]], "invalid sign 5 in row 0", 40),
            ([[(0, 4.0, -2)]], "invalid sign -2 in row 0", 40),
            ([[(1, 1.0, 1), (1, 4.0, -1)]], "column 1 duplicated or out of order in row 0", 57),
            ([[(2, 1.0, 1), (0, 4.0, 1)]], "column 0 duplicated or out of order in row 0", 57),
            (
                [[(3, 1.0, 1)], [(0, 1.0, 1), (0, 1.0, 1)]],
                "column 0 duplicated or out of order in row 1",
                82,
            ),
        ],
    )
    def test_bad_record_reports_first_offset(self, rows, message, offset):
        with pytest.raises(StoreFormatError) as err:
            MatrixStore.deserialize(self.blob(rows))
        assert message in str(err.value)
        assert err.value.offset == offset

    def test_bad_record_before_truncation_wins(self):
        blob = self.blob([[(0, 4.0, 5), (1, 1.0, 1)]])
        with pytest.raises(StoreFormatError) as err:
            MatrixStore.deserialize(blob[:-3])
        assert "invalid sign 5" in str(err.value)
        with pytest.raises(StoreFormatError) as err:
            MatrixStore.deserialize(self.blob([[(0, 4.0, 1), (1, 1.0, 1)]])[:-3])
        assert "truncated leaf record in row 0" in str(err.value)
        assert err.value.offset == 57

    @pytest.mark.parametrize(
        "m, n", [(MAX_INGEST_DIM + 1, 4), (1, MAX_INGEST_DIM + 1), (1, 1 << 36)]
    )
    def test_header_shape_beyond_limit_rejected(self, m, n):
        header = struct.pack("<4sIQQQ", b"QRST", 1, m, n, 1)
        record = struct.pack("<Q", 1) + struct.pack("<Qdb", 0, 1.0, 1)
        with pytest.raises(StoreFormatError) as err:
            MatrixStore.deserialize(header + record)
        assert f"invalid shape {m}x{n} (limit {MAX_INGEST_DIM})" in str(err.value)
        assert err.value.offset == 8

    def test_header_shape_at_limit_loads(self):
        store = MatrixStore.deserialize(self.blob([[(0, 1.0, 1)]], n=MAX_INGEST_DIM))
        assert (store.m, store.n) == (1, MAX_INGEST_DIM)

    def test_overflowing_weight_sum_rejected(self):
        # Each weight is finite, as the record check requires, but their sum
        # is not: the blob of the 1 x 2 matrix [1e154, 1e154].
        with pytest.raises(StoreFormatError, match="overflows"):
            MatrixStore.deserialize(self.blob([[(0, 1e308, 1), (1, 1e308, 1)]]))

    def test_entry_count_mismatch(self):
        with pytest.raises(StoreFormatError) as err:
            MatrixStore.deserialize(self.blob([[(0, 1.0, 1)]], count=2))
        assert "header says 2, found 1" in str(err.value)
        assert err.value.offset == 24


class TestTriplets:
    def test_parse_and_ingest(self):
        lines = ["# comment", "", "0,0,3.0", "0, 1, 4.0", "1,1,-5.0"]
        store = ingest_triplets(lines)
        assert (store.m, store.n) == (2, 2)
        assert store.entry_count == 3
        assert np.array_equal(store.to_dense(), [[3.0, 4.0], [0.0, -5.0]])

    def test_duplicate_lines_overwrite(self):
        store = ingest_triplets(["0,0,1.0", "0,0,2.5"], m=1, n=1)
        assert store.entry(0, 0) == 2.5
        assert store.entry_count == 1

    def test_malformed_line_number(self):
        with pytest.raises(StoreFormatError) as err:
            list(parse_triplets(["0,0,1.0", "0,zero,2"]))
        assert "line 2" in str(err.value)
        with pytest.raises(StoreFormatError):
            list(parse_triplets(["0,0"]))
        with pytest.raises(StoreFormatError):
            list(parse_triplets(["-1,0,2"]))
        with pytest.raises(StoreFormatError):
            list(parse_triplets(["0,0,inf"]))

    def test_whitespace_and_signed_zero_parse(self):
        got = list(parse_triplets([" 3 , 4 , 2.5 ", "3,4,-0.0", "\t1,\t2 ,1e-3\t"]))
        assert got == [(3, 4, 2.5), (3, 4, -0.0), (1, 2, 1e-3)]
        assert math.copysign(1.0, got[1][2]) == -1.0
        assert all(type(i) is int and type(j) is int and type(v) is float for i, j, v in got)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("0,0,nan", "non-finite value"),
            ("0,0,inf", "non-finite value"),
            ("0,0,-inf", "non-finite value"),
            ("0,0,1e999", "non-finite value"),
            ("0,0", "expected i,j,value, got '0,0'"),
            ("0,0,1,2", "expected i,j,value, got '0,0,1,2'"),
            ("-1,0,2", "negative index"),
            ("0, -3 ,2", "negative index"),
            ("0,,1", "invalid literal for int() with base 10: ''"),
            (" 0 , x , 2", "invalid literal for int() with base 10: 'x'"),
            ("0,0, y ", "could not convert string to float: 'y'"),
        ],
    )
    def test_rejected_line_keeps_message_and_number(self, line, message):
        with pytest.raises(StoreFormatError) as err:
            list(parse_triplets(["0,0,1.0", "# comment", "", line]))
        assert str(err.value) == f"line 4: {message} (at offset 4)"
        assert err.value.offset == 4

    def test_out_of_shape_rejected(self):
        with pytest.raises(StoreFormatError):
            ingest_triplets(["5,0,1.0"], m=2, n=2)

    def test_inferred_tall_shape_allocates_little(self):
        # One entry at row 16000 infers a 16001 x 1 store: two small tables,
        # about 0.6 MiB, not one tree object per row.
        tracemalloc.start()
        try:
            store = ingest_triplets(["16000,0,1.0"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (store.m, store.n, store.entry_count) == (16001, 1, 1)
        assert peak < 1 << 20

    def test_shuffled_duplicate_stream_same_bytes(self):
        lines = ["0,0,1.0", "1,2,-2.0", "0,0,3.0", "2,1,0.5"]
        a = ingest_triplets(lines, m=3, n=3).serialize()
        b = ingest_triplets(["1,2,-2.0", "2,1,0.5", "0,0,1.0", "0,0,3.0"], m=3, n=3).serialize()
        assert a == b


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 4),
            st.integers(0, 6),
            st.floats(-10, 10, allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_internal_sums_match_leaf_scan_property(entries):
    store = MatrixStore(5, 7)
    for i, j, v in entries:
        store.insert(i, j, v)
    for table, i in [*((store.rows, i) for i in range(store.m)), (store.norm_tree, 0)]:
        scan = leaf_scan_weights(table, i)
        for (t, prefix), want in scan.items():
            got = table.node_weight(i, t, prefix)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-250)
    # Norm-tree leaves must eagerly equal the row roots.
    for i in range(store.m):
        assert store.norm_tree.leaves[0, i] == store.rows.root(i)


def assert_same_store(got: MatrixStore, want: MatrixStore) -> None:
    """Same shape, entry count, and every node, sign and held flag bit for bit."""
    assert (got.m, got.n, got.entry_count) == (want.m, want.n, want.entry_count)
    for g, w in ((got.rows, want.rows), (got.norm_tree, want.norm_tree)):
        assert (g.count, g.size, g.depth) == (w.count, w.size, w.depth)
        assert g.nodes.tobytes() == w.nodes.tobytes()
        assert g.signs.tobytes() == w.signs.tobytes()
        assert g.held.tobytes() == w.held.tobytes()


@st.composite
def sparse_matrices(draw):
    m = draw(st.integers(1, 9))
    n = draw(st.integers(1, 9))
    cell = st.one_of(
        st.just(0.0),
        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    )
    a = np.array(draw(st.lists(cell, min_size=m * n, max_size=m * n))).reshape(m, n)
    for i in draw(st.lists(st.integers(0, m - 1), max_size=2)):
        a[i] = 0.0
    return a


@settings(max_examples=120, deadline=None)
@given(sparse_matrices(), st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=3))
def test_bulk_build_matches_inserts_property(a, zeros):
    reference = MatrixStore(*a.shape)
    for i, j in zip(*np.nonzero(a)):
        reference.insert(int(i), int(j), float(a[i, j]))
    bulk = MatrixStore.from_dense(a)
    assert_same_store(bulk, reference)
    assert np.array_equal(bulk.to_dense(), reference.to_dense())
    assert bulk.serialize() == reference.serialize()
    for i, j in zeros:
        reference.insert(i % a.shape[0], j % a.shape[1], 0.0)
    back = MatrixStore.deserialize(reference.serialize())
    assert_same_store(back, reference)
    assert back.serialize() == reference.serialize()


@st.composite
def insert_streams(draw):
    """A shape and a stream of inserts into it: overwrites, signed zeros,
    squares that underflow to 0 (1e-170), entries whose square or sum with
    the rest overflows, non-finite values and indices just outside the shape."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 7))
    value = st.one_of(
        st.sampled_from([0.0, -0.0, 1e-170, -1e-170, 1e154, -1e154, 1e200, math.inf, math.nan]),
        st.floats(-1e3, 1e3),
    )
    index = lambda size: st.one_of(st.integers(0, size - 1), st.sampled_from([-1, size]))
    return m, n, draw(st.lists(st.tuples(index(m), index(n), value), max_size=30))


def insert_outcome(insert, i, j, value):
    try:
        return insert(i, j, value)
    except MatrixError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(insert_streams())
# 1e154 in row 0 makes the sum overflow when it lands over the held negative
# cell (1, 0); then a square that underflows, an overwrite and a bad index.
@example((2, 3, [(1, 0, -2.0), (0, 0, 1e154), (1, 0, 1e154), (1, 0, 1e-170), (1, 0, -0.0),
                 (2, 0, 1.0), (1, 3, 1.0)]))
def test_insert_matches_reference_composition_property(case):
    m, n, stream = case
    store, reference = MatrixStore(m, n), MatrixStore(m, n)
    for i, j, value in stream:
        got = insert_outcome(store.insert, i, j, value)
        assert got == insert_outcome(functools.partial(reference_insert, reference), i, j, value)
        assert_same_store(store, reference)
        assert store.node_touches == reference.node_touches
    assert store.serialize() == reference.serialize()


@st.composite
def edge_stores(draw):
    """Stores loaded from a blob, then written to by inserts.

    The blob holds any valid records: explicit zeros, -0.0 weights and zero
    weights under a nonzero sign; the inserts add explicit zeros and squares
    that underflow. Rows may stay empty, and n may be 1 or not a power of two.
    """
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 9))
    weight = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300]), st.floats(0.0, 1e3))
    records = [
        [(j, draw(weight), draw(st.sampled_from([-1, 0, 1]))) for j in sorted(cols)]
        for cols in draw(st.lists(st.sets(st.integers(0, n - 1)), min_size=m, max_size=m))
    ]
    store = MatrixStore.deserialize(TestSerialization.blob(records, n=n))
    value = st.one_of(st.sampled_from([0.0, -0.0, 1e-170, -1e-170]), st.floats(-1e3, 1e3))
    for i, j, v in draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1), value))):
        store.insert(i, j, v)
    return store


def edge_example(records, n, inserts) -> MatrixStore:
    store = MatrixStore.deserialize(TestSerialization.blob(records, n=n))
    for i, j, v in inserts:
        store.insert(i, j, v)
    return store


@settings(max_examples=150, deadline=None)
@given(edge_stores())
# Every case at once: a -0.0 and a zero weight under a negative sign from the
# blob, each beside a live sibling (both prepare -0.0), an empty row, and a
# row whose only entries square to zero.
@example(
    edge_example(
        [[(0, -0.0, 1), (1, 4.0, -1), (2, 0.0, -1), (3, 1.0, 1), (4, 1.0, 1)], [], []],
        5,
        [(2, 3, -1e-170), (2, 1, 0.0)],
    )
)
@example(edge_example([[(0, 4.0, -1)], [(0, -0.0, 1)], []], 1, [(2, 0, 1e-170)]))
def test_states_match_cascade_oracle_property(store):
    for table in (store.rows, store.norm_tree):
        got = table.states()
        assert got.shape == (table.count, table.size)
        for i in range(table.count):
            # A tree without positive weight prepares nothing: +0.0 throughout.
            want = prepare_vector_state(table, i) if table.root(i) > 0.0 else np.zeros(table.size)
            assert np.array_equal(got[i].view(np.uint64), want.view(np.uint64))


def assert_loads_exactly_or_rejects(blob: bytes) -> None:
    try:
        store = MatrixStore.deserialize(blob)
    except StoreFormatError:
        return
    assert store.serialize() == blob


# A 3 x 4 store with an empty row, mixed signs and an explicit zero cell.
FUZZ_SEED_BLOB = MatrixStore.from_dense(
    np.array([[0.0, -1.5, 2.0, 0.0], [0.0, 0.0, 0.0, 0.0], [0.25, 0.0, -3.0, 7.0]])
).serialize()


@st.composite
def mutated_blobs(draw):
    blob = bytearray(FUZZ_SEED_BLOB)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(blob)))
        kind = draw(st.sampled_from(["overwrite", "truncate", "insert", "delete"]))
        chunk = draw(st.binary(min_size=1, max_size=9))
        if kind == "overwrite":
            blob[at : at + len(chunk)] = chunk
        elif kind == "truncate":
            del blob[at:]
        elif kind == "insert":
            blob[at:at] = chunk
        else:
            del blob[at : at + len(chunk)]
    return bytes(blob)


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.binary(max_size=120), st.binary(max_size=120).map(lambda b: b"QRST" + b)))
def test_arbitrary_bytes_load_exactly_or_are_rejected_property(blob):
    assert_loads_exactly_or_rejects(blob)


@settings(max_examples=300, deadline=None)
@given(mutated_blobs())
def test_mutated_blob_loads_exactly_or_is_rejected_property(blob):
    assert_loads_exactly_or_rejects(blob)
