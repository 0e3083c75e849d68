import csv
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcptest import data
import yaml

from pcptest.data import (
    CategoricalSchema,
    DataError,
    Dataset,
    FoldAssignment,
    SplitPlan,
    default_schema,
    distinct_rows,
    encode_rows,
    load_csv,
    load_yaml,
    make_folds,
    partition,
    quantile_group_indices,
    save_csv,
    split_indices,
    weighted_mean,
)


def toy_dataset(schema, n=40, seed=0):
    rng = np.random.default_rng(seed)
    cov = np.column_stack(
        [rng.choice(codes, size=n) for _, codes in schema.features]
    ).astype(np.int64)
    return Dataset(
        schema,
        cov,
        rng.integers(0, 2, n),
        rng.integers(0, 2, n),
        rng.uniform(0.1, 1.0, n),
    )


class TestSchema:
    def test_default_schema_has_49_design_columns(self):
        assert default_schema().n_design_columns == 49

    def test_default_schema_features(self):
        schema = default_schema()
        assert schema.n_features == 8
        assert "gender" in schema.feature_names

    def test_fingerprint_is_stable_and_sensitive(self, small_schema):
        assert small_schema.fingerprint() == small_schema.fingerprint()
        other = CategoricalSchema((("a", tuple(range(4))), ("b", tuple(range(4)))))
        assert other.fingerprint() != small_schema.fingerprint()

    def test_yaml_round_trip(self, small_schema, tmp_path):
        p = str(tmp_path / "schema.yaml")
        small_schema.to_yaml(p)
        assert CategoricalSchema.from_yaml(p) == small_schema

    def test_n_cells(self, small_schema):
        assert small_schema.n_cells == 12

    def test_duplicate_feature_names_rejected(self):
        with pytest.raises(DataError):
            CategoricalSchema((("a", (0, 1)), ("a", (0, 1))))

    def test_cells_enumeration(self, small_schema):
        cells = list(small_schema.cells())
        assert len(cells) == 12
        assert len(set(cells)) == 12


class TestDataset:
    def test_unknown_modality_reports_row(self, small_schema):
        cov = np.array([[0, 0], [9, 1]], dtype=np.int64)
        with pytest.raises(DataError, match="row 2"):
            Dataset(small_schema, cov, np.array([0, 1]), np.array([0, 0]), np.array([0.5, 0.5]))

    def test_bad_weight_reports_row(self, small_schema):
        cov = np.zeros((2, 2), dtype=np.int64)
        with pytest.raises(DataError, match="row 1.*w"):
            Dataset(small_schema, cov, np.array([0, 1]), np.array([0, 0]), np.array([0.0, 0.5]))

    def test_weight_one_allowed(self, small_schema):
        d = Dataset(
            small_schema,
            np.zeros((1, 2), dtype=np.int64),
            np.array([1]),
            np.array([0]),
            np.array([1.0]),
        )
        assert d.n == 1

    def test_nonbinary_claim_rejected(self, small_schema):
        cov = np.zeros((1, 2), dtype=np.int64)
        with pytest.raises(DataError, match="must be 0 or 1"):
            Dataset(small_schema, cov, np.array([0]), np.array([2]), np.array([0.5]))

    def test_take_is_the_validated_subset(self, small_schema):
        """A subset of a validated dataset is not checked again, yet holds
        the arrays, dtypes and read-only flags that the validating
        constructor gives it; an empty subset is refused, and a direct
        construction of invalid records still raises its message."""
        d = toy_dataset(small_schema, n=40, seed=3)
        idx = np.array([5, 0, 39, 5, 17])
        sub = d.take(idx)
        ref = Dataset(small_schema, d.covariates[idx], d.c[idx], d.r[idx], d.w[idx])
        assert sub.schema is d.schema
        for name in ("covariates", "c", "r", "w"):
            got, want = getattr(sub, name), getattr(ref, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert got.flags.writeable is want.flags.writeable is False
            assert not np.shares_memory(got, getattr(d, name))
        assert d.take([3]).n == 1
        with pytest.raises(DataError, match="^dataset must be nonempty$"):
            d.take([])
        with pytest.raises(DataError, match="^row 2: column w must lie in \\(0, 1\\]$"):
            Dataset(small_schema, d.covariates[:2], d.c[:2], d.r[:2], np.array([0.5, 1.5]))

    def test_class_labels(self, small_schema):
        d = Dataset(
            small_schema,
            np.zeros((4, 2), dtype=np.int64),
            np.array([0, 0, 1, 1]),
            np.array([0, 1, 0, 1]),
            np.full(4, 0.5),
        )
        assert d.class_labels().tolist() == [0, 1, 2, 3]

    def test_columns_immutable(self, small_schema):
        d = toy_dataset(small_schema)
        with pytest.raises(ValueError):
            d.w[0] = 0.9


class TestCsv:
    def test_round_trip_bit_identical(self, small_schema, tmp_path):
        d = toy_dataset(small_schema, n=25, seed=3)
        p = str(tmp_path / "d.csv")
        save_csv(d, p)
        d2 = load_csv(p, small_schema)
        assert np.array_equal(d2.covariates, d.covariates)
        assert np.array_equal(d2.c, d.c)
        assert np.array_equal(d2.r, d.r)
        assert np.array_equal(d2.w, d.w)  # exact, via repr round-trip
        p2 = str(tmp_path / "d2.csv")
        save_csv(d2, p2)
        assert open(p).read() == open(p2).read()

    def test_missing_column_rejected(self, small_schema, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,c,r\n0,0,0,0\n")
        with pytest.raises(DataError):
            load_csv(str(p), small_schema)

    def test_duplicate_column_rejected(self, small_schema, tmp_path):
        """A repeated column is an error even when its first occurrence is
        valid: the copy would otherwise be ignored unread."""
        p = tmp_path / "bad.csv"
        p.write_text("a,b,c,r,w,c\n0,0,0,0,0.5,7\n")
        with pytest.raises(DataError, match=r"duplicate column\(s\) \['c'\]"):
            load_csv(str(p), small_schema)

    def test_bad_value_reports_row(self, small_schema, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,c,r,w\n0,0,0,0,0.5\n0,0,x,0,0.5\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(str(p), small_schema)

    def test_missing_value_rejected(self, small_schema, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,c,r,w\n0,,0,0,0.5\n")
        with pytest.raises(DataError, match="row 1"):
            load_csv(str(p), small_schema)


    def test_save_writes_the_bytes_of_a_row_writer(self, small_schema, tmp_path):
        """save_csv's line template writes what csv.writer wrote row by row."""
        d = toy_dataset(small_schema, n=30, seed=5)
        w = d.w.copy()
        w[:4] = [1.0, 5e-324, 0.1, 1 / 3]
        d = Dataset(small_schema, d.covariates, d.c, d.r, w)
        save_csv(d, str(tmp_path / "d.csv"))
        with open(tmp_path / "oracle.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(small_schema.feature_names) + ["c", "r", "w"])
            for i in range(d.n):
                writer.writerow(
                    [int(v) for v in d.covariates[i]]
                    + [int(d.c[i]), int(d.r[i]), repr(float(d.w[i]))]
                )
        assert (tmp_path / "d.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("trailing", [True, False])
    def test_clean_records_take_the_column_parser(self, newline, trailing):
        body = newline.join(["0,1,0,1,0.5", "3,2,1,0,1.0", "1,0,0,0,1e-3"]) + newline * trailing
        table = data._parse_columns(body, ["a", "b", "c", "r", "w"])
        assert table is not None and len(table) == 3
        assert table["f4"].tolist() == [0.5, 1.0, 1e-3]

    @pytest.mark.parametrize(
        "body",
        ["", "0,1,0,1,0.5\n\n", "\n0,1,0,1,0.5", "0,1,0,1,0.5\r\n\r\n", "0,1,0,1,0.5\r3,2,1,0,1",
         '"0",1,0,1,0.5\n', "0,1,0,1\n", "0,1_0,0,1,0.5\n", "0, ,0,1,0.5\n"],
        ids=["empty", "blank line", "leading blank", "blank CRLF", "lone CR", "quote",
             "short row", "underscore", "blank cell"],
    )
    def test_other_records_go_to_the_row_parser(self, body):
        assert data._parse_columns(body, ["a", "b", "c", "r", "w"]) is None


# Cells of the CSV files below: valid ones, and ones the two parsers might
# read differently.
ODD_CELLS = st.sampled_from(
    [" 1", "1 ", "\t1", "+1", "-0", "1_0", "٣", "3.0", "1e0", str(2**64), str(2**63),
     str(-(2**63)), "", " ", "x", "0x1", "nan", "inf", "-inf", "1e-400", "#1", "1.5e+"]
)
WEIGHTS = st.one_of(
    st.floats(5e-324, 1.0).map(repr),
    st.floats(5e-324, 1.0).map(lambda w: f"{w:.17g}"),
    st.floats(5e-324, 1.0).map(lambda w: f"{w:.3e}"),
    st.sampled_from(["1", "1.", ".5", "0.1000000000000000055511151231257827", " 0.5", "1_0.5",
                     "٣", "0", "-0.5", "2", "NaN", "Infinity", "1E-3"]),
)


@st.composite
def csv_files(draw):
    """The text of a small_schema CSV file: its columns in a drawn order,
    mostly valid records, then a few drawn faults: odd cells, a quoted
    cell, a row one field short or long or led by ``#``, a blank or
    whitespace-only line, LF or CRLF endings, with or without a final line
    break."""
    header = draw(st.permutations(["a", "b", "c", "r", "w"]))
    valid = {
        "a": st.integers(0, 3).map(str),
        "b": st.integers(0, 2).map(str),
        "c": st.integers(0, 1).map(str),
        "r": st.integers(0, 1).map(str),
        "w": WEIGHTS,
    }
    rows = draw(
        st.lists(st.tuples(*(valid[name] for name in header)).map(list), min_size=0, max_size=8)
    )
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row = draw(st.sampled_from(rows))
        j = draw(st.integers(0, len(row) - 1))
        fault = draw(st.sampled_from(["odd", "quote", "short", "long", "hash"]))
        if fault == "hash":  # a comment line to a parser that takes comments
            row[0] = "#" + row[0]
        elif fault == "odd":
            row[j] = draw(ODD_CELLS)
        elif fault == "quote":
            row[j] = f'"{row[j]}"'
        elif fault == "short":
            del row[j]
        else:
            row.insert(j, row[j])
    lines = [",".join(header)] + [",".join(row) for row in rows]
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", " ", "\t"])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + newline * draw(st.booleans())


def load_outcome(path, schema):
    """load_csv's arrays, or the type and text of the error it raised."""
    try:
        d = load_csv(path, schema)
    except DataError as err:
        return "error", str(err)
    return "ok", (d.covariates, d.c, d.r, d.w.view(np.int64))


@given(text=csv_files())
@settings(max_examples=400, deadline=None)
def test_column_parser_loads_what_the_row_parser_loads(small_schema, text):
    """Parsed by column where it can, a file gives the row parser's arrays,
    w to the bit, or its DataError with the same text."""
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "d.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        got = load_outcome(path, small_schema)
        with mock.patch.object(data, "_parse_columns", return_value=None):
            want = load_outcome(path, small_schema)
    assert got[0] == want[0]
    if got[0] == "error":
        assert got[1] == want[1]
    else:
        for a, b in zip(got[1], want[1]):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b)


class TestDesign:
    def test_one_hot_width(self, small_schema):
        d = toy_dataset(small_schema)
        X = d.design()
        assert X.shape == (d.n, 1 + 3 + 2)
        assert np.all(X[:, 0] == 1.0)

    def test_reference_modality_omitted(self, small_schema):
        d = Dataset(
            small_schema,
            np.array([[0, 0]], dtype=np.int64),
            np.array([0]),
            np.array([0]),
            np.array([0.5]),
        )
        row = d.design()[0]
        assert row.tolist() == [1.0, 0, 0, 0, 0, 0]


@st.composite
def nested_takes(draw):
    """A random schema of 1-12 features with 2-12 modalities each (up to
    133 design columns), a dataset on it, and a chain of 1-3 takes, each
    of any size, in any order, with repeats or without."""
    sizes = draw(st.lists(st.integers(2, 12), min_size=1, max_size=12))
    schema = CategoricalSchema(tuple((f"f{j}", tuple(range(k))) for j, k in enumerate(sizes)))
    d = toy_dataset(schema, n=draw(st.integers(1, 300)), seed=draw(st.integers(0, 2**32 - 1)))
    chain = []
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for _ in range(draw(st.integers(1, 3))):
        n = chain[-1].n if chain else d.n
        replace = draw(st.booleans())
        size = draw(st.integers(1, 2 * n if replace else n))
        chain.append((chain[-1] if chain else d).take(rng.choice(n, size, replace=replace)))
    return d, chain


def assert_same_arrays(a, b):
    for x, y in zip(a, b, strict=True):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert np.array_equal(x, y)


class TestRootEncodings:
    @settings(max_examples=150, deadline=None)
    @given(nested_takes())
    def test_a_subset_reads_what_its_own_encoding_gives(self, problem):
        """Through nested takes, a subset's gathered design is the
        encoding of its own records, and its share of the root's distinct
        rows is ``distinct_rows`` of that design: rows, order, inverse and
        counts."""
        d, chain = problem
        for sub in [d, *chain]:
            X = encode_rows(sub.schema, sub.covariates)
            assert_same_arrays([sub.design()], [X])
            assert_same_arrays(sub.distinct_rows(), distinct_rows(X))

    def test_the_root_encodes_once(self, small_schema, monkeypatch):
        """Every subset, however taken, reads the root's one encoding and
        one compression; the root's arrays are read-only."""
        calls = []
        for name in ("encode_rows", "distinct_rows"):
            original = getattr(data, name)
            monkeypatch.setattr(
                data, name, lambda *a, _f=original, _n=name, **k: calls.append(_n) or _f(*a, **k)
            )
        d = toy_dataset(small_schema, n=200)
        subsets = [d.take(np.arange(0, 200, 3)), d.take(np.arange(100)).take([5, 5, 7])]
        for sub in [d, *subsets, d]:
            sub.design()
            sub.distinct_rows()
        assert calls == ["encode_rows", "distinct_rows"]
        assert not d.distinct_rows().active.flags.writeable


class TestYaml:
    def test_load_yaml_reads_what_safe_load_reads(self, tmp_path, small_schema):
        doc = {"seed": 3, "levels": [0.01, 0.1], "w": 1e-3, "name": "x", "on": True, "n": None}
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(doc) + "extra: 1e5\nmixed: [1, '2', 3.0]\n")
        with open(path) as a, open(path) as b:
            assert load_yaml(a) == yaml.safe_load(b)

    def test_malformed_yaml_raises_yaml_error(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("a: [1, 2\nb: c: d\n")
        with open(path) as fh, pytest.raises(yaml.YAMLError):
            load_yaml(fh)


class TestSplitsAndFolds:
    def test_split_sizes_use_floor(self):
        tr, va, te = split_indices(6333, SplitPlan((0.70, 0.15, 0.15), seed=0))
        assert (len(tr), len(va), len(te)) == (4433, 950, 950)

    def test_split_is_a_partition(self):
        parts = split_indices(100, SplitPlan((0.5, 0.25, 0.25), seed=1))
        joined = np.sort(np.concatenate(parts))
        assert np.array_equal(joined, np.arange(100))

    def test_split_deterministic(self):
        a = split_indices(50, SplitPlan(seed=4))
        b = split_indices(50, SplitPlan(seed=4))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_folds_balanced_partition(self, small_schema):
        d = toy_dataset(small_schema, n=23)
        folds = make_folds(d, 5, seed=2)
        sizes = sorted(len(folds.fold_indices(k)) for k in range(5))
        assert sizes == [4, 4, 5, 5, 5]
        joined = np.sort(np.concatenate([folds.fold_indices(k) for k in range(5)]))
        assert np.array_equal(joined, np.arange(23))

    def test_fold_complement(self, small_schema):
        d = toy_dataset(small_schema, n=20)
        folds = make_folds(d, 4, seed=0)
        for k in range(4):
            combined = np.sort(
                np.concatenate([folds.fold_indices(k), folds.complement_indices(k)])
            )
            assert np.array_equal(combined, np.arange(20))


class TestGrouping:
    def test_quantile_groups_cover_and_balance(self):
        rng = np.random.default_rng(0)
        v, w = rng.normal(size=100), np.ones(100)
        groups = quantile_group_indices(v, w, 4)
        assert sorted(len(g) for g in groups) == [25, 25, 25, 25]
        joined = np.sort(np.concatenate(groups))
        assert np.array_equal(joined, np.arange(100))

    def test_quantile_groups_ordered_by_value(self):
        rng = np.random.default_rng(1)
        v, w = rng.normal(size=200), rng.uniform(0.2, 1.0, 200)
        groups = quantile_group_indices(v, w, 4)
        maxes = [v[g].max() for g in groups[:-1]]
        mins = [v[g].min() for g in groups[1:]]
        assert all(mx <= mn for mx, mn in zip(maxes, mins))

    def test_constant_values_split_by_index(self):
        v, w = np.zeros(12), np.ones(12)
        groups = quantile_group_indices(v, w, 4)
        assert [len(g) for g in groups] == [3, 3, 3, 3]
        assert groups[0].tolist() == [0, 1, 2]

    def test_by_modality_partition(self, small_schema):
        d = toy_dataset(small_schema, n=60, seed=5)
        groups = partition(d, "a")
        joined = np.sort(np.concatenate(groups))
        assert np.array_equal(joined, np.arange(60))
        j = small_schema.feature_index("a")
        for idx in groups:
            assert len(np.unique(d.covariates[idx, j])) == 1


def test_weighted_mean_matches_numpy():
    rng = np.random.default_rng(7)
    v, w = rng.normal(size=50), rng.uniform(0.1, 1.0, 50)
    assert weighted_mean(v, w) == pytest.approx(np.average(v, weights=w), abs=1e-14)


@given(
    n=st.integers(min_value=8, max_value=60),
    n_groups=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=40, deadline=None)
@example(n=9, n_groups=4, seed=337)  # one record's weight spans a whole bin
def test_quantile_groups_always_partition(n, n_groups, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=n)
    w = rng.uniform(0.05, 1.0, n)
    groups = quantile_group_indices(v, w, n_groups)
    joined = np.sort(np.concatenate(groups))
    assert np.array_equal(joined, np.arange(n))
    assert all(len(g) > 0 for g in groups)


def midpoint_quantile_groups(values, weights, n_groups):
    """The midpoint assignment alone, which may leave a group empty: the
    oracle for every input where it does not."""
    order = np.argsort(values, kind="stable")
    cw = np.cumsum(weights[order])
    mid = (cw - weights[order] / 2.0) / cw[-1]
    bin_of_sorted = np.searchsorted(np.arange(1, n_groups) / n_groups, mid, side="left")
    return [np.sort(order[bin_of_sorted == g]) for g in range(n_groups)]


@given(
    n=st.integers(min_value=2, max_value=40),
    n_groups=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    ties=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_quantile_groups_match_midpoint_assignment(n, n_groups, seed, ties):
    """Groups the midpoint assignment leaves all nonempty are kept exactly;
    otherwise every group is a nonempty run of the sorted order."""
    rng = np.random.default_rng(seed)
    v = rng.integers(0, 3, n).astype(float) if ties else rng.normal(size=n)
    w = rng.uniform(0.05, 1.0, n) ** 4
    if n < n_groups:
        with pytest.raises(DataError):
            quantile_group_indices(v, w, n_groups)
        return
    groups = quantile_group_indices(v, w, n_groups)
    oracle = midpoint_quantile_groups(v, w, n_groups)
    if all(len(g) > 0 for g in oracle):
        assert all(np.array_equal(g, o) for g, o in zip(groups, oracle))
    assert all(len(g) > 0 for g in groups)
    order = np.argsort(v, kind="stable")
    assert np.array_equal(np.concatenate([order[np.isin(order, g)] for g in groups]), order)


@given(
    f1=st.floats(min_value=0.2, max_value=0.6),
    f2=st.floats(min_value=0.1, max_value=0.3),
    n=st.integers(min_value=20, max_value=500),
    seed=st.integers(min_value=0, max_value=100),
)
@settings(max_examples=40, deadline=None)
def test_split_indices_always_partition(f1, f2, n, seed):
    plan = SplitPlan((f1, f2, 1.0 - f1 - f2), seed=seed)
    parts = split_indices(n, plan)
    joined = np.sort(np.concatenate(parts))
    assert np.array_equal(joined, np.arange(n))
