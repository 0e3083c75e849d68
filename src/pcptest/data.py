"""Weighted categorical datasets: schemas, validation, encoding, splits, folds, groups.

Every observation carries integer modality codes for each categorical
feature, two binary outcomes ``c`` (coverage choice) and ``r`` (at-fault
claim), and a sampling weight ``w`` in (0, 1].  All downstream estimation
is weighted by ``w``.

A dataset that was loaded or built is a root; ``Dataset.take`` keeps each
record's index into its root.  The root encodes its design once, on first
use, as its active pattern (1 byte a cell), and compresses it to its
distinct rows once, when a tree learner first asks.  A subset's design is
a row gather of the root's, and its distinct rows are the root's rows
that its records hit, found by one bincount: in the root's lexicographic
order, which is the order that ``distinct_rows`` of the subset's own
design gives, so each is bit for bit what encoding the subset gives.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np
import yaml

__all__ = [
    "CategoricalSchema",
    "Dataset",
    "SplitPlan",
    "FoldAssignment",
    "DataError",
    "DistinctRows",
    "default_schema",
    "load_yaml",
    "load_csv",
    "save_csv",
    "encode_rows",
    "distinct_rows",
    "split",
    "make_folds",
    "weighted_mean",
    "partition",
    "quantile_group_indices",
]

SCHEMA_FILE_VERSION = 1


class DataError(ValueError):
    """Raised on malformed input data or schema violations."""


# libyaml's parser where it is built, Python's otherwise: both build the same
# documents and raise ``yaml.YAMLError``.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_yaml(fh):
    """The document of a YAML stream, read as ``yaml.safe_load`` reads it."""
    return yaml.load(fh, Loader=_YAML_LOADER)


def load_yaml_mapping(path: str) -> dict:
    """The document of the YAML file ``path``, which must be a mapping:
    any other document is a ``DataError`` that names the file."""
    with open(path, encoding="utf-8") as fh:
        doc = load_yaml(fh)
    if not isinstance(doc, dict):
        raise DataError(f"{path}: expected a mapping of keys, got {type(doc).__name__}")
    return doc


_REQUIRED = object()


def read_entry(path: str, doc, key: str, convert=None, *, default=_REQUIRED, where: str = ""):
    """``convert(doc[key])`` (the value itself without ``convert``) of a
    mapping ``doc`` read from the file ``path``, at the place ``where`` in
    it; ``default`` where the key is absent, if one is given.  A ``doc``
    that is not a mapping, a missing key, and a value that ``convert``
    rejects with a ``TypeError`` or ``ValueError`` are each a ``DataError``
    that names the file and the key."""
    name = f"{where}.{key}" if where else key
    if not isinstance(doc, dict):
        raise DataError(f"{path}: {where or 'the document'} must be a mapping, got {doc!r}")
    if key not in doc:
        if default is _REQUIRED:
            raise DataError(f"{path}: missing key {name!r}")
        return default
    if convert is None:
        return doc[key]
    try:
        return convert(doc[key])
    except (TypeError, ValueError) as err:
        raise DataError(f"{path}: invalid {name!r}: {err}") from err


def as_list(value) -> list:
    """``value``, which must be a YAML list."""
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {value!r}")
    return value


def schema_features(path: str, doc: dict, where: str = "") -> tuple:
    """The features of the schema mapping ``doc`` read from ``path``, at
    ``where`` in it: a list of mappings with a ``name`` and a list of
    integer ``codes``."""
    place = f"{where}.features" if where else "features"
    features = read_entry(path, doc, "features", as_list, where=where)
    return tuple(
        (
            read_entry(path, f, "name", str, where=f"{place}[{i}]"),
            read_entry(
                path, f, "codes", lambda v: tuple(int(c) for c in as_list(v)), where=f"{place}[{i}]"
            ),
        )
        for i, f in enumerate(features)
    )


@dataclass(frozen=True)
class CategoricalSchema:
    """Ordered categorical features; the first listed code of each feature
    is the reference modality for dummy coding."""

    features: tuple[tuple[str, tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        names = [name for name, _ in self.features]
        if len(set(names)) != len(names):
            raise DataError("feature names must be unique")
        for name, codes in self.features:
            if len(codes) < 2:
                raise DataError(f"feature {name!r} needs at least 2 modalities")
            if len(set(codes)) != len(codes):
                raise DataError(f"feature {name!r} has duplicate modality codes")

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.features)

    @property
    def n_features(self) -> int:
        return len(self.features)

    @property
    def n_design_columns(self) -> int:
        """Constant column plus (modalities - 1) dummies per feature."""
        return 1 + sum(len(codes) - 1 for _, codes in self.features)

    @property
    def n_cells(self) -> int:
        n = 1
        for _, codes in self.features:
            n *= len(codes)
        return n

    def codes_of(self, feature: str) -> tuple[int, ...]:
        for name, codes in self.features:
            if name == feature:
                return codes
        raise DataError(f"unknown feature {feature!r}")

    def feature_index(self, feature: str) -> int:
        for i, (name, _) in enumerate(self.features):
            if name == feature:
                return i
        raise DataError(f"unknown feature {feature!r}")

    def cells(self) -> Iterator[tuple[int, ...]]:
        """Iterate over all covariate cells in row-major order."""
        def rec(prefix: tuple[int, ...], rest):
            if not rest:
                yield prefix
                return
            _, codes = rest[0]
            for code in codes:
                yield from rec(prefix + (code,), rest[1:])

        yield from rec((), list(self.features))

    def fingerprint(self) -> str:
        payload = repr(self.features).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()[:16]

    def to_yaml(self, path: str) -> None:
        doc = {
            "version": SCHEMA_FILE_VERSION,
            "features": [
                {"name": name, "codes": list(codes)} for name, codes in self.features
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(doc, fh, sort_keys=False)

    @classmethod
    def from_yaml(cls, path: str) -> "CategoricalSchema":
        doc = load_yaml_mapping(path)
        if doc.get("version") != SCHEMA_FILE_VERSION:
            raise DataError(f"unsupported schema file version in {path}")
        return cls(schema_features(path, doc))


def default_schema() -> CategoricalSchema:
    """Eight-feature car insurance schema (49 design columns)."""
    return CategoricalSchema(
        (
            ("car_age", tuple(range(12))),
            ("car_group", tuple(range(1, 7))),
            ("insuree_age", tuple(range(9))),
            ("profession", tuple(range(1, 9))),
            ("usage", tuple(range(1, 5))),
            ("region", tuple(range(1, 11))),
            ("zone", tuple(range(2, 7))),
            ("gender", (0, 1)),
        )
    )


class DistinctRows(NamedTuple):
    """A design compressed to its distinct rows, in lexicographic order of
    their active (> 0.5) patterns, which are all that a tree reads."""

    active: np.ndarray  # (m, width) bool: each distinct row's active pattern
    inverse: np.ndarray  # (n,) the row of every record
    counts: np.ndarray  # (m,) the records of every row


def distinct_rows(X: np.ndarray) -> DistinctRows:
    """The distinct rows of a design, or of its active pattern."""
    active = X if X.dtype == bool else X > 0.5
    # Packing the bits keeps the lexicographic row order and sorts 8
    # columns per byte; up to 64 columns, one big-endian word per row keeps
    # it too and sorts as a plain vector.
    packed = np.packbits(active, axis=1)
    if packed.shape[1] <= 8:
        words = np.zeros((len(packed), 8), dtype=np.uint8)
        words[:, : packed.shape[1]] = packed
        packed = words.view(">u8").reshape(-1)
    _, first, inverse, counts = np.unique(
        packed,
        axis=0,
        return_index=True,
        return_inverse=True,
        return_counts=True,
    )
    return DistinctRows(active[first], inverse.reshape(-1), counts)


@dataclass(frozen=True)
class Dataset:
    """Immutable column store of validated records."""

    schema: CategoricalSchema
    covariates: np.ndarray  # (n, n_features) int
    c: np.ndarray  # (n,) int
    r: np.ndarray  # (n,) int
    w: np.ndarray  # (n,) float

    def __post_init__(self) -> None:
        n = len(self.c)
        if n == 0:
            raise DataError("dataset must be nonempty")
        if self.covariates.shape != (n, self.schema.n_features):
            raise DataError("covariate array shape does not match schema")
        if len(self.r) != n or len(self.w) != n:
            raise DataError("column lengths differ")
        for j, (name, codes) in enumerate(self.schema.features):
            bad = ~np.isin(self.covariates[:, j], codes)
            if bad.any():
                row = int(np.nonzero(bad)[0][0])
                raise DataError(
                    f"row {row + 1}: unknown modality code "
                    f"{self.covariates[row, j]} for feature {name!r}"
                )
        for col, arr in (("c", self.c), ("r", self.r)):
            bad = ~np.isin(arr, (0, 1))
            if bad.any():
                row = int(np.nonzero(bad)[0][0])
                raise DataError(f"row {row + 1}: column {col} must be 0 or 1")
        bad = ~((self.w > 0.0) & (self.w <= 1.0))
        if bad.any():
            row = int(np.nonzero(bad)[0][0])
            raise DataError(f"row {row + 1}: column w must lie in (0, 1]")
        for arr in (self.covariates, self.c, self.r, self.w):
            arr.setflags(write=False)
        # A built dataset is a root: no dataset it was taken from.
        object.__setattr__(self, "_root", None)
        object.__setattr__(self, "_root_rows", None)

    def __len__(self) -> int:
        return len(self.c)

    @property
    def n(self) -> int:
        return len(self.c)

    def take(self, idx: np.ndarray | Sequence[int]) -> "Dataset":
        """The records at ``idx``, in that order.  Records of a validated
        dataset are valid, so the subset is not checked again; it must be
        nonempty, and its columns are read-only copies.  The subset keeps
        its records' indices into the root."""
        idx = np.asarray(idx, dtype=np.int64)
        if len(idx) == 0:
            raise DataError("dataset must be nonempty")
        sub = object.__new__(Dataset)
        object.__setattr__(sub, "schema", self.schema)
        for name in ("covariates", "c", "r", "w"):
            column = getattr(self, name)[idx]
            column.setflags(write=False)
            object.__setattr__(sub, name, column)
        root = self if self._root is None else self._root
        object.__setattr__(sub, "_root", root)
        object.__setattr__(sub, "_root_rows", idx if root is self else self._root_rows[idx])
        return sub

    def class_labels(self) -> np.ndarray:
        """4-way class index 2*c + r, ordering (00, 01, 10, 11)."""
        return (2 * self.c + self.r).astype(np.int64)

    def design(self) -> np.ndarray:
        """The ``(n, width)`` float design of the records, the rows of
        ``encode_rows``: a gather of the root's active pattern."""
        if self._root is None:
            return self._active.astype(np.float64)
        return self._root._active.take(self._root_rows, axis=0).astype(np.float64)

    def distinct_rows(self) -> DistinctRows:
        """``distinct_rows`` of the design, bit for bit: the root's rows
        that the records hit, in the root's order, with their counts."""
        if self._root is None:
            return self._distinct
        whole = self._root._distinct
        row = whole.inverse.take(self._root_rows)
        counts = np.bincount(row, minlength=len(whole.counts))
        hit = np.flatnonzero(counts)
        number = np.zeros(len(counts), dtype=whole.inverse.dtype)
        number[hit] = np.arange(len(hit))
        return DistinctRows(whole.active.take(hit, axis=0), number.take(row), counts.take(hit))

    # The root's encodings, each made once, on first use; read-only, as
    # every subset shares them.

    @cached_property
    def _active(self) -> np.ndarray:
        active = encode_rows(self.schema, self.covariates, dtype=bool)
        active.setflags(write=False)
        return active

    @cached_property
    def _distinct(self) -> DistinctRows:
        rows = distinct_rows(self._active)
        for array in rows:
            array.setflags(write=False)
        return rows


def _design_layout(schema: CategoricalSchema) -> dict[str, tuple[int, ...]]:
    """Each feature's design columns, in schema order."""
    feature_columns = {}
    col = 1
    for name, codes in schema.features:
        feature_columns[name] = tuple(range(col, col + len(codes) - 1))
        col += len(codes) - 1
    return feature_columns


def encode_rows(
    schema: CategoricalSchema, covariates: np.ndarray, dtype: type = np.float64
) -> np.ndarray:
    """Dummy-code covariate rows (any array of modality codes) to design rows:
    a leading constant, then per-feature dummy blocks omitting each feature's
    reference (first-listed) modality.  With ``dtype=bool``, the active
    pattern of the rows."""
    covariates = np.asarray(covariates)
    if covariates.ndim == 1:
        covariates = covariates[None, :]
    n = covariates.shape[0]
    X = np.zeros((n, schema.n_design_columns), dtype=dtype)
    X[:, 0] = 1
    col = 1
    for j, (_, codes) in enumerate(schema.features):
        for code in codes[1:]:
            X[:, col] = covariates[:, j] == code
            col += 1
    return X


# ---------------------------------------------------------------------------
# CSV input/output


def _parse_int(value: str, row: int, col: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise DataError(f"row {row}: column {col} has non-integer value {value!r}")


def _parse_columns(body: str, header: list[str]) -> np.ndarray | None:
    """The records after the header as one structured array, field ``f<i>``
    holding column i: int64, and float64 for ``w``, parsed in one C pass by
    ``np.loadtxt``.  That parser accepts no cell that ``int`` or ``float``
    rejects, and reads a float to the same bits.  None where the row parser
    must read the body: when it is empty, or holds a quote, a blank line or
    a lone ``\\r``, which ``csv`` reads otherwise, or when a cell fails, whose
    row only the row parser names."""
    if (
        not body
        or '"' in body
        or body.count("\r") != body.count("\r\n")
        or body.startswith(("\n", "\r"))
        or "\n\n" in body
        or "\n\r" in body
    ):
        return None
    dtype = np.dtype(",".join("f8" if name == "w" else "i8" for name in header))
    try:
        return np.loadtxt(io.StringIO(body), dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return None


def _parse_rows(
    path: str, body: str, header: list[str], schema: CategoricalSchema
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Covariates, c, r and w of the records after the header, read record
    by record; an error names the first bad record's row."""
    pos = {name: header.index(name) for name in header}
    cov_rows, cs, rs, ws = [], [], [], []
    for i, cells in enumerate(csv.reader(io.StringIO(body, newline="")), start=1):
        if len(cells) != len(header):
            raise DataError(f"row {i}: expected {len(header)} fields")
        if any(cell.strip() == "" for cell in cells):
            raise DataError(f"row {i}: missing value")
        cov_rows.append(
            [_parse_int(cells[pos[name]], i, name) for name in schema.feature_names]
        )
        cs.append(_parse_int(cells[pos["c"]], i, "c"))
        rs.append(_parse_int(cells[pos["r"]], i, "r"))
        try:
            ws.append(float(cells[pos["w"]]))
        except ValueError:
            raise DataError(f"row {i}: column w has non-numeric value")
    if not cov_rows:
        raise DataError(f"{path}: no data rows")
    try:
        ints = [np.array(column, dtype=np.int64) for column in (cov_rows, cs, rs)]
    except OverflowError:
        raise DataError(f"{path}: an integer value lies outside the 64-bit range")
    return (*ints, np.array(ws, dtype=np.float64))


def load_csv(path: str, schema: CategoricalSchema) -> Dataset:
    """Load and validate a comma-separated file with one column per feature
    plus ``c``, ``r``, ``w``.  Row numbers in error messages count data rows
    starting at 1.  The records are parsed column by column, and record by
    record where that fails, so that an error names its row."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file")
        duplicate = sorted({name for name in header if header.count(name) > 1})
        if duplicate:
            raise DataError(f"{path}: duplicate column(s) {duplicate}")
        expected = set(schema.feature_names) | {"c", "r", "w"}
        missing = expected - set(header)
        if missing:
            raise DataError(f"{path}: missing column(s) {sorted(missing)}")
        extra = set(header) - expected
        if extra:
            raise DataError(f"{path}: unexpected column(s) {sorted(extra)}")
        body = fh.read()

    table = _parse_columns(body, header)
    if table is None:
        columns = _parse_rows(path, body, header, schema)
    else:
        field = {name: table[f"f{i}"] for i, name in enumerate(header)}
        covariates = np.empty((len(table), schema.n_features), dtype=np.int64)
        for j, name in enumerate(schema.feature_names):
            covariates[:, j] = field[name]
        columns = (covariates, *(field[name].copy() for name in ("c", "r", "w")))
    # The Dataset constructor checks the modality codes and the c, r and w
    # ranges, with the same row numbers.
    return Dataset(schema, *columns)


def save_csv(d: Dataset, path: str) -> None:
    """Write a dataset in the load_csv format, one format of a line template
    per record, 1024 records at a time so that no copy of the whole file is
    held.  Weights use shortest-repr float formatting, so save/load
    round-trips are bit-identical."""
    line = "%d," * (d.schema.n_features + 2) + "%r\r\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(list(d.schema.feature_names) + ["c", "r", "w"])
        for start in range(0, d.n, 1024):
            block = slice(start, start + 1024)
            ints = np.column_stack([d.covariates[block], d.c[block], d.r[block]]).tolist()
            fh.write("".join(line % (*row, w) for row, w in zip(ints, d.w[block].tolist())))


# ---------------------------------------------------------------------------
# Splits and folds


@dataclass(frozen=True)
class SplitPlan:
    fractions: tuple[float, float, float] = (0.70, 0.15, 0.15)
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.fractions) != 3:
            raise DataError("split fractions must be three: train, validation, test")
        if any(not (0.0 < f < 1.0) for f in self.fractions):
            raise DataError("split fractions must lie in (0, 1)")
        if abs(sum(self.fractions) - 1.0) > 1e-9:
            raise DataError("split fractions must sum to 1")


def split_indices(n: int, plan: SplitPlan) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shuffled partition with cuts at floor(n*f1) and floor(n*(f1+f2));
    the remainder goes to the test block."""
    rng = np.random.default_rng(plan.seed)
    perm = rng.permutation(n)
    f1, f2, _ = plan.fractions
    cut1 = math.floor(n * f1)
    cut2 = math.floor(n * (f1 + f2))
    parts = perm[:cut1], perm[cut1:cut2], perm[cut2:]
    if any(len(p) == 0 for p in parts):
        raise DataError(f"split of n={n} at {plan.fractions} leaves an empty part")
    return parts


def split(d: Dataset, plan: SplitPlan) -> tuple[Dataset, Dataset, Dataset]:
    tr, va, te = split_indices(d.n, plan)
    return d.take(tr), d.take(va), d.take(te)


@dataclass(frozen=True)
class FoldAssignment:
    K: int
    fold_of: np.ndarray  # (n,) int in [0, K)
    seed: int

    def __post_init__(self) -> None:
        self.fold_of.setflags(write=False)

    def fold_indices(self, k: int) -> np.ndarray:
        return np.nonzero(self.fold_of == k)[0]

    def complement_indices(self, k: int) -> np.ndarray:
        return np.nonzero(self.fold_of != k)[0]


MIN_FOLDS = 2


def make_folds(d: Dataset, K: int, seed: int = 0) -> FoldAssignment:
    """Balanced random folds; the first n % K folds get one extra record."""
    n = d.n
    if K < MIN_FOLDS:
        raise DataError(f"K must be at least {MIN_FOLDS}")
    if K > n:
        raise DataError(f"cannot make {K} folds from {n} records")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    fold_of = np.empty(n, dtype=np.int64)
    base, extra = divmod(n, K)
    start = 0
    for k in range(K):
        size = base + (1 if k < extra else 0)
        fold_of[perm[start : start + size]] = k
        start += size
    return FoldAssignment(K, fold_of, seed)


# ---------------------------------------------------------------------------
# Weighted statistics and grouping


def weighted_mean(values: np.ndarray, weights: np.ndarray) -> float:
    values = np.asarray(values, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if values.size == 0:
        raise DataError("weighted_mean of empty input")
    if np.any(weights <= 0):
        raise DataError("weights must be positive")
    return float(np.sum(weights * values) / np.sum(weights))


def quantile_group_indices(
    values: np.ndarray, weights: np.ndarray, n_groups: int
) -> list[np.ndarray]:
    """Split records into ``n_groups`` at the weighted quantiles of ``values``.

    Records are stably sorted by (value, index) and each record is assigned
    to the quantile bin containing the midpoint of its own weight mass, so
    ties are broken by index and groups stay near-balanced even when the
    values are degenerate.  A record whose weight spans a whole bin would
    leave that bin empty, so the groups' first sorted positions are then
    made strictly increasing: a forward pass moves each start to at least
    one past the previous start, a backward pass to at most one before the
    next start (n for the last).  Groups that are all nonempty are kept as
    assigned.  Fewer records than groups raise ``DataError``.
    """
    values = np.asarray(values, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    n = len(values)
    if n < n_groups:
        raise DataError(f"cannot split {n} records into {n_groups} quantile groups")
    order = np.argsort(values, kind="stable")
    cw = np.cumsum(weights[order])
    total = cw[-1]
    mid = (cw - weights[order] / 2.0) / total
    cuts = np.arange(1, n_groups) / n_groups
    bin_of_sorted = np.searchsorted(cuts, mid, side="left")
    starts = np.searchsorted(bin_of_sorted, np.arange(n_groups + 1), side="left")
    for g in range(1, n_groups):
        starts[g] = max(starts[g], starts[g - 1] + 1)
    for g in range(n_groups - 1, 0, -1):
        starts[g] = min(starts[g], starts[g + 1] - 1)
    return [np.sort(order[a:b]) for a, b in zip(starts[:-1], starts[1:])]


def partition(d: Dataset, feature: str) -> list[np.ndarray]:
    """Disjoint, covering index sets, one per observed modality of
    ``feature``, in schema order."""
    j = d.schema.feature_index(feature)
    col = d.covariates[:, j]
    observed = [code for code in d.schema.codes_of(feature) if np.any(col == code)]
    return [np.nonzero(col == code)[0] for code in observed]
