"""Synthetic data with analytically known conditional probabilities.

The generating process parameterizes the two marginals and the conditional
correlation directly: p(x) and q(x) are logistic in the dummy-coded design
row, and rho(x) is either a constant or a squashed linear index.  The
four-cell distribution for each covariate cell follows exactly, so every
downstream functional has a closed-form truth to test against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import yaml

from .data import (
    CategoricalSchema,
    DataError,
    Dataset,
    as_list,
    encode_rows,
    load_yaml_mapping,
    read_entry,
    schema_features,
)
from .functionals import per_obs_stats

__all__ = [
    "RhoSpec",
    "WeightLaw",
    "SyntheticDGP",
    "GroundTruth",
    "InfeasibleCellError",
    "sample_dataset",
]

DGP_FILE_VERSION = 1
EAGER_FEASIBILITY_CELL_LIMIT = 10**6


class InfeasibleCellError(ValueError):
    """A covariate cell implies a probability outside [0, 1]."""


def _logistic(z: np.ndarray | float) -> np.ndarray | float:
    return 1.0 / (1.0 + np.exp(-z))


@dataclass(frozen=True)
class RhoSpec:
    """Conditional correlation as a function of the design row.

    kind "constant": rho = value everywhere.
    kind "tanh": rho = scale * tanh(coefs . row), bounded by |scale|.
    kind "custom": arbitrary callable (not serializable to config files).
    """

    kind: str = "constant"
    value: float = 0.0
    scale: float = 0.0
    coefs: tuple[float, ...] = ()
    fn: Callable[[np.ndarray], float] | None = None

    def __call__(self, row: np.ndarray) -> float:
        if self.kind == "constant":
            return self.value
        if self.kind == "tanh":
            return self.scale * math.tanh(float(np.dot(self.coefs, row)))
        if self.kind == "custom":
            assert self.fn is not None
            return float(self.fn(row))
        raise DataError(f"unknown rho kind {self.kind!r}")

    def evaluate_rows(self, rows: np.ndarray) -> np.ndarray:
        if self.kind == "constant":
            return np.full(rows.shape[0], self.value)
        if self.kind == "tanh":
            return self.scale * np.tanh(rows @ np.asarray(self.coefs))
        return np.array([self(row) for row in rows])


@dataclass(frozen=True)
class WeightLaw:
    """Point mass ``pi_one`` at w = 1 plus a Beta(alpha, beta) draw on (0, 1)."""

    pi_one: float = 0.4
    alpha: float = 2.0
    beta: float = 2.0

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        at_one = rng.random(n) < self.pi_one
        w = rng.beta(self.alpha, self.beta, size=n)
        # Guard the open-interval invariant: Beta draws of exactly 0 are
        # measure-zero but float-possible.
        w = np.clip(w, 1e-12, 1.0 - 1e-12)
        w[at_one] = 1.0
        return w


@dataclass(frozen=True)
class SyntheticDGP:
    schema: CategoricalSchema
    marginals: tuple[tuple[float, ...], ...]  # per feature, per modality
    coef_p: np.ndarray  # logistic coefficients for p(x), length n_design_columns
    coef_q: np.ndarray
    rho: RhoSpec = field(default_factory=RhoSpec)
    weights: WeightLaw = field(default_factory=WeightLaw)

    def __post_init__(self) -> None:
        if len(self.marginals) != self.schema.n_features:
            raise DataError("one marginal distribution required per feature")
        for (name, codes), probs in zip(self.schema.features, self.marginals):
            if len(probs) != len(codes):
                raise DataError(f"marginal for {name!r} has wrong length")
            if abs(sum(probs) - 1.0) > 1e-9 or any(p < 0 for p in probs):
                raise DataError(f"marginal for {name!r} is not a distribution")
        width = self.schema.n_design_columns
        for nm, coefs in (("coef_p", self.coef_p), ("coef_q", self.coef_q)):
            if np.asarray(coefs).shape != (width,):
                raise DataError(f"{nm} must have length {width}")
        if self.schema.n_cells <= EAGER_FEASIBILITY_CELL_LIMIT:
            cells = _all_cells_array(self.schema)
            for start in range(0, len(cells), _GROUND_TRUTH_CHUNK):
                block = cells[start : start + _GROUND_TRUTH_CHUNK]
                # raises InfeasibleCellError on the first bad cell
                _quads_for_rows(self, encode_rows(self.schema, block), block)

    def to_yaml(self, path: str) -> None:
        if self.rho.kind == "custom":
            raise DataError("custom rho functions are not serializable")
        doc = {
            "version": DGP_FILE_VERSION,
            "schema": {
                "features": [
                    {"name": n, "codes": list(c)} for n, c in self.schema.features
                ]
            },
            "marginals": [list(m) for m in self.marginals],
            "coef_p": [float(v) for v in self.coef_p],
            "coef_q": [float(v) for v in self.coef_q],
            "rho": {
                "kind": self.rho.kind,
                "value": self.rho.value,
                "scale": self.rho.scale,
                "coefs": list(self.rho.coefs),
            },
            "weights": {
                "pi_one": self.weights.pi_one,
                "alpha": self.weights.alpha,
                "beta": self.weights.beta,
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(doc, fh, sort_keys=False)

    @classmethod
    def from_yaml(cls, path: str) -> "SyntheticDGP":
        """The DGP of a file that ``to_yaml`` writes.  Each missing or
        ill-typed entry is a ``DataError`` that names the file and the key;
        ``rho`` and ``weights`` and their entries may be left out."""
        doc = load_yaml_mapping(path)
        if doc.get("version") != DGP_FILE_VERSION:
            raise DataError(f"unsupported DGP file version in {path}")
        features = schema_features(path, read_entry(path, doc, "schema"), "schema")

        def numbers(value) -> tuple[float, ...]:
            return tuple(float(v) for v in as_list(value))

        def number(part: dict, where: str, key: str, default: float) -> float:
            return read_entry(path, part, key, float, default=default, where=where)

        rho = read_entry(path, doc, "rho", default={})
        weights = read_entry(path, doc, "weights", default={})
        return cls(
            schema=CategoricalSchema(features),
            marginals=read_entry(path, doc, "marginals", lambda v: tuple(map(numbers, as_list(v)))),
            coef_p=np.asarray(read_entry(path, doc, "coef_p", numbers)),
            coef_q=np.asarray(read_entry(path, doc, "coef_q", numbers)),
            rho=RhoSpec(
                kind=read_entry(path, rho, "kind", default="constant", where="rho"),
                value=number(rho, "rho", "value", 0.0),
                scale=number(rho, "rho", "scale", 0.0),
                coefs=read_entry(path, rho, "coefs", numbers, default=(), where="rho"),
            ),
            weights=WeightLaw(
                pi_one=number(weights, "weights", "pi_one", 0.4),
                alpha=number(weights, "weights", "alpha", 2.0),
                beta=number(weights, "weights", "beta", 2.0),
            ),
        )


def _quads_for_rows(
    dgp: SyntheticDGP, rows: np.ndarray, cells: np.ndarray | None = None
) -> np.ndarray:
    """Exact (p00, p01, p10, p11) for a batch of design rows."""
    p = _logistic(rows @ np.asarray(dgp.coef_p))
    q = _logistic(rows @ np.asarray(dgp.coef_q))
    rho = dgp.rho.evaluate_rows(rows)

    def cell_name(i: int) -> str:
        return repr(tuple(int(v) for v in cells[i])) if cells is not None else f"#{i}"

    bad = np.abs(rho) > 1.0
    if bad.any():
        i = int(np.nonzero(bad)[0][0])
        raise InfeasibleCellError(f"cell {cell_name(i)}: rho {rho[i]} outside [-1, 1]")
    cov = rho * np.sqrt(p * (1.0 - p) * q * (1.0 - q))
    p11 = p * q + cov
    quads = np.column_stack([1.0 - p - q + p11, q - p11, p - p11, p11])
    bad = (quads < -1e-12) | (quads > 1.0 + 1e-12)
    if bad.any():
        i = int(np.nonzero(bad.any(axis=1))[0][0])
        raise InfeasibleCellError(
            f"cell {cell_name(i)}: implied quad {quads[i].tolist()} leaves the "
            f"simplex (p={p[i]:.4f}, q={q[i]:.4f}, rho={rho[i]:.4f})"
        )
    return np.clip(quads, 0.0, 1.0)


def _all_cells_array(schema) -> np.ndarray:
    """Every covariate cell in lexicographic feature order, shape (n_cells, n_features)."""
    sizes = [len(codes) for _, codes in schema.features]
    grids = np.indices(sizes).reshape(len(sizes), -1).T
    cells = np.empty_like(grids, dtype=np.int64)
    for j, (_, codes) in enumerate(schema.features):
        cells[:, j] = np.asarray(codes, dtype=np.int64)[grids[:, j]]
    return cells


def _cell_probability(dgp: SyntheticDGP, cells: np.ndarray) -> np.ndarray:
    probs = np.ones(len(cells))
    for j, (_, codes) in enumerate(dgp.schema.features):
        lut = np.zeros(max(codes) + 1)
        lut[np.asarray(codes, dtype=np.int64)] = dgp.marginals[j]
        probs *= lut[cells[:, j]]
    return probs


def _cell_keys(schema: CategoricalSchema, cells: np.ndarray) -> np.ndarray:
    """One mixed-radix integer per row of ``cells``: feature j's digit is
    the rank of its code among the schema's codes.  A row with a code
    outside the schema gets -1."""
    keys = np.zeros(len(cells), dtype=np.int64)
    known = np.ones(len(cells), dtype=bool)
    for j, (_, codes) in enumerate(schema.features):
        sorted_codes = np.sort(np.asarray(codes, dtype=np.int64))
        rank = np.searchsorted(sorted_codes, cells[:, j]).clip(max=len(codes) - 1)
        known &= sorted_codes.take(rank) == cells[:, j]
        keys *= len(codes)
        keys += rank
    return np.where(known, keys, -1)


_GROUND_TRUTH_CHUNK = 65536


@dataclass(frozen=True)
class GroundTruth:
    """Per-cell truth: quad, covariance, correlation, and cell probability."""

    schema: CategoricalSchema
    cells: tuple[tuple[int, ...], ...]
    quads: np.ndarray  # (n_cells, 4)
    covariance: np.ndarray
    correlation: np.ndarray
    cell_prob: np.ndarray

    def lookup(self) -> dict[tuple[int, ...], int]:
        return {cell: i for i, cell in enumerate(self.cells)}

    def record_values(
        self, covariates: np.ndarray, which: str = "correlation"
    ) -> np.ndarray:
        """The truth of each record's cell: one mixed-radix key per record,
        found among the cells' sorted keys, and one ``take``."""
        table = {"correlation": self.correlation, "covariance": self.covariance}[which]
        cells = np.asarray(self.cells, dtype=np.int64).reshape(len(self.cells), -1)
        keys = _cell_keys(self.schema, cells)
        order = np.argsort(keys)
        keys = keys[order]
        wanted = _cell_keys(self.schema, np.asarray(covariates, dtype=np.int64))
        at = np.searchsorted(keys, wanted).clip(max=len(keys) - 1)
        missing = keys.take(at) != wanted
        if missing.any():
            raise KeyError(tuple(int(v) for v in covariates[np.argmax(missing)]))
        return table.take(order.take(at))

    def save_csv(self, path: str) -> None:
        import csv

        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                list(self.schema.feature_names)
                + ["p00", "p01", "p10", "p11", "covariance", "correlation", "cell_prob"]
            )
            for i, cell in enumerate(self.cells):
                writer.writerow(
                    [int(v) for v in cell]
                    + [repr(float(v)) for v in self.quads[i]]
                    + [
                        repr(float(self.covariance[i])),
                        repr(float(self.correlation[i])),
                        repr(float(self.cell_prob[i])),
                    ]
                )


def _ground_truth_for_cells(dgp: SyntheticDGP, cells: np.ndarray) -> GroundTruth:
    chunks = []
    for start in range(0, len(cells), _GROUND_TRUTH_CHUNK):
        block = cells[start : start + _GROUND_TRUTH_CHUNK]
        chunks.append(_quads_for_rows(dgp, encode_rows(dgp.schema, block), block))
    quads = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
    stats = per_obs_stats(quads)
    return GroundTruth(
        dgp.schema,
        tuple(tuple(int(v) for v in cell) for cell in cells),
        quads,
        stats.covariance,
        stats.correlation,
        _cell_probability(dgp, cells),
    )


def compute_ground_truth(dgp: SyntheticDGP) -> GroundTruth:
    """Exhaustive truth table over every covariate cell.  Cost is linear in
    the number of cells, so keep schemas modest when calling this."""
    return _ground_truth_for_cells(dgp, _all_cells_array(dgp.schema))


def sample_dataset(
    dgp: SyntheticDGP, n: int, seed: int = 0
) -> tuple[Dataset, GroundTruth]:
    """Draw n i.i.d. records; deterministic given ``seed``.

    The returned GroundTruth covers the cells that actually occur in the
    sample, which keeps the cost independent of the (possibly enormous)
    total cell count.  Use compute_ground_truth for the exhaustive table.
    """
    if n < 1:
        raise DataError("n must be at least 1")
    rng = np.random.default_rng(seed)
    cov = np.empty((n, dgp.schema.n_features), dtype=np.int64)
    for j, (_, codes) in enumerate(dgp.schema.features):
        cov[:, j] = rng.choice(codes, size=n, p=dgp.marginals[j])

    quads = _quads_for_rows(dgp, encode_rows(dgp.schema, cov), cov)
    quads = quads / quads.sum(axis=1, keepdims=True)

    u = rng.random(n)
    cum = np.cumsum(quads, axis=1)
    klass = (u[:, None] >= cum).sum(axis=1)  # 0..3 coding (c,r) as 2c+r
    c = (klass >= 2).astype(np.int64)
    r = (klass % 2).astype(np.int64)
    w = dgp.weights.sample(rng, n)

    dataset = Dataset(dgp.schema, cov, c, r, w)
    return dataset, _ground_truth_for_cells(dgp, np.unique(cov, axis=0))
