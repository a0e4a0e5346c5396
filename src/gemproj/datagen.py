"""Synthetic domain-drift benchmark and CSV ingestion.

The stream is a class-conditional Gaussian mixture whose class priors
shift across experiences (same classes, different mixture weights), the
domain-incremental setting.  Experiences are built from disjoint row
indices, split 80/20 into train/test by a keyed hash that is a pure
function of (seed, experience id, row index), and presented in an order
shuffled per seed.

External numeric datasets come in through ``ingest_csv`` with the schema
``f0,...,f{n-1},label,experience`` (UTF-8, header row required): one
checked C parse (``read_csv``), then a per-seed split (``split_table``).
"""

from __future__ import annotations

import csv
import hashlib
import logging
import math
import numbers
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

logger = logging.getLogger(__name__)

TEST_FRACTION = 0.2

# Frozen desk-scale geometry: unit-covariance Gaussians with class means
# at this radius give a linear probe roughly 85-90% within-experience
# accuracy, leaving headroom for forgetting signals.
DEFAULT_MEAN_SCALE = 2.0
POOLED_SEED_TAG = 0xF00D  # generate_pooled's substream, disjoint from the experiences'


def check_ranges(obj, ranges):
    """Raise ValueError naming the first field in ``ranges`` that is not a number
    of its declared type (an int field takes integers only, and no field takes
    a bool) within its range."""
    ints = {f.name for f in fields(obj) if f.type in ("int", int)}
    for names, rule, ok in ranges:
        for name in names:
            value = getattr(obj, name)
            kind, number = ("an integer", numbers.Integral) if name in ints else ("a number", numbers.Real)
            if isinstance(value, bool) or not isinstance(value, number) or not ok(value):
                raise ValueError(f"{name} must be {kind} {rule}, got {value!r}")


# (fields, rule, check) per numeric StreamSpec field, failing on NaN
_RANGES = (
    (("n_experiences", "feature_dim"), ">= 1", lambda v: v >= 1),
    (("n_classes", "n_per_experience"), ">= 2", lambda v: v >= 2),
    (("seed",), ">= 0", lambda v: v >= 0),
    (("prior_concentration",), "in [0, 1]", lambda v: 0 <= v <= 1),
    (("mean_scale",), "> 0 and finite", lambda v: 0 < v < math.inf),
)


@dataclass(frozen=True)
class StreamSpec:
    n_classes: int = 4
    n_experiences: int = 3
    feature_dim: int = 32
    n_per_experience: int = 4000
    prior_concentration: float = 0.7  # mass on the focus class of each experience
    mean_scale: float = DEFAULT_MEAN_SCALE
    seed: int = 0

    def __post_init__(self):
        check_ranges(self, _RANGES)

    def priors(self) -> np.ndarray:
        """Per-experience class-probability vectors, each summing to 1: experience
        e puts ``prior_concentration`` on class (e mod C), the rest uniformly."""
        p = self.prior_concentration
        P = np.full((self.n_experiences, self.n_classes), (1.0 - p) / (self.n_classes - 1))
        for e in range(self.n_experiences):
            P[e, e % self.n_classes] = p
        return P

    def class_means(self) -> np.ndarray:
        rng = np.random.default_rng([self.seed, 0x3EA])
        M = rng.standard_normal((self.n_classes, self.feature_dim))
        M *= self.mean_scale / np.linalg.norm(M, axis=1, keepdims=True)
        return M


@dataclass
class ExperienceSplit:
    """One experience's 80/20 train/test split plus its underlying row ids."""

    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    experience_id: int
    train_rows: np.ndarray = field(repr=False, default=None)
    test_rows: np.ndarray = field(repr=False, default=None)

    @property
    def n_train(self) -> int:
        return len(self.train_y)

    @property
    def n_test(self) -> int:
        return len(self.test_y)


def _split_key(seed: int, experience_id: int, row_index: int) -> int:
    """Stable per-row sort key; a pure function of (seed, exp id, row index)."""
    digest = hashlib.blake2b(
        f"{seed}:{experience_id}:{row_index}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


def split_80_20(seed: int, experience_id: int, row_indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic 80/20 split: rows with the smallest keys become test.

    Test count is floor(0.2 n) with a minimum of 1.
    """
    n = len(row_indices)
    if n < 2:
        raise ValueError(f"experience {experience_id} needs at least 2 rows to split")
    n_test = max(1, math.floor(TEST_FRACTION * n))
    keys = np.array([_split_key(seed, experience_id, int(r)) for r in row_indices])
    order = np.argsort(keys, kind="stable")
    test_pos = np.sort(order[:n_test])
    train_pos = np.sort(order[n_test:])
    return train_pos, test_pos


def _split(seed: int, experience_id: int, X: np.ndarray, y: np.ndarray, rows: np.ndarray) -> ExperienceSplit:
    """One experience's rows, split 80/20 by ``split_80_20``."""
    train_pos, test_pos = split_80_20(seed, experience_id, rows)
    return ExperienceSplit(
        train_x=X[train_pos],
        train_y=y[train_pos],
        test_x=X[test_pos],
        test_y=y[test_pos],
        experience_id=experience_id,
        train_rows=rows[train_pos],
        test_rows=rows[test_pos],
    )


def generate_stream(spec: StreamSpec) -> list[ExperienceSplit]:
    """Sample the drifted experience stream.

    Labels for experience e follow priors[e]; features are drawn from the
    label's Gaussian.  Row indices are globally consecutive, so
    experiences are disjoint by construction.  The presentation order of
    the experiences is shuffled per seed.
    """
    P = spec.priors()
    if np.any(P.sum(axis=0) == 0.0):
        logger.warning("some class has zero probability in every experience")
    means = spec.class_means()
    splits = []
    next_row = 0
    for e in range(spec.n_experiences):
        rng = np.random.default_rng([spec.seed, 0xDA7A, e])
        n = spec.n_per_experience
        y = rng.choice(spec.n_classes, size=n, p=P[e])
        X = means[y] + rng.standard_normal((n, spec.feature_dim))
        rows = np.arange(next_row, next_row + n)
        next_row += n
        splits.append(_split(spec.seed, e, X, y, rows))
    order = np.random.default_rng([spec.seed, 0x02D]).permutation(spec.n_experiences)
    return [splits[i] for i in order]


def generate_pooled(spec: StreamSpec, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform-prior sample from the same class geometry, for base-model
    pretraining (drawn from a separate substream, disjoint from the
    experience pool)."""
    rng = np.random.default_rng([spec.seed, POOLED_SEED_TAG])
    means = spec.class_means()
    y = rng.integers(0, spec.n_classes, size=n)
    X = means[y] + rng.standard_normal((n, spec.feature_dim))
    return X, y


# --- CSV interchange ----------------------------------------------------------

def csv_header(feature_dim: int) -> list[str]:
    return [f"f{i}" for i in range(feature_dim)] + ["label", "experience"]


def dump_csv(splits: list[ExperienceSplit], path: str):
    """Write a stream back out in the ingestion schema (train and test rows
    of each experience, in order) for reproducibility audits.

    Features are written as ``repr`` of each float, so ingesting the file
    reads back the same bits; lines end in ``\\r\\n``."""
    if not splits:
        raise ValueError("nothing to dump: empty stream")
    dim = splits[0].train_x.shape[1]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(csv_header(dim)) + "\r\n")
        for split in splits:
            for X, y in ((split.train_x, split.train_y), (split.test_x, split.test_y)):
                for xi, yi in zip(X.tolist(), y.tolist()):
                    fh.write(f"{','.join(map(repr, xi))},{yi},{split.experience_id}\r\n")


def _first_bad_row(path: str, dim: int, n_classes: int) -> str | None:
    """The diagnostic for the first data row the schema refuses, or None.

    Re-reads the file row by row, so it runs only once a parse or check
    has failed.  The message names the line (counted in CSV records,
    header = 1) and, for a feature, the column and cell text."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            where = f"{path}:{lineno}"
            if len(row) != dim + 2:
                return f"{where}: expected {dim + 2} columns, got {len(row)}"
            for col, cell in enumerate(row[:dim]):
                try:
                    value = float(cell)
                except ValueError:
                    return f"{where}: non-numeric feature in column f{col}: {cell!r}"
                if not math.isfinite(value):
                    return f"{where}: non-finite feature in column f{col}: {cell!r}"
            try:
                label = int(row[dim])
                int(row[dim + 1])
            except ValueError:
                return f"{where}: label/experience must be integers"
            if not 0 <= label < n_classes:
                return f"{where}: label {label} outside [0, {n_classes})"
    return None


def read_csv(path: str, n_classes: int) -> np.ndarray:
    """Parse and check a data CSV in one pass.

    Expected schema: header ``f0,...,f{n-1},label,experience``; every
    feature cell a finite number, labels integers in [0, n_classes),
    experience ids integers.  Returns one record per data row, in file
    order, with fields ``x`` (float64, shape (n,)), ``label`` and
    ``experience`` (int64).  A malformed file raises ValueError naming the
    first offending line (and column for a feature cell).
    """
    with open(path, newline="", encoding="utf-8") as fh:
        first = fh.readline()
        if not first:
            raise ValueError(f"empty CSV file: {path}")
        header = next(csv.reader([first]), [])
        if len(header) < 3 or header[-2:] != ["label", "experience"]:
            raise ValueError(
                f"{path}: header must be f0,...,f{{n-1}},label,experience, got {header}"
            )
        dim = len(header) - 2
        dtype = np.dtype([("x", np.float64, (dim,)), ("label", np.int64), ("experience", np.int64)])
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a file without data rows
                table = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None,
                                   quotechar='"', ndmin=1)
        except UnicodeDecodeError:
            raise  # a ValueError too, but re-reading the file would only raise it again
        except ValueError as e:
            # float()/int() take a few cells the C parser refuses (1_0, non-ASCII
            # digits, integers past int64); those keep the parser's message
            raise ValueError(_first_bad_row(path, dim, n_classes) or f"{path}: {e}") from None
    if len(table) == 0:
        raise ValueError(f"no data rows in CSV file: {path}")
    label = table["label"]
    if not (np.isfinite(table["x"]).all() and np.all((0 <= label) & (label < n_classes))):
        raise ValueError(_first_bad_row(path, dim, n_classes))
    return table


def split_table(table: np.ndarray, seed: int) -> list[ExperienceSplit]:
    """Split a ``read_csv`` table 80/20 per experience with ``seed``.

    Experiences come out in ascending id order; row ids count data rows
    in file order, so the split is a pure function of the file and seed."""
    order = np.argsort(table["experience"], kind="stable")
    ids, starts = np.unique(table["experience"][order], return_index=True)
    X, y = table["x"], table["label"]
    return [
        _split(seed, exp_id, X[rows], y[rows], rows)
        for exp_id, rows in zip(ids.tolist(), np.split(order, starts[1:]))
    ]


def ingest_csv(path: str, n_classes: int, seed: int = 0) -> list[ExperienceSplit]:
    """Load an external numeric-feature dataset (``read_csv``) and split it
    80/20 per experience with the run seed (``split_table``)."""
    return split_table(read_csv(path, n_classes), seed)
