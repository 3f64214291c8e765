"""Datasets on disk (labeled feature CSVs) and the synthetic benchmark
generator used for desk-scale experiments.

CSV layout: optional first line "# classes=C", then a header
"label,f0,...,f{d-1}", then one row per sample. label is an integer class
index, or -1 for unlabeled rows. Floats are written with 17 significant
digits, which round-trips IEEE doubles exactly, and every line ends in "\\n".
"""
from __future__ import annotations

import csv
import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError, ParseError, ValidationError


@dataclass
class Dataset:
    """Feature rows with integer labels; -1 marks an unlabeled row."""
    features: np.ndarray
    labels: np.ndarray
    class_count: int
    name: str = ""

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise InputError(f"dataset {self.name!r}: features must be 2-D")
        if self.labels.shape != (self.features.shape[0],):
            raise InputError(f"dataset {self.name!r}: {self.features.shape[0]} rows but "
                             f"{self.labels.shape[0]} labels")
        if self.features.size and not np.all(np.isfinite(self.features)):
            raise InputError(f"dataset {self.name!r}: non-finite feature value")
        if self.labels.size:
            if self.labels.min() < -1:
                raise InputError(f"dataset {self.name!r}: labels must be >= -1")
            if self.labels.max() >= self.class_count:
                raise InputError(f"dataset {self.name!r}: label {self.labels.max()} "
                                 f">= class_count {self.class_count}")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def save_csv(dataset: Dataset, path) -> None:
    header = ",".join(["label"] + [f"f{i}" for i in range(dataset.dim)])
    with open(path, "w", newline="") as fh:
        fh.write(f"# classes={dataset.class_count}\n{header}\n")
        np.savetxt(fh, np.column_stack([dataset.labels, dataset.features]),
                   fmt=["%d"] + ["%.17g"] * dataset.dim, delimiter=",")


def load_csv(path, class_count: int | None = None, name: str | None = None) -> Dataset:
    """Parse a feature CSV. class_count overrides the file's "# classes" line.

    Without either, the class count falls back to 1 + max label; a negative
    class count is a ValidationError. The body is parsed in one _loadtxt
    pass and checked by Dataset. If it does not parse or fails a check, the
    file is walked line by line to raise a ParseError or ValidationError
    naming the first bad line (1-based, blank lines counted).
    """
    # an undecodable byte becomes U+FFFD, which no field accepts, so it is
    # reported as a ParseError naming its line
    with open(path, encoding="utf-8", errors="replace") as fh:
        file_classes, header_line, dim = _read_head(path, fh)
        limit = class_count if class_count is not None else file_classes
        if limit is not None and limit < 0:
            where = path if class_count is not None else f"{path}:1"
            raise ValidationError(f"{where}: class count {limit} must be >= 0")
        row_type = np.dtype([("label", np.int64), ("features", np.float64, (dim,))])
        try:
            table = _loadtxt(fh, row_type)
            labels = np.ascontiguousarray(table["label"])
            classes = limit if limit is not None else int(labels.max(initial=-1)) + 1
            return Dataset(np.ascontiguousarray(table["features"]), labels, classes,
                           name or str(path))
        except (ValueError, InputError) as exc:
            failure = str(exc)
        _raise_first_bad_line(path, fh, header_line, row_type, limit)
    # reached only if the walk accepts a body the table parse rejected
    raise ParseError(f"{path}: {failure}")


def _read_head(path, fh) -> tuple[int | None, int, int]:
    """Read the optional "# classes=C" line and the header from fh.

    Returns the file's class count (or None), the header's line number and
    the feature dimension; fh is left at the first body line.
    """
    line = fh.readline()
    file_classes, header_line = None, 1
    if line.lstrip().startswith("#"):
        comment = line.lstrip()[1:].strip()
        if comment.startswith("classes="):
            try:  # the labels' int64 grammar, exactly one field
                (file_classes,) = _loadtxt([comment[len("classes="):]], np.dtype(np.int64)).tolist()
            except ValueError:
                raise ParseError(f"{path}:1: bad class count in {line.rstrip()!r}") from None
        line, header_line = fh.readline(), 2
    if not line:
        raise ParseError(f"{path}: missing header row")
    header = next(csv.reader([line]), [])
    if len(header) < 2 or header[0] != "label" or \
            header[1:] != [f"f{i}" for i in range(len(header) - 1)]:
        raise ParseError(f"{path}:{header_line}: header must be label,f0,...,f{{d-1}}")
    return file_classes, header_line, len(header) - 1


def _loadtxt(lines, row_type: np.dtype) -> np.ndarray:
    """np.loadtxt in the file's dialect, the one parser of body lines (the
    open file or a list of them): fields may be quoted or padded with spaces,
    an empty line gives no row, and numpy's int64 and float64 parsers decide
    what a label and a feature may look like. Raises ValueError on failure."""
    with warnings.catch_warnings():
        # an empty body is a valid empty dataset
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        # older numpy parses an integer field such as "1.5" through a float,
        # truncates it and only warns; as an error, numpy raises ValueError
        warnings.filterwarnings("error", r"loadtxt\(\): Parsing an integer via a float",
                                DeprecationWarning)
        return np.loadtxt(lines, dtype=row_type, delimiter=",", comments=None,
                          quotechar='"', ndmin=1)


def _raise_first_bad_line(path, fh, header_line: int, row_type: np.dtype,
                          limit: int | None) -> None:
    """Parse fh's body again line by line; raise the first failure, numpy's
    reason as a ParseError or a failed check as a ValidationError."""
    fh.seek(0)
    for ln, line in enumerate(itertools.islice(fh, header_line, None), start=header_line + 1):
        try:
            row = _loadtxt([line], row_type)
        except ValueError as exc:  # numpy's reason, without its row and column
            raise ParseError(f"{path}:{ln}: {str(exc).split(' at row')[0]}") from None
        if not row.size:  # an empty line
            continue
        label, features = row["label"][0], row["features"][0]
        if label < -1:
            raise ValidationError(f"{path}:{ln}: label {label} must be >= -1")
        if limit is not None and label >= limit:
            raise ValidationError(f"{path}:{ln}: label {label} >= class count {limit}")
        bad = np.flatnonzero(~np.isfinite(features))
        if bad.size:
            raise ValidationError(f"{path}:{ln}: non-finite value in column f{bad[0]}")


@dataclass(frozen=True)
class SynthSpec:
    """Rotated-blobs benchmark: C Gaussian blobs on the unit circle, the
    target copy rotated by shift_angle degrees, both embedded into dim
    dimensions by one shared random orthonormal projection."""
    classes: int = 4
    dim: int = 32
    per_class: int = 200
    shift_angle: float = 50.0
    noise_sigma: float = 0.25
    projection_seed: int = 0
    sample_seed: int = 0

    def __post_init__(self):
        if self.classes < 2:
            raise ConfigError(f"synth: classes must be >= 2, got {self.classes}")
        if self.dim < 2:
            raise ConfigError(f"synth: dim must be >= 2, got {self.dim}")
        if self.per_class < 1:
            raise ConfigError(f"synth: per_class must be >= 1, got {self.per_class}")
        if not 0.0 <= float(self.shift_angle) < 360.0:
            raise ConfigError(f"synth: shift_angle must lie in [0, 360), got {self.shift_angle}")
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma >= 0.0):
            raise ConfigError(f"synth: noise_sigma must be >= 0, got {self.noise_sigma}")
        for key in ("projection_seed", "sample_seed"):  # numpy's generators take no negative seed
            if getattr(self, key) < 0:
                raise ConfigError(f"synth: {key} must be >= 0, got {getattr(self, key)}")


def _blob_coords(spec: SynthSpec, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Class-major 2-D samples around the unit-circle centers, plus labels."""
    angles = 2.0 * np.pi * np.arange(spec.classes) / spec.classes
    centers = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    coords = np.repeat(centers, spec.per_class, axis=0)
    coords = coords + spec.noise_sigma * rng.standard_normal(coords.shape)
    labels = np.repeat(np.arange(spec.classes), spec.per_class)
    return coords, labels


def gen_rotated_blobs(spec: SynthSpec) -> tuple[Dataset, Dataset]:
    """Generate the (source, target) pair. Fully determined by the two seeds."""
    proj_rng = np.random.default_rng(spec.projection_seed)
    basis, _ = np.linalg.qr(proj_rng.standard_normal((spec.dim, 2)))  # orthonormal columns

    src_rng = np.random.default_rng([spec.sample_seed, 0])
    tgt_rng = np.random.default_rng([spec.sample_seed, 1])
    src2, src_labels = _blob_coords(spec, src_rng)
    tgt2, tgt_labels = _blob_coords(spec, tgt_rng)

    theta = np.deg2rad(spec.shift_angle)
    rot = np.array([[np.cos(theta), -np.sin(theta)],
                    [np.sin(theta), np.cos(theta)]])
    tgt2 = tgt2 @ rot.T

    source = Dataset(src2 @ basis.T, src_labels, spec.classes, "synth-source")
    target = Dataset(tgt2 @ basis.T, tgt_labels, spec.classes, "synth-target")
    return source, target
