"""Task construction.

Synthetic angular-regression tasks with controllable conflict, split
classification tasks over raw image data, and IDX-format ingestion. All
generators are pure functions of their seeds.

The angular tasks share one Gaussian cluster per class in input space (the
cluster centers are keyed by class id only), so two tasks built from
different layouts have byte-identical inputs and conflict purely in their
target angles. All angular tasks also share a single output head.
"""

from __future__ import annotations

import csv
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, FormatError, ShapeError
from .nn import Batch, batch_arrays

ANGLE_HEAD = "angle"

_CENTER_KEY = 700301
_SAMPLE_KEY = 700302
_DERANGE_KEY = 700303
_SPLIT_KEY = 700304

# Cluster centers are drawn at this scale so that trained networks see
# inputs of magnitude well above 1. Larger activations give the quadratic
# anchor penalties curvature estimates of useful size, which keeps the
# interesting penalty-strength range within a few orders of magnitude of 1.
_CENTER_SCALE = 3.0


@dataclass
class AngularLayout:
    """Class-to-angle assignment: angle(k) = 2*pi*perm(k)/C + rotation."""

    num_classes: int
    permutation: np.ndarray
    rotation: float = 0.0

    def __post_init__(self):
        self.permutation = np.asarray(self.permutation, dtype=np.int64)
        if self.num_classes < 2:
            raise ConfigError("need at least 2 classes")
        if sorted(self.permutation.tolist()) != list(range(self.num_classes)):
            raise ConfigError("permutation must be a bijection on class ids")

    @classmethod
    def identity(cls, num_classes: int, rotation: float = 0.0) -> "AngularLayout":
        return cls(num_classes, np.arange(num_classes), rotation)

    def angles(self) -> np.ndarray:
        return 2.0 * math.pi * self.permutation / self.num_classes + self.rotation

    def rotated(self, delta: float) -> "AngularLayout":
        return AngularLayout(self.num_classes, self.permutation.copy(),
                             self.rotation + delta)


@dataclass
class TaskDataset:
    """Labeled sample set for one task.

    For regression tasks the targets are unit 2-vectors (cos, sin) of the
    class angle; `labels_*` keep the underlying class ids for accuracy
    scoring. `head` names the output layer the task trains and evaluates
    through; angular tasks all share one head. uint8 inputs (IDX pixels)
    are stored as such, one byte per pixel; `batch` widens what it draws.
    """

    name: str
    inputs_train: np.ndarray
    inputs_test: np.ndarray
    targets_train: np.ndarray
    targets_test: np.ndarray
    kind: str  # regression_angle | classification
    head_dim: int
    seed: int
    head: str
    labels_train: np.ndarray = field(default=None)
    labels_test: np.ndarray = field(default=None)
    class_angles: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("regression_angle", "classification"):
            raise ConfigError(f"unknown task kind {self.kind!r}")
        if self.kind == "regression_angle":
            if self.class_angles is None:
                raise ConfigError("regression task needs class_angles")
            norms = np.linalg.norm(self.targets_train, axis=1)
            if not np.allclose(norms, 1.0, atol=1e-12):
                raise ShapeError("regression targets must be unit vectors")
        else:
            for labels in (self.targets_train, self.targets_test):
                if labels.min() < 0 or labels.max() >= self.head_dim:
                    raise ShapeError("class labels out of head range")
            if self.labels_train is None:
                self.labels_train = self.targets_train
                self.labels_test = self.targets_test
        # Checked once here rather than in every batch drawn from them.
        self.inputs_train, self.targets_train = _checked_split(
            self.inputs_train, self.targets_train, least=0)
        self.inputs_test, self.targets_test = _checked_split(
            self.inputs_test, self.targets_test, least=1)
        if self.inputs_test.shape[1] != self.input_dim:
            raise ShapeError(f"test inputs have {self.inputs_test.shape[1]} "
                             f"columns, train inputs {self.input_dim}")

    def batch(self, split: str, rows=None) -> Batch:
        """The samples of `split` ("train" or "test"), or its `rows`, as a
        float64 Batch: uint8 inputs divided by 255.0, float ones as stored."""
        inputs = getattr(self, "inputs_" + split)
        targets = getattr(self, "targets_" + split)
        if rows is not None:
            inputs, targets = inputs[rows], targets[rows]
        if inputs.dtype == np.uint8:
            inputs = inputs.astype(np.float64) / 255.0
        return Batch.of_checked(inputs, targets, self.head)

    @property
    def input_dim(self) -> int:
        return self.inputs_train.shape[1]

    @property
    def n_train(self) -> int:
        return self.inputs_train.shape[0]


def _checked_split(inputs, targets, least: int):
    """batch_arrays' checks of one split; uint8 inputs stay uint8."""
    inputs = np.asarray(inputs)
    return batch_arrays(inputs, targets, least,
                        np.uint8 if inputs.dtype == np.uint8 else np.float64)


def class_centers(num_classes: int, input_dim: int) -> np.ndarray:
    """Fixed Gaussian cluster centers, keyed by class id only so every
    layout over the same classes shares them."""
    centers = np.empty((num_classes, input_dim))
    for k in range(num_classes):
        rng = np.random.default_rng([_CENTER_KEY, input_dim, k])
        centers[k] = _CENTER_SCALE * rng.standard_normal(input_dim)
    return centers


def gen_angular_task(layout: AngularLayout, samples_per_class: int,
                     input_dim: int, cluster_spread: float, seed: int,
                     name: str = "angular") -> TaskDataset:
    """Angular regression task: Gaussian clusters in input space, unit-vector
    angle targets from the layout, 80/20 train/test split per class."""
    if samples_per_class < 3:  # two would leave the test split empty
        raise ConfigError("need at least 3 samples per class")
    if cluster_spread <= 0:
        raise ConfigError("cluster_spread must be positive")
    centers = class_centers(layout.num_classes, input_dim)
    angles = layout.angles()
    n_train = max(1, int(round(0.8 * samples_per_class)))
    xs_tr, xs_te, ys_tr, ys_te, ls_tr, ls_te = [], [], [], [], [], []
    for k in range(layout.num_classes):
        rng = np.random.default_rng([_SAMPLE_KEY, seed, k])
        x = centers[k] + cluster_spread * rng.standard_normal(
            (samples_per_class, input_dim))
        target = np.array([math.cos(angles[k]), math.sin(angles[k])])
        y = np.tile(target, (samples_per_class, 1))
        xs_tr.append(x[:n_train]); xs_te.append(x[n_train:])
        ys_tr.append(y[:n_train]); ys_te.append(y[n_train:])
        ls_tr.append(np.full(n_train, k)); ls_te.append(np.full(samples_per_class - n_train, k))
    return TaskDataset(
        name=name,
        inputs_train=np.concatenate(xs_tr), inputs_test=np.concatenate(xs_te),
        targets_train=np.concatenate(ys_tr), targets_test=np.concatenate(ys_te),
        kind="regression_angle", head_dim=2, seed=seed, head=ANGLE_HEAD,
        labels_train=np.concatenate(ls_tr), labels_test=np.concatenate(ls_te),
        class_angles=angles)


def seeded_derangement(num_classes: int, key) -> np.ndarray:
    """Random permutation with no fixed points, by rejection sampling."""
    rng = np.random.default_rng(key)
    while True:
        perm = rng.permutation(num_classes)
        if not np.any(perm == np.arange(num_classes)):
            return perm


def make_conflicting_pair(num_classes: int = 10, seed: int = 0,
                          samples_per_class: int = 100, input_dim: int = 16,
                          cluster_spread: float = 0.15):
    """Two-task benchmark with maximal target conflict: identical input
    clusters, task B's class slots a derangement of task A's."""
    layout_a = AngularLayout.identity(num_classes)
    layout_b = AngularLayout(num_classes,
                             seeded_derangement(num_classes, [_DERANGE_KEY, seed]))
    task_a = gen_angular_task(layout_a, samples_per_class, input_dim,
                              cluster_spread, seed, name="taskA")
    task_b = gen_angular_task(layout_b, samples_per_class, input_dim,
                              cluster_spread, seed, name="taskB")
    return task_a, task_b


def make_angular_sequence(num_tasks: int = 10, num_classes: int = 10,
                          seed: int = 0, samples_per_class: int = 100,
                          input_dim: int = 16, cluster_spread: float = 0.15
                          ) -> list[TaskDataset]:
    """Task sequence over shared clusters: task 1 uses the identity layout,
    every later task a fresh seeded derangement."""
    if num_tasks < 1:
        raise ConfigError("need at least one task")
    tasks = []
    for t in range(num_tasks):
        if t == 0:
            layout = AngularLayout.identity(num_classes)
        else:
            layout = AngularLayout(
                num_classes, seeded_derangement(num_classes, [_DERANGE_KEY, seed, t]))
        tasks.append(gen_angular_task(layout, samples_per_class, input_dim,
                                      cluster_spread, seed, name=f"task{t + 1}"))
    return tasks


def make_transfer_probe(base_layout: AngularLayout, rotation_deg: float,
                        samples_per_class: int = 100, input_dim: int = 16,
                        cluster_spread: float = 0.15, seed: int = 0) -> TaskDataset:
    """Probe task: same relative class positions as the base layout, rotated."""
    layout = base_layout.rotated(math.radians(rotation_deg))
    return gen_angular_task(layout, samples_per_class, input_dim,
                            cluster_spread, seed,
                            name=f"probe_rot{int(rotation_deg)}")


# -- IDX ingestion and split classification ---------------------------------

_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801


def _read_exact(fh, count: int, path: str, offset: int) -> bytes:
    """`count` bytes from `offset`, checked against the file's size before
    the read, so a header cannot ask for more memory than the file holds."""
    held = os.fstat(fh.fileno()).st_size - offset
    data = fh.read(count) if count <= held else b""
    if len(data) != count:
        raise FormatError(f"{path}: truncated at offset {offset}: expected "
                          f"{count} bytes, the file holds {max(held, 0)}")
    return data


def load_idx(images_path: str, labels_path: str):
    """Read an IDX image/label pair: the images as the file's uint8 pixels,
    one [rows*cols] row per image, and the labels as int64."""
    with open(images_path, "rb") as fh:
        magic, n, rows, cols = struct.unpack(
            ">IIII", _read_exact(fh, 16, str(images_path), 0))
        if magic != _IDX_IMAGES_MAGIC:
            raise FormatError(f"{images_path}: bad magic {magic:#010x} at offset 0")
        if not (rows and cols):
            raise FormatError(f"{images_path}: image size {rows}x{cols} at "
                              f"offset 8; rows and cols must be >= 1")
        raw = _read_exact(fh, n * rows * cols, str(images_path), 16)
    images = np.frombuffer(raw, dtype=np.uint8).reshape(n, rows * cols)
    with open(labels_path, "rb") as fh:
        magic, n_labels = struct.unpack(
            ">II", _read_exact(fh, 8, str(labels_path), 0))
        if magic != _IDX_LABELS_MAGIC:
            raise FormatError(f"{labels_path}: bad magic {magic:#010x} at offset 0")
        raw = _read_exact(fh, n_labels, str(labels_path), 8)
    labels = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
    if n_labels != n:
        raise FormatError(
            f"{labels_path}: label count {n_labels} != image count {n}")
    return images, labels


def split_tasks(images: np.ndarray, labels: np.ndarray,
                classes_per_task: int = 5, seed: int = 0) -> list[TaskDataset]:
    """Partition classes into contiguous seeded groups, one classification
    task per group with labels remapped to [0, classes_per_task)."""
    if not (type(classes_per_task) is int and classes_per_task >= 1):
        raise ConfigError(f"classes_per_task: expected an integer >= 1, "
                          f"got {classes_per_task!r}")
    classes = np.unique(labels)
    if not len(classes):
        raise ConfigError("split_idx: the IDX pair holds no images")
    if len(classes) % classes_per_task != 0:
        raise ConfigError(
            f"{len(classes)} classes not divisible by {classes_per_task}")
    order = np.random.default_rng([_SPLIT_KEY, seed]).permutation(classes)
    tasks = []
    for t in range(len(classes) // classes_per_task):
        group = order[t * classes_per_task:(t + 1) * classes_per_task]
        xs_tr, xs_te, ys_tr, ys_te = [], [], [], []
        for new_label, cls in enumerate(group):
            x = images[labels == cls]
            if len(x) < 3:  # two would leave the test split empty
                raise ConfigError(f"class {cls} has {len(x)} image(s); "
                                  f"split_idx needs at least 3 per class")
            rng = np.random.default_rng([_SPLIT_KEY, seed, t, new_label])
            x = x[rng.permutation(len(x))]
            n_train = max(1, int(round(0.8 * len(x))))
            xs_tr.append(x[:n_train]); xs_te.append(x[n_train:])
            ys_tr.append(np.full(n_train, new_label))
            ys_te.append(np.full(len(x) - n_train, new_label))
        tasks.append(TaskDataset(
            name=f"split{t + 1}",
            inputs_train=np.concatenate(xs_tr), inputs_test=np.concatenate(xs_te),
            targets_train=np.concatenate(ys_tr), targets_test=np.concatenate(ys_te),
            kind="classification", head_dim=classes_per_task, seed=seed,
            head=f"split{t + 1}"))
    return tasks


def export_csv(task: TaskDataset, path) -> None:
    """One row per sample: features..., label-or-angle; train rows first."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for split, labels in (("train", task.labels_train),
                              ("test", task.labels_test)):
            for x, lab in zip(task.batch(split).inputs, labels):
                if task.kind == "regression_angle":
                    value = float(task.class_angles[int(lab)])
                else:
                    value = int(lab)
                # Python floats, which the csv module writes as their repr
                # (a numpy 2 scalar's repr is "np.float64(...)")
                writer.writerow([*x.tolist(), value])
