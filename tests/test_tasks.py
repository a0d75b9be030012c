"""Task generators, IDX ingestion, and split classification tasks."""

import csv
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from afec_lab.errors import ConfigError, FormatError, ShapeError
from afec_lab.tasks import (ANGLE_HEAD, AngularLayout, TaskDataset,
                            class_centers, export_csv, gen_angular_task,
                            load_idx, make_angular_sequence,
                            make_conflicting_pair, make_transfer_probe,
                            seeded_derangement, split_tasks)


class TestAngularLayout:
    def test_identity_ten_classes_angles(self):
        layout = AngularLayout.identity(10)
        angles = np.degrees(layout.angles())
        np.testing.assert_allclose(angles, 36.0 * np.arange(10), atol=1e-12)

    def test_rotation_adds_to_every_angle(self):
        layout = AngularLayout.identity(10, rotation=math.radians(60))
        assert math.degrees(layout.angles()[0]) == pytest.approx(60.0)

    def test_rotated_is_equivariant(self):
        layout = AngularLayout(6, np.array([2, 0, 1, 5, 3, 4]))
        delta = 1.234
        base = layout.angles()
        shifted = layout.rotated(delta).angles()
        np.testing.assert_allclose((shifted - base) % (2 * math.pi),
                                   delta % (2 * math.pi), atol=1e-12)

    def test_angles_all_distinct(self):
        layout = AngularLayout(8, np.random.default_rng(0).permutation(8))
        wrapped = np.sort(layout.angles() % (2 * math.pi))
        assert np.min(np.diff(wrapped)) > 1e-9

    def test_non_bijection_rejected(self):
        with pytest.raises(ConfigError):
            AngularLayout(3, np.array([0, 0, 2]))

    def test_too_few_classes_rejected(self):
        with pytest.raises(ConfigError):
            AngularLayout.identity(1)


class TestGenAngularTask:
    def test_same_seed_same_bytes(self):
        layout = AngularLayout.identity(5)
        a = gen_angular_task(layout, 20, 8, 0.5, seed=7)
        b = gen_angular_task(layout, 20, 8, 0.5, seed=7)
        np.testing.assert_array_equal(a.inputs_train, b.inputs_train)
        np.testing.assert_array_equal(a.targets_test, b.targets_test)

    def test_targets_are_unit_vectors(self):
        task = gen_angular_task(AngularLayout.identity(5), 20, 8, 0.5, seed=0)
        norms = np.linalg.norm(task.targets_train, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_split_sizes_80_20(self):
        task = gen_angular_task(AngularLayout.identity(5), 20, 8, 0.5, seed=0)
        assert task.n_train == 5 * 16
        assert len(task.inputs_test) == 5 * 4

    def test_train_test_rows_disjoint(self):
        task = gen_angular_task(AngularLayout.identity(4), 10, 6, 0.5, seed=1)
        train_rows = {tuple(r) for r in task.inputs_train}
        test_rows = {tuple(r) for r in task.inputs_test}
        assert not train_rows & test_rows

    def test_targets_consistent_with_class_angles(self):
        task = gen_angular_task(AngularLayout.identity(4), 10, 6, 0.5, seed=1)
        for target, label in zip(task.targets_train, task.labels_train):
            angle = task.class_angles[label]
            np.testing.assert_allclose(target,
                                       [math.cos(angle), math.sin(angle)],
                                       atol=1e-12)

    def test_uses_shared_angle_head(self):
        task = gen_angular_task(AngularLayout.identity(4), 10, 6, 0.5, seed=1)
        assert task.head == ANGLE_HEAD
        assert task.head_dim == 2

    def test_invalid_params_rejected(self):
        layout = AngularLayout.identity(4)
        with pytest.raises(ConfigError):
            gen_angular_task(layout, 1, 6, 0.5, seed=0)
        with pytest.raises(ConfigError):
            gen_angular_task(layout, 10, 6, 0.0, seed=0)

    def test_centers_shared_across_layouts_and_seeds(self):
        c1 = class_centers(5, 8)
        c2 = class_centers(5, 8)
        np.testing.assert_array_equal(c1, c2)


class TestSeededDerangement:
    @pytest.mark.parametrize("seed", range(10))
    def test_no_fixed_points(self, seed):
        perm = seeded_derangement(10, [seed])
        assert not np.any(perm == np.arange(10))

    def test_is_permutation(self):
        perm = seeded_derangement(7, [3])
        assert sorted(perm.tolist()) == list(range(7))

    def test_deterministic(self):
        np.testing.assert_array_equal(seeded_derangement(10, [5]),
                                      seeded_derangement(10, [5]))


class TestConflictingPair:
    def test_task_b_is_derangement(self):
        _, task_b = make_conflicting_pair(10, seed=0)
        identity_angles = AngularLayout.identity(10).angles()
        assert not np.any(np.isclose(task_b.class_angles, identity_angles))

    def test_inputs_byte_identical(self):
        task_a, task_b = make_conflicting_pair(10, seed=0)
        np.testing.assert_array_equal(task_a.inputs_train, task_b.inputs_train)
        np.testing.assert_array_equal(task_a.inputs_test, task_b.inputs_test)

    def test_every_class_angle_disagrees(self):
        task_a, task_b = make_conflicting_pair(10, seed=0)
        diff = np.abs((task_a.class_angles - task_b.class_angles
                       + math.pi) % (2 * math.pi) - math.pi)
        assert np.all(diff > 1e-9)

    def test_task_a_is_identity_layout(self):
        task_a, _ = make_conflicting_pair(10, seed=0)
        np.testing.assert_allclose(task_a.class_angles,
                                   AngularLayout.identity(10).angles())


class TestAngularSequence:
    def test_length_and_names(self):
        seq = make_angular_sequence(4, 10, seed=0)
        assert [t.name for t in seq] == ["task1", "task2", "task3", "task4"]

    def test_later_tasks_are_derangements(self):
        seq = make_angular_sequence(4, 10, seed=0)
        identity_angles = AngularLayout.identity(10).angles()
        for task in seq[1:]:
            assert not np.allclose(task.class_angles, identity_angles)

    def test_all_tasks_share_inputs(self):
        seq = make_angular_sequence(3, 10, seed=0)
        for task in seq[1:]:
            np.testing.assert_array_equal(task.inputs_train,
                                          seq[0].inputs_train)

    def test_zero_tasks_rejected(self):
        with pytest.raises(ConfigError):
            make_angular_sequence(0, 10, seed=0)


class TestTransferProbe:
    def test_rotation_zero_matches_base(self):
        base = AngularLayout.identity(10)
        probe = make_transfer_probe(base, 0.0, seed=0)
        np.testing.assert_allclose(probe.class_angles, base.angles())

    def test_rotation_180_flips_angles(self):
        base = AngularLayout.identity(10)
        probe = make_transfer_probe(base, 180.0, seed=0)
        expect = (base.angles() + math.pi) % (2 * math.pi)
        np.testing.assert_allclose(probe.class_angles % (2 * math.pi), expect,
                                   atol=1e-12)

    def test_five_standard_rotations_distinct(self):
        base = AngularLayout.identity(10)
        first_angles = set()
        for rot in (60, 120, 180, 240, 300):
            probe = make_transfer_probe(base, rot, seed=0)
            first_angles.add(round(probe.class_angles[0], 9))
        assert len(first_angles) == 5


class TestTaskDatasetValidation:
    def test_regression_requires_class_angles(self):
        with pytest.raises(ConfigError):
            TaskDataset(name="x", inputs_train=np.zeros((2, 3)),
                        inputs_test=np.zeros((2, 3)),
                        targets_train=np.ones((2, 2)),
                        targets_test=np.ones((2, 2)),
                        kind="regression_angle", head_dim=2, seed=0,
                        head="angle")

    def test_non_unit_targets_rejected(self):
        with pytest.raises(ShapeError):
            TaskDataset(name="x", inputs_train=np.zeros((2, 3)),
                        inputs_test=np.zeros((2, 3)),
                        targets_train=np.full((2, 2), 0.9),
                        targets_test=np.full((2, 2), 0.9),
                        kind="regression_angle", head_dim=2, seed=0,
                        head="angle", class_angles=np.zeros(4))

    def test_labels_out_of_range_rejected(self):
        with pytest.raises(ShapeError):
            TaskDataset(name="x", inputs_train=np.zeros((2, 3)),
                        inputs_test=np.zeros((2, 3)),
                        targets_train=np.array([0, 5]),
                        targets_test=np.array([0, 1]),
                        kind="classification", head_dim=3, seed=0, head="h")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            TaskDataset(name="x", inputs_train=np.zeros((2, 3)),
                        inputs_test=np.zeros((2, 3)),
                        targets_train=np.array([0, 1]),
                        targets_test=np.array([0, 1]),
                        kind="ranking", head_dim=2, seed=0, head="h")

    @pytest.mark.parametrize("inputs_test,targets_test,message", [
        (np.zeros((2, 5)), np.eye(2), "test inputs have 5 columns, train "
                                      "inputs 3"),
        (np.zeros((2, 3)), np.eye(3, 2), "disagree on sample count"),
        (np.zeros((0, 3)), np.zeros((0, 2)), "non-empty")],
        ids=["wider", "extra_target", "empty"])
    def test_test_split_checked_at_build(self, inputs_test, targets_test,
                                         message):
        # else only evaluate would find these, after the task has trained
        with pytest.raises(ShapeError, match=message):
            TaskDataset(name="x", inputs_train=np.zeros((2, 3)),
                        inputs_test=inputs_test, targets_train=np.eye(2),
                        targets_test=targets_test, kind="regression_angle",
                        head_dim=2, seed=0, head="angle",
                        class_angles=np.zeros(2))


def uint8_task(train, test):
    return TaskDataset(name="x", inputs_train=train, inputs_test=test,
                       targets_train=np.zeros(len(train), dtype=np.int64),
                       targets_test=np.zeros(len(test), dtype=np.int64),
                       kind="classification", head_dim=1, seed=0, head="h")


class TestTaskBatch:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 12), m=st.integers(1, 6),
           d=st.integers(1, 5), split=st.sampled_from(["train", "test"]))
    def test_uint8_rows_widen_as_the_whole_split_would(self, data, n, m, d,
                                                       split):
        train = data.draw(hnp.arrays(np.uint8, (n, d)))
        test = data.draw(hnp.arrays(np.uint8, (m, d)))
        stored = train if split == "train" else test
        rows = data.draw(st.none() | st.lists(
            st.integers(0, len(stored) - 1), min_size=1, max_size=8))
        task = uint8_task(train, test)
        assert task.inputs_train.dtype == task.inputs_test.dtype == np.uint8
        batch = task.batch(split, rows)
        want = stored.astype(np.float64) / 255.0
        want = want if rows is None else want[rows]
        assert batch.inputs.dtype == np.float64
        np.testing.assert_array_equal(batch.inputs.view(np.uint64),
                                      want.view(np.uint64))
        np.testing.assert_array_equal(
            batch.targets, getattr(task, "targets_" + split)[
                slice(None) if rows is None else rows])
        assert batch.head == "h"

    def test_pixel_bytes_span_the_unit_interval(self):
        task = uint8_task(np.array([[0, 255]], dtype=np.uint8),
                          np.array([[255, 0]], dtype=np.uint8))
        assert task.batch("train").inputs.tolist() == [[0.0, 1.0]]
        assert task.batch("test").inputs.tolist() == [[1.0, 0.0]]

    @pytest.mark.parametrize("rows", [None, [3, 0, 3], np.arange(5)])
    def test_float_rows_are_the_stored_bits(self, rows):
        task = gen_angular_task(AngularLayout.identity(4), 10, 6, 0.5, seed=0)
        for split in ("train", "test"):
            stored = getattr(task, "inputs_" + split)
            want = stored if rows is None else stored[rows]
            np.testing.assert_array_equal(
                task.batch(split, rows).inputs.view(np.uint64),
                want.view(np.uint64))


def write_idx_pair(tmp_path, images, labels):
    """Write a matching IDX image/label file pair and return the paths."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    img_path = tmp_path / "images.idx"
    lbl_path = tmp_path / "labels.idx"
    with open(img_path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        fh.write(images.tobytes())
    with open(lbl_path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, len(labels)))
        fh.write(labels.tobytes())
    return str(img_path), str(lbl_path)


class TestLoadIdx:
    def test_four_image_fixture_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        raw = rng.integers(0, 256, size=(4, 3, 2), dtype=np.uint8)
        labels = np.array([0, 1, 2, 3], dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, raw, labels)
        images, got_labels = load_idx(img, lbl)
        assert images.shape == (4, 6)
        assert images.dtype == np.uint8
        np.testing.assert_array_equal(images, raw.reshape(4, 6))
        np.testing.assert_array_equal(got_labels, labels)

    def test_pixels_scaled_to_unit_interval(self, tmp_path):
        # the file's bytes, scaled by the batches a task draws of them
        raw = np.array([[[0, 255]]], dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, raw, [0])
        images, _ = load_idx(img, lbl)
        assert images.dtype == np.uint8
        assert images.tolist() == [[0, 255]]
        assert uint8_task(images, images).batch("train").inputs.tolist() == \
            [[0.0, 1.0]]

    def test_split_tasks_keep_one_byte_per_pixel(self, tmp_path):
        raw = np.random.default_rng(1).integers(0, 256, (12, 3, 2))
        img, lbl = write_idx_pair(tmp_path, raw, np.repeat([0, 1], 6))
        [task] = split_tasks(*load_idx(img, lbl), classes_per_task=2)
        assert task.inputs_train.dtype == task.inputs_test.dtype == np.uint8
        assert task.inputs_train.nbytes == task.n_train * 3 * 2
        assert task.input_dim == 6

    def test_bad_image_magic(self, tmp_path):
        raw = np.zeros((1, 2, 2), dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, raw, [0])
        data = bytearray(open(img, "rb").read())
        data[3] = 0x99
        open(img, "wb").write(bytes(data))
        with pytest.raises(FormatError, match="magic"):
            load_idx(img, lbl)

    def test_bad_label_magic(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((1, 2, 2)), [0])
        with open(lbl, "r+b") as fh:
            fh.write(struct.pack(">I", 0x00000803))
        with pytest.raises(FormatError, match=re.escape(
                f"{lbl}: bad magic 0x00000803 at offset 0")):
            load_idx(img, lbl)

    def test_truncated_image_file(self, tmp_path):
        raw = np.zeros((2, 3, 3), dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, raw, [0, 1])
        data = open(img, "rb").read()
        open(img, "wb").write(data[:-4])
        with pytest.raises(FormatError, match="truncated"):
            load_idx(img, lbl)

    def test_count_mismatch(self, tmp_path):
        raw = np.zeros((2, 2, 2), dtype=np.uint8)
        img, _ = write_idx_pair(tmp_path, raw, [0, 1])
        short = tmp_path / "short_labels.idx"
        with open(short, "wb") as fh:
            fh.write(struct.pack(">II", 0x00000801, 1))
            fh.write(bytes([0]))
        with pytest.raises(FormatError, match="count"):
            load_idx(img, str(short))

    @pytest.mark.parametrize("rows,cols", [(0, 0), (0, 3), (3, 0)])
    def test_empty_images_rejected(self, tmp_path, rows, cols):
        img, lbl = write_idx_pair(tmp_path, np.zeros((2, rows, cols)), [0, 1])
        with pytest.raises(FormatError, match=re.escape(
                f"{img}: image size {rows}x{cols} at offset 8")):
            load_idx(img, lbl)

    @pytest.mark.parametrize("header", [
        (0xFFFFFFFF, 0xFFFF, 0xFFFF),  # 2^64 bytes: more than an index holds
        (2, 2, 3)])                    # one image more than the file holds
    def test_header_beyond_the_image_file(self, tmp_path, header):
        img, lbl = write_idx_pair(tmp_path, np.zeros((1, 2, 3)), [0])
        with open(img, "r+b") as fh:
            fh.write(struct.pack(">IIII", 0x00000803, *header))
        n, rows, cols = header
        with pytest.raises(FormatError, match=re.escape(
                f"{img}: truncated at offset 16: expected {n * rows * cols} "
                f"bytes, the file holds 6")):
            load_idx(img, lbl)

    def test_header_beyond_the_label_file(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((1, 2, 3)), [0])
        with open(lbl, "r+b") as fh:
            fh.write(struct.pack(">II", 0x00000801, 0xFFFFFFFF))
        with pytest.raises(FormatError, match=re.escape(
                f"{lbl}: truncated at offset 8: expected {0xFFFFFFFF} bytes, "
                f"the file holds 1")):
            load_idx(img, lbl)

    def test_file_shorter_than_its_header(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((1, 2, 3)), [0])
        with open(lbl, "wb") as fh:
            fh.write(b"\x00\x00")
        with pytest.raises(FormatError, match=re.escape(
                f"{lbl}: truncated at offset 0: expected 8 bytes, the file "
                f"holds 2")):
            load_idx(img, lbl)


class TestSplitTasks:
    def _data(self, n_classes=10, per_class=6, dim=4):
        rng = np.random.default_rng(0)
        images = rng.uniform(size=(n_classes * per_class, dim))
        labels = np.repeat(np.arange(n_classes), per_class)
        return images, labels

    def test_ten_classes_five_per_task(self):
        images, labels = self._data()
        tasks = split_tasks(images, labels, 5, seed=0)
        assert len(tasks) == 2
        assert all(t.head_dim == 5 for t in tasks)

    def test_class_sets_partition_all_classes(self):
        images, labels = self._data()
        tasks = split_tasks(images, labels, 5, seed=0)
        seen = set()
        for task in tasks:
            rows = {tuple(r) for r in task.inputs_train} | \
                   {tuple(r) for r in task.inputs_test}
            assert not rows & seen
            seen |= rows
        assert len(seen) == len(images)

    def test_labels_remapped_per_task(self):
        images, labels = self._data()
        for task in split_tasks(images, labels, 5, seed=0):
            assert task.targets_train.min() >= 0
            assert task.targets_train.max() < 5

    def test_same_seed_same_split(self):
        images, labels = self._data()
        a = split_tasks(images, labels, 5, seed=3)
        b = split_tasks(images, labels, 5, seed=3)
        for ta, tb in zip(a, b):
            np.testing.assert_array_equal(ta.inputs_train, tb.inputs_train)

    def test_indivisible_rejected(self):
        images, labels = self._data()
        with pytest.raises(ConfigError):
            split_tasks(images, labels, 3, seed=0)

    @pytest.mark.parametrize("classes_per_task", [0, -1, True, 2.0])
    def test_bad_classes_per_task_rejected(self, classes_per_task):
        # unchecked, 0 divided by zero, -1 gave no tasks, True gave tasks
        # of head_dim True and 2.0 a TypeError from range()
        images, labels = self._data()
        with pytest.raises(ConfigError, match=re.escape(
                f"classes_per_task: expected an integer >= 1, got "
                f"{classes_per_task!r}")):
            split_tasks(images, labels, classes_per_task, seed=0)

    def test_per_task_heads_distinct(self):
        images, labels = self._data()
        tasks = split_tasks(images, labels, 5, seed=0)
        assert len({t.head for t in tasks}) == len(tasks)


class TestExportCsv:
    def test_row_count_and_determinism(self, tmp_path):
        task = gen_angular_task(AngularLayout.identity(4), 10, 6, 0.5, seed=0)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        export_csv(task, p1)
        export_csv(task, p2)
        lines = p1.read_text().strip().split("\n")
        assert len(lines) == task.n_train + len(task.inputs_test)
        assert p1.read_text() == p2.read_text()

    @pytest.mark.parametrize("kind", ["angular", "split", "split_bytes"])
    def test_cells_are_the_task_values(self, tmp_path, kind):
        if kind == "angular":
            task = gen_angular_task(AngularLayout.identity(4), 10, 6, 0.5,
                                    seed=0)
            targets = [task.class_angles[k] for k in task.labels_train]
            targets += [task.class_angles[k] for k in task.labels_test]
        else:
            pixels = np.random.default_rng(0).integers(0, 256, (12, 6))
            pixels = (pixels.astype(np.uint8) if kind == "split_bytes"
                      else pixels / 255.0)
            task = split_tasks(pixels, np.repeat(np.arange(2), 6), 2)[0]
            targets = [*task.labels_train, *task.labels_test]
        path = tmp_path / "task.csv"
        export_csv(task, path)
        with open(path, newline="") as fh:
            rows = [[float(cell) for cell in row] for row in csv.reader(fh)]
        inputs = np.concatenate([task.inputs_train, task.inputs_test])
        if inputs.dtype == np.uint8:  # the pixels a batch would hold
            inputs = inputs.astype(np.float64) / 255.0
        assert np.array_equal(np.array(rows)[:, :-1], inputs)
        assert [row[-1] for row in rows] == targets
