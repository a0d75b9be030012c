"""Benchmark workloads: generated inputs, CLI invocation, and expected work.

Every input is a pure function of the workload seed. The seed picks one of
SEED_SETS input sets (seed mod SEED_SETS), so that every run can be checked
against a committed per-cell reference checksum in reference.json.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

SEED_SETS = 16
SIZES = ("full", "tiny")

_IDX_KEY = 424242


@dataclass
class Prepared:
    """One workload instance, ready to hand to the CLI."""

    argv: list[str]  # CLI arguments after the program name
    config_path: str
    cells: list[tuple]  # (method, lam, lam_e, seed), one result file each
    steps: int  # optimizer steps per invocation, main plus expansion
    input_set: int


def _n_train(count: int) -> int:
    # The 80/20 train/test split that tasks.py applies per class.
    return max(1, int(round(0.8 * count)))


def _angular_seq10(k: int, size: str, workdir: str):
    full = size == "full"
    num_tasks, classes, spc = (10, 10, 100) if full else (3, 4, 20)
    # The task sequence is fixed and the seed picks the training seed: ACC
    # on old tasks of a derangement sequence comes mostly from chance
    # agreements between layouts, so a per-seed sequence would swing
    # final_acc by ~20% across seeds.
    doc = {
        "version": 1,
        "benchmark": {"kind": "angular_sequence", "num_tasks": num_tasks,
                      "num_classes": classes, "samples_per_class": spc,
                      "input_dim": 16, "seed": 0},
        "methods": ["ewc", "afec", "si", "rwalk", "mas_afec"],
        "lambda": 100, "lambda_e": 10, "seeds": [k],
        "epochs": 4 if full else 1, "batch_size": 32,
        "optimizer": {"kind": "adam", "lr": 0.001},
        "arch": {"hidden": [64, 64] if full else [16], "activation": "relu"},
    }
    return ["run", "--jobs", "1"], doc, [classes * _n_train(spc)] * num_tasks


def _pair_grid_jobs2(k: int, size: str, workdir: str):
    full = size == "full"
    spc = 30 if full else 20
    doc = {
        "version": 1,
        "benchmark": {"kind": "conflicting_pair", "num_classes": 10,
                      "samples_per_class": spc, "input_dim": 16, "seed": k},
        "methods": ["ewc", "afec"],
        "lambda": [1, 10, 100] if full else [1, 100],
        "lambda_e": [0, 10, 100] if full else [0, 10],
        "seeds": [3 * k, 3 * k + 1, 3 * k + 2] if full else [k],
        "epochs": 3 if full else 1, "batch_size": 32,
        "optimizer": {"kind": "adam", "lr": 0.001},
        "arch": {"hidden": [64, 64] if full else [16], "activation": "relu"},
    }
    return ["grid", "--jobs", "2"], doc, [10 * _n_train(spc)] * 2


def write_idx(k: int, num_classes: int, per_class: int, images_path: str,
              labels_path: str) -> None:
    """Noisy 28x28 class prototypes: a dark seeded background plus one
    bright 6x6 patch per class, with enough pixel noise that ACC stays
    below 1.

    Patches sit on a fixed non-overlapping grid, so every pair of classes
    is equally hard to tell apart. With a mid-grey background instead,
    training often collapsed old tasks to chance and final ACC swung by
    ~15% across seeds."""
    if num_classes > 12:
        raise ValueError("at most 12 classes fit the patch grid")
    rng = np.random.default_rng([_IDX_KEY, k])
    base = rng.uniform(0.0, 0.2, (28, 28))
    protos = []
    for label in range(num_classes):
        proto = base.copy()
        r, c = 2 + 8 * (label // 4), 1 + 7 * (label % 4)
        proto[r:r + 6, c:c + 6] += 0.8
        protos.append(proto.ravel())
    labels = np.repeat(np.arange(num_classes), per_class)
    rng.shuffle(labels)
    pixels = np.stack([protos[y] for y in labels])
    pixels += 0.5 * rng.standard_normal(pixels.shape)
    pixels = np.clip(np.rint(pixels * 255.0), 0, 255).astype(np.uint8)
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x803, len(labels), 28, 28))
        fh.write(pixels.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", 0x801, len(labels)))
        fh.write(labels.astype(np.uint8).tobytes())


def _split_idx_wide(k: int, size: str, workdir: str):
    full = size == "full"
    classes, per_class, cpt = (10, 100, 2) if full else (4, 20, 2)
    images = os.path.join(workdir, "images.idx")
    labels = os.path.join(workdir, "labels.idx")
    write_idx(k, classes, per_class, images, labels)
    doc = {
        "version": 1,
        "benchmark": {"kind": "split_idx", "images": images, "labels": labels,
                      "classes_per_task": cpt, "seed": k},
        "methods": ["ewc", "afec", "mas"],
        "lambda": 100, "lambda_e": 10, "seeds": [k],
        "epochs": 2 if full else 1, "batch_size": 32,
        "optimizer": {"kind": "adam", "lr": 0.001},
        "arch": {"hidden": [256, 256] if full else [32, 32],
                 "activation": "relu"},
    }
    return ["run", "--jobs", "1"], doc, [cpt * _n_train(per_class)] * (classes // cpt)


BUILDERS = {
    "angular_seq10": _angular_seq10,
    "pair_grid_jobs2": _pair_grid_jobs2,
    "split_idx_wide": _split_idx_wide,
}


def _as_list(value) -> list[float]:
    return [float(v) for v in value] if isinstance(value, list) else [float(value)]


def _steps(doc: dict, n_train: list[int]) -> int:
    """Optimizer steps of one invocation: main training of every cell, plus
    expansion training for AFEC-style methods with lambda_e != 0."""
    batches = sum(math.ceil(n / doc["batch_size"]) for n in n_train)
    expansion_epochs = doc.get("expansion_epochs") or doc["epochs"]
    total = 0
    for method, _, lam_e, _ in _cells(doc):
        total += doc["epochs"] * batches
        if method.endswith("afec") and lam_e != 0.0:
            total += expansion_epochs * batches
    return total


def _cells(doc: dict) -> list[tuple]:
    return [(m, lam, lam_e, s)
            for m in doc["methods"]
            for lam in _as_list(doc["lambda"])
            for lam_e in _as_list(doc["lambda_e"])
            for s in doc["seeds"]]


def result_filename(cell: tuple) -> str:
    method, lam, lam_e, seed = cell
    return f"result_{method}_lam{lam:g}_lame{lam_e:g}_seed{seed}.json"


def prepare(name: str, size: str, seed: int, workdir: str) -> Prepared:
    """Generate the inputs of workload `name` for `seed` under `workdir`."""
    k = seed % SEED_SETS
    argv, doc, n_train = BUILDERS[name](k, size, workdir)
    config_path = os.path.join(workdir, "config.json")
    with open(config_path, "w") as fh:
        json.dump(doc, fh, indent=1)
    return Prepared(argv=argv + ["--config", config_path],
                    config_path=config_path, cells=_cells(doc),
                    steps=_steps(doc, n_train), input_set=k)
