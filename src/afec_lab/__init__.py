"""Continual-learning engine with active forgetting via synaptic
expansion-convergence, plus weight-regularization baselines and an
experiment CLI."""

import os

# OpenBLAS reads this once, when numpy first loads it, so it has to be set
# before any import below pulls numpy in. An idle OpenBLAS thread then
# sleeps after 2**4 polling cycles instead of spinning for 2**28 (about
# 0.1 s of a whole core after every threaded matrix product). The thread
# count and the partitioning of each product stay as they are, so every
# result keeps its bits. A value already in the environment wins; pool
# workers inherit it with the environment.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .continual import (ArchSpec, RunResult, SequenceConfig, evaluate,
                        load_state, random_init_baseline, run_sequence,
                        save_state, transfer_probe)
from .metrics import AccMatrix, acc, bwt, emit_report, fwt
from .nn import Adam, Batch, Network, SGD, finite_diff_check, make_optimizer
from .posterior import (DiagGaussian, WeightedProductResult,
                        estimate_diag_fisher, fisher_running_average,
                        gaussian_weighted_product, snapshot_anchor)
from .regularizers import (RegState, importance_update, quadratic_penalty,
                           train_expanded)
from .tasks import (AngularLayout, TaskDataset, gen_angular_task, load_idx,
                    make_angular_sequence, make_conflicting_pair,
                    make_transfer_probe, split_tasks)

__version__ = "0.1.0"
