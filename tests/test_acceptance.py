"""Acceptance suite: one test per release criterion.

Each test prints a single summary line so a plain `pytest -v -s
tests/test_acceptance.py` reads as a checklist. Benchmark hyperparameters
(cluster spread, penalty strengths, epoch budgets) were tuned once on the
desk-scale angular benchmark and are frozen here.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from afec_lab.continual import (ArchSpec, SequenceConfig, load_state,
                                run_sequence, transfer_probe)
from afec_lab.metrics import AccMatrix, acc, bwt, fwt
from afec_lab.nn import Batch, Network, finite_diff_check
from afec_lab.posterior import (DiagGaussian, estimate_diag_fisher,
                                fisher_running_average,
                                gaussian_weighted_product)
from afec_lab.tasks import (AngularLayout, gen_angular_task,
                            make_angular_sequence, make_conflicting_pair,
                            make_transfer_probe)

# frozen desk-scale benchmark: ten angular classes whose input clusters are
# shared between tasks, with enough cluster noise that the networks keep
# meaningful residuals (and therefore usable curvature) after training
SPREAD = 3.0
PAIR_ARCH = ArchSpec(hidden=[64, 64])
PAIR_EPOCHS = 20
LAM = 100.0
LAM_E = 10.0
SEEDS = range(5)


def pair_cfg(method, seed, lam=LAM, lam_e=0.0, **kw):
    return SequenceConfig(method=method, lam=lam, lam_e=lam_e,
                          epochs=PAIR_EPOCHS, seed=seed, arch=PAIR_ARCH, **kw)


def report(line):
    print(f"\n[acceptance] {line}")


def test_criterion_01_gradient_correctness():
    started = time.monotonic()
    worst = 0.0
    for seed in range(5):
        for loss_kind in ("mse", "cross_entropy", "angular_mse"):
            out_dim = 2 if loss_kind == "angular_mse" else 4
            net = Network.create(6, [10, 8], "tanh", {"out": out_dim}, seed)
            rng = np.random.default_rng(seed + 300)
            x = rng.standard_normal((9, 6))
            if loss_kind == "cross_entropy":
                y = rng.integers(0, out_dim, size=9)
            elif loss_kind == "angular_mse":
                phi = rng.uniform(0, 2 * math.pi, size=9)
                y = np.stack([np.cos(phi), np.sin(phi)], axis=1)
            else:
                y = rng.standard_normal((9, out_dim))
            err = finite_diff_check(net, Batch(x, y, "out"), loss_kind)
            worst = max(worst, err)
            assert err < 1e-4
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    report(f"criterion 1 PASS: max finite-difference error {worst:.2e} "
           f"in {elapsed:.1f}s")


def test_criterion_02_gaussian_product_closure():
    started = time.monotonic()
    rng = np.random.default_rng(42)

    g1 = DiagGaussian(rng.normal(size=6), 1 / rng.uniform(0.1, 4, size=6))
    g2 = DiagGaussian(rng.normal(size=6), 1 / rng.uniform(0.1, 4, size=6))
    e0 = gaussian_weighted_product(g1, g2, 0.0)
    e1 = gaussian_weighted_product(g1, g2, 1.0)
    assert np.max(np.abs(e0.mixture.mean - g1.mean)) < 1e-12
    assert np.max(np.abs(e0.mixture.precision - g1.precision)) < 1e-12
    assert np.max(np.abs(e1.mixture.mean - g2.mean)) < 1e-12
    assert abs(e0.log_norm) < 1e-12 and abs(e1.log_norm) < 1e-12

    for _ in range(50):
        beta = rng.uniform(0.05, 0.95)
        a = gaussian_weighted_product(g1, g2, beta)
        b = gaussian_weighted_product(g2, g1, 1.0 - beta)
        assert np.max(np.abs(a.mixture.mean - b.mixture.mean)) < 1e-12
        assert np.max(np.abs(a.mixture.precision / b.mixture.precision
                             - 1.0)) < 1e-12
        assert abs(a.log_norm - b.log_norm) < 1e-12

    worst_rel = 0.0
    for _ in range(100):
        mu1, mu2 = rng.normal(0, 2, size=2)
        s1, s2 = rng.uniform(0.3, 3.0, size=2)
        beta = rng.uniform(0.05, 0.95)
        res = gaussian_weighted_product(
            DiagGaussian(np.array([mu1]), np.array([1 / s1 ** 2])),
            DiagGaussian(np.array([mu2]), np.array([1 / s2 ** 2])), beta)
        span = abs(mu1) + abs(mu2) + 10 * (s1 + s2)
        x = np.linspace(-span, span, 200_001)
        p1 = np.exp(-0.5 * ((x - mu1) / s1) ** 2) / (s1 * math.sqrt(2 * math.pi))
        p2 = np.exp(-0.5 * ((x - mu2) / s2) ** 2) / (s2 * math.sqrt(2 * math.pi))
        z = float(np.trapezoid(p1 ** (1 - beta) * p2 ** beta, x))
        rel = abs(math.exp(res.log_norm) - z) / z
        worst_rel = max(worst_rel, rel)
        assert rel < 1e-4
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    report(f"criterion 2 PASS: endpoints/symmetry exact, worst normalizer "
           f"error {worst_rel:.2e} in {elapsed:.1f}s")


def test_criterion_03_ablation_identity():
    for seed in range(3):
        tasks = list(make_conflicting_pair(6, seed, samples_per_class=20,
                                           input_dim=6, cluster_spread=0.5))
        cfg_kw = dict(epochs=3, arch=ArchSpec(hidden=[16, 16]))
        ewc = run_sequence(SequenceConfig(method="ewc", lam=50.0, seed=seed,
                                          **cfg_kw), tasks)
        ablated = run_sequence(SequenceConfig(method="afec", lam=50.0,
                                              lam_e=0.0, seed=seed, **cfg_kw),
                               tasks)
        assert ewc.checksum == ablated.checksum
    report("criterion 3 PASS: afec(lam_e=0) checksum == ewc checksum, 3 seeds")


def test_criterion_04_two_task_direction_of_effect():
    started = time.monotonic()
    assert LAM_E in (0.1, 1.0, 10.0)
    wins = 0
    details = []
    for seed in SEEDS:
        tasks = list(make_conflicting_pair(10, seed, cluster_spread=SPREAD))
        ewc = acc(run_sequence(pair_cfg("ewc", seed), tasks).acc_matrix)
        afec = acc(run_sequence(pair_cfg("afec", seed, lam_e=LAM_E),
                                tasks).acc_matrix)
        wins += afec > ewc
        details.append(f"{afec:.3f}/{ewc:.3f}")
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    assert wins >= 4
    report(f"criterion 4 PASS: afec beats ewc in {wins}/5 seeds "
           f"(afec/ewc: {' '.join(details)}) in {elapsed:.0f}s")


def test_criterion_05_stability_plasticity_monotonicity():
    lams = [0.0, 1.0, 10.0, 100.0, 1000.0]
    a21 = np.zeros((len(list(SEEDS)), len(lams)))
    a22 = np.zeros_like(a21)
    for i, seed in enumerate(SEEDS):
        tasks = list(make_conflicting_pair(10, seed, cluster_spread=SPREAD))
        for j, lam in enumerate(lams):
            m = run_sequence(pair_cfg("ewc", seed, lam=lam), tasks).acc_matrix
            a21[i, j] = m.a[1][0]
            a22[i, j] = m.a[1][1]
    rho_old = spearmanr(lams, a21.mean(axis=0)).statistic
    rho_new = spearmanr(lams, a22.mean(axis=0)).statistic
    assert rho_old >= 0.6
    assert rho_new <= -0.6
    report(f"criterion 5 PASS: spearman(lam, A21)={rho_old:.2f} >= 0.6, "
           f"spearman(lam, A22)={rho_new:.2f} <= -0.6")


def test_criterion_06_transfer_probe_ordering(tmp_path):
    means = {}
    for method, lam, lam_e in (("finetune", 0.0, 0.0),
                               ("ewc", LAM, 0.0),
                               ("afec", LAM, LAM_E)):
        scores = []
        for seed in SEEDS:
            tasks = list(make_conflicting_pair(10, seed,
                                               cluster_spread=SPREAD))
            state_path = tmp_path / f"{method}_{seed}.json"
            run_sequence(pair_cfg(method, seed, lam=lam, lam_e=lam_e), tasks,
                         save_state_to=str(state_path))
            net, _, _ = load_state(str(state_path))
            for rot in (60, 120, 180, 240, 300):
                probe = make_transfer_probe(AngularLayout.identity(10), rot,
                                            cluster_spread=SPREAD, seed=seed)
                scores.append(transfer_probe(net, probe, epochs=50, lr=0.001))
        means[method] = float(np.mean(scores))
    assert means["afec"] >= means["finetune"]
    assert means["afec"] > means["ewc"]
    report(f"criterion 6 PASS: probe means afec={means['afec']:.4f} "
           f"finetune={means['finetune']:.4f} ewc={means['ewc']:.4f}")


def test_criterion_07_metric_oracle_equivalence():
    rng = np.random.default_rng(11)
    for _ in range(100):
        t = int(rng.integers(2, 8))
        a = [[0.7 * float(rng.uniform()) for _ in range(j + 1)]
             for j in range(t)]
        abar = 0.7 * rng.uniform(size=t)
        pre = np.concatenate([[np.nan], 0.7 * rng.uniform(size=t - 1)])
        m = AccMatrix(a=a, abar=abar, pre_train=pre)
        assert abs(acc(m) - sum(a[-1]) / t) < 1e-12
        assert abs(bwt(m) - sum(a[-1][i] - a[i][i]
                                for i in range(t - 1)) / (t - 1)) < 1e-12
        assert abs(fwt(m) - sum(pre[i] - abar[i]
                                for i in range(1, t)) / (t - 1)) < 1e-12
        c = float(rng.uniform(0, 0.2))
        shifted = AccMatrix(a=[[v + c for v in row] for row in a],
                            abar=abar.copy(), pre_train=pre + c)
        assert abs(acc(shifted) - (acc(m) + c)) < 1e-12
        assert abs(bwt(shifted) - bwt(m)) < 1e-12
        assert abs(fwt(shifted) - (fwt(m) + c)) < 1e-12
    report("criterion 7 PASS: acc/bwt/fwt match brute force and shift "
           "identities on 100 random matrices")


def test_criterion_08_constant_memory_state(tmp_path):
    sizes = {}
    for n in (1, 10):
        tasks = make_angular_sequence(n, 6, seed=0, samples_per_class=20,
                                      input_dim=6, cluster_spread=0.5)
        path = tmp_path / f"state_{n}.json"
        run_sequence(SequenceConfig(method="ewc", lam=10.0, epochs=2, seed=0,
                                    arch=ArchSpec(hidden=[16, 16])), tasks,
                     save_state_to=str(path))
        _, state, _ = load_state(str(path))
        assert state.task_count == n
        # the state file's payload, 8 bytes per stored number; its header
        # line holds the accuracy rows, the run's bookkeeping
        sizes[n] = len(path.read_bytes().partition(b"\n")[2])
    assert sizes[1] == sizes[10]
    report(f"criterion 8 PASS: serialized state is {sizes[1]} bytes after "
           f"task 1 and after task 10")


def test_criterion_09_fisher_properties():
    for seed in range(5):
        task = gen_angular_task(AngularLayout.identity(6), 20, 8, 0.7, seed)
        net = Network.create(8, [12, 10], "relu", {task.head: 2}, seed)
        f = estimate_diag_fisher(net, task, "angular_mse")
        assert np.all(f >= 0)
        assert np.all(np.isfinite(f))
    rng = np.random.default_rng(19)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        fishers = [rng.uniform(0, 5, size=12) for _ in range(n)]
        folded = np.zeros(12)
        for t, f in enumerate(fishers, start=1):
            folded = fisher_running_average(folded, f, t)
        assert np.max(np.abs(folded - np.mean(fishers, axis=0))) < 1e-12
    report("criterion 9 PASS: fisher nonnegative on random nets; running "
           "average folds equal batch means on 10 sequences")


def test_criterion_10_ten_task_sequence():
    started = time.monotonic()
    arch = ArchSpec(hidden=[32])
    wins = 0
    fwt_ewc, fwt_afec = [], []
    for seed in SEEDS:
        tasks = make_angular_sequence(10, 10, seed, cluster_spread=SPREAD)
        ewc = run_sequence(SequenceConfig(method="ewc", lam=LAM, epochs=20,
                                          seed=seed, arch=arch), tasks)
        afec = run_sequence(SequenceConfig(method="afec", lam=LAM,
                                           lam_e=1000.0, epochs=20, seed=seed,
                                           arch=arch), tasks)
        wins += acc(afec.acc_matrix) >= acc(ewc.acc_matrix)
        fwt_ewc.append(fwt(ewc.acc_matrix))
        fwt_afec.append(fwt(afec.acc_matrix))
    elapsed = time.monotonic() - started
    assert elapsed < 1200.0
    assert wins >= 4
    assert np.mean(fwt_afec) >= np.mean(fwt_ewc)
    report(f"criterion 10 PASS: afec ACC >= ewc in {wins}/5 seeds, "
           f"FWT afec={np.mean(fwt_afec):.4f} >= ewc={np.mean(fwt_ewc):.4f} "
           f"in {elapsed:.0f}s")
