"""Transfer metrics and report emission."""

import json
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from afec_lab.continual import RunResult
from afec_lab.errors import MetricUnavailableError, ShapeError
from afec_lab.metrics import AccMatrix, acc, bwt, emit_report, fwt


def random_matrix(rng, T):
    a = [[float(rng.uniform()) for _ in range(j + 1)] for j in range(T)]
    abar = rng.uniform(size=T)
    pre = np.concatenate([[np.nan], rng.uniform(size=T - 1)])
    return AccMatrix(a=a, abar=abar, pre_train=pre)


def brute_acc(m):
    return sum(m.a[-1]) / m.T


def brute_bwt(m):
    return sum(m.a[-1][i] - m.a[i][i] for i in range(m.T - 1)) / (m.T - 1)


def brute_fwt(m):
    return sum(m.pre_train[i] - m.abar[i] for i in range(1, m.T)) / (m.T - 1)


class TestAccMatrixValidation:
    def test_ragged_rows_rejected(self):
        with pytest.raises(ShapeError):
            AccMatrix(a=[[0.5], [0.5]], abar=np.zeros(2))

    def test_out_of_range_rejected(self):
        with pytest.raises(ShapeError):
            AccMatrix(a=[[1.5]], abar=np.zeros(1))

    def test_baseline_length_must_match(self):
        with pytest.raises(ShapeError):
            AccMatrix(a=[[0.5]], abar=np.zeros(2))

    def test_no_task_rejected(self):
        with pytest.raises(ShapeError, match="at least one task"):
            AccMatrix(a=[], abar=np.zeros(0))

    @pytest.mark.parametrize("pre", [
        np.array([np.nan]),                # one entry short
        np.array([np.nan, 0.5, 0.5]),      # one entry long
        np.array([np.nan, 1.5]),           # not an accuracy
        np.array([np.nan, -np.inf]),
        np.array(["nan", "0.5"]),          # not numbers
        np.array([None, 0.5], dtype=object)])
    def test_bad_pre_train_rejected(self, pre):
        with pytest.raises(ShapeError, match="pre_train must hold 2"):
            AccMatrix(a=[[0.5], [0.5, 0.5]], abar=np.zeros(2), pre_train=pre)

    @pytest.mark.parametrize("pre", [np.array([np.nan, 0.0]),
                                     np.array([1.0, np.nan])])
    def test_pre_train_of_nan_or_accuracies_accepted(self, pre):
        AccMatrix(a=[[0.5], [0.5, 0.5]], abar=np.zeros(2), pre_train=pre)

    @pytest.mark.parametrize("a", [[[True]], [[0.5], [0.5, False]],
                                   [[np.nan]], [["0.5"]]])
    def test_non_accuracies_rejected(self, a):
        # a bool would pass 0 <= v <= 1, and a string would not compare
        with pytest.raises(ShapeError, match=r"accuracies must lie in \[0, 1\]"):
            AccMatrix(a=a, abar=np.zeros(len(a)))

    @pytest.mark.parametrize("abar", [
        [7.0, -3.0],                       # not accuracies
        [0.5, np.nan],
        [True, False],                     # booleans
        ["0.5", "0.5"],                    # not numbers
        [None, 0.5],
        [0.5]])                            # one entry short
    def test_bad_abar_rejected(self, abar):
        with pytest.raises(ShapeError, match="abar must hold 2 accuracies"):
            AccMatrix(a=[[0.5], [0.5, 0.5]], abar=np.asarray(abar))

    def test_abar_of_accuracies_accepted(self):
        m = AccMatrix(a=[[0.5], [0.5, 0.5]], abar=[0, 1.0])
        assert m.abar.dtype == np.float64
        assert m.abar.tolist() == [0.0, 1.0]


class TestAcc:
    def test_single_task(self):
        m = AccMatrix(a=[[0.9]], abar=np.array([0.1]))
        assert acc(m) == pytest.approx(0.9)

    def test_two_task_final_row(self):
        m = AccMatrix(a=[[0.9], [0.8, 0.7]], abar=np.zeros(2))
        assert acc(m) == pytest.approx(0.75)

    def test_constant_matrix(self):
        m = AccMatrix(a=[[0.4], [0.4, 0.4], [0.4, 0.4, 0.4]], abar=np.zeros(3))
        assert acc(m) == pytest.approx(0.4)


class TestBwt:
    def test_no_forgetting_is_zero(self):
        m = AccMatrix(a=[[0.8], [0.8, 0.6], [0.8, 0.6, 0.9]], abar=np.zeros(3))
        assert bwt(m) == pytest.approx(0.0)

    def test_two_task_hand_oracle(self):
        m = AccMatrix(a=[[0.9], [0.8, 0.7]], abar=np.zeros(2))
        assert bwt(m) == pytest.approx(-0.1)

    def test_uniform_drop(self):
        d = 0.2
        m = AccMatrix(a=[[0.9], [0.9 - d, 0.8], [0.9 - d, 0.8 - d, 0.7]],
                      abar=np.zeros(3))
        assert bwt(m) == pytest.approx(-d)

    def test_single_task_unavailable(self):
        m = AccMatrix(a=[[0.9]], abar=np.zeros(1))
        with pytest.raises(MetricUnavailableError):
            bwt(m)


class TestFwt:
    def test_no_transfer_is_zero(self):
        m = AccMatrix(a=[[0.9], [0.8, 0.7]], abar=np.array([0.1, 0.1]),
                      pre_train=np.array([np.nan, 0.1]))
        assert fwt(m) == pytest.approx(0.0)

    def test_two_task_hand_oracle(self):
        m = AccMatrix(a=[[0.9], [0.8, 0.7]], abar=np.array([0.1, 0.10]),
                      pre_train=np.array([np.nan, 0.15]))
        assert fwt(m) == pytest.approx(0.05)

    def test_missing_pre_evals_unavailable(self):
        m = AccMatrix(a=[[0.9], [0.8, 0.7]], abar=np.zeros(2))
        with pytest.raises(MetricUnavailableError):
            fwt(m)

    def test_single_task_unavailable(self):
        m = AccMatrix(a=[[0.9]], abar=np.zeros(1),
                      pre_train=np.array([np.nan]))
        with pytest.raises(MetricUnavailableError):
            fwt(m)


class TestBruteForceEquivalence:
    def test_hundred_random_matrices(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            m = random_matrix(rng, int(rng.integers(2, 8)))
            assert acc(m) == pytest.approx(brute_acc(m), abs=1e-12)
            assert bwt(m) == pytest.approx(brute_bwt(m), abs=1e-12)
            assert fwt(m) == pytest.approx(brute_fwt(m), abs=1e-12)

    def test_shift_identities(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = random_matrix(rng, 5)
            m = AccMatrix(a=[[0.7 * v for v in row] for row in m.a],
                          abar=m.abar, pre_train=0.7 * m.pre_train)
            c = float(rng.uniform(0, 0.2))
            shifted = AccMatrix(
                a=[[v + c for v in row] for row in m.a],
                abar=m.abar.copy(),
                pre_train=m.pre_train + c)
            assert acc(shifted) == pytest.approx(acc(m) + c, abs=1e-12)
            assert bwt(shifted) == pytest.approx(bwt(m), abs=1e-12)
            assert fwt(shifted) == pytest.approx(fwt(m) + c, abs=1e-12)

    def test_constant_columns_give_zero_bwt(self):
        m = AccMatrix(a=[[0.3], [0.3, 0.6], [0.3, 0.6, 0.9]], abar=np.zeros(3))
        assert bwt(m) == pytest.approx(0.0)


class FakeResult(RunResult):
    """A RunResult whose config holds only the keys a report reads."""

    def __init__(self, method, seed, matrix, lam=1.0, lam_e=0.0):
        super().__init__(acc_matrix=matrix, config={
            "method": method, "lam": lam, "lam_e": lam_e, "seed": seed},
            state_digest="0" * 64)


def two_results():
    rng = np.random.default_rng(3)
    return [FakeResult("ewc", 0, random_matrix(rng, 3)),
            FakeResult("afec", 0, random_matrix(rng, 3))]


class TestEmitReport:
    def test_summary_csv_one_row_per_run(self, tmp_path):
        files = emit_report(two_results(), tmp_path)
        assert "summary.csv" in files
        lines = (tmp_path / "summary.csv").read_text().strip().split("\n")
        assert lines[0].startswith(
            "method,seed,lambda,lambda_e,T,ACC,BWT,FWT,A_diag_1")
        assert len(lines) == 3

    def test_matrix_json_per_run(self, tmp_path):
        emit_report(two_results(), tmp_path)
        doc = json.loads(
            (tmp_path / "matrix_ewc_lam1_lame0_seed0.json").read_text())
        assert set(doc) == {"A", "Abar"}
        assert len(doc["A"]) == 3

    def test_svg_well_formed_with_one_polyline_per_method(self, tmp_path):
        emit_report(two_results(), tmp_path)
        for name in ("avg_accuracy.svg", "new_task_accuracy.svg"):
            root = ET.fromstring((tmp_path / name).read_text())
            polylines = root.findall(
                ".//{http://www.w3.org/2000/svg}polyline")
            assert len(polylines) == 2

    def test_reemission_is_byte_identical(self, tmp_path):
        results = two_results()
        emit_report(results, tmp_path / "a")
        emit_report(results, tmp_path / "b")
        for name in ("summary.csv", "matrix_afec_lam1_lame0_seed0.json",
                     "avg_accuracy.svg"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    def test_failed_replace_keeps_previous_report(self, tmp_path,
                                                  monkeypatch):
        emit_report(two_results(), tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def fail(src, dst):
            raise OSError("replace failed")
        monkeypatch.setattr(os, "replace", fail)
        rng = np.random.default_rng(7)
        with pytest.raises(OSError, match="replace failed"):
            emit_report([FakeResult("ewc", 0, random_matrix(rng, 3))],
                        tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_empty_results_rejected(self, tmp_path):
        with pytest.raises(ShapeError):
            emit_report([], tmp_path)

    def test_blank_metrics_for_single_task_runs(self, tmp_path):
        m = AccMatrix(a=[[0.9]], abar=np.array([0.2]),
                      pre_train=np.array([np.nan]))
        emit_report([FakeResult("finetune", 1, m)], tmp_path)
        row = (tmp_path / "summary.csv").read_text().strip().split("\n")[1]
        fields = row.split(",")
        assert fields[6] == ""  # BWT undefined for one task
        assert fields[7] == ""  # FWT undefined for one task

    def test_settings_of_different_lengths(self, tmp_path):
        # every afec run is shorter than the longest run; each series takes
        # its own setting's runs of that setting's largest T
        rng = np.random.default_rng(4)
        results = [FakeResult("ewc", 0, random_matrix(rng, 3)),
                   FakeResult("afec", 0, random_matrix(rng, 2)),
                   FakeResult("afec", 1, random_matrix(rng, 2))]
        files = emit_report(results, tmp_path)
        svg = "{http://www.w3.org/2000/svg}"
        for name in ("avg_accuracy.svg", "new_task_accuracy.svg"):
            assert name in files
            root = ET.fromstring((tmp_path / name).read_text())
            points = [len(line.get("points").split())
                      for line in root.findall(f".//{svg}polyline")]
            assert points == [2, 3]  # afec, then ewc, by label
        afec = [r.acc_matrix for r in results[1:]]
        line = ET.fromstring((tmp_path / "new_task_accuracy.svg").read_text()
                             ).find(f".//{svg}polyline").get("points")
        ys = [float(pt.split(",")[1]) for pt in line.split()]
        means = [np.mean([m.a[i][i] for m in afec]) for i in range(2)]
        np.testing.assert_allclose(ys, [350 - 300 * v for v in means],
                                   atol=1e-4)

    def test_grid_runs_keyed_by_setting_and_seed(self, tmp_path):
        # one method over a 2x2 lambda x lambda_e grid and two seeds
        rng = np.random.default_rng(5)
        results = [FakeResult("afec", seed, random_matrix(rng, 3), lam, lam_e)
                   for lam in (1.0, 10.0) for lam_e in (0.0, 2.5)
                   for seed in (0, 1)]
        files = emit_report(results[::-1], tmp_path)
        rows = (tmp_path / "summary.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:4] for row in rows] == [
            ["afec", str(seed), lam, lam_e] for lam in ("1", "10")
            for lam_e in ("0", "2.5") for seed in (0, 1)]
        matrices = sorted(f for f in files if f.startswith("matrix_"))
        assert matrices == sorted(
            f"matrix_afec_lam{lam}_lame{lam_e}_seed{seed}.json"
            for lam in ("1", "10") for lam_e in ("0", "2.5") for seed in (0, 1))
        for r in results:
            name = "matrix_afec_lam{:g}_lame{:g}_seed{}.json".format(
                r.config["lam"], r.config["lam_e"], r.config["seed"])
            assert json.loads((tmp_path / name).read_text())["A"] == \
                r.acc_matrix.a
        root = ET.fromstring((tmp_path / "avg_accuracy.svg").read_text())
        labels = [el.text for el in root.findall(
            ".//{http://www.w3.org/2000/svg}text") if el.text.startswith("afec")]
        assert sorted(labels) == ["afec lam1 lame0", "afec lam1 lame2.5",
                                  "afec lam10 lame0", "afec lam10 lame2.5"]
