"""The finite-difference verification suite itself."""

import numpy as np
import pytest

from moce.gradcheck import CheckResult, all_passed, format_results, run_all
from moce.gradcheck import (_check_dense, _check_encoder, _check_sag_scores,
                            _row_rng, _run_check)
from moce.autodiff import FdReport, Tape, Tensor, finite_diff_check
from moce import autodiff as ad


class TestSuite:
    def test_every_family_passes_at_default_tolerance(self):
        results = run_all(seed=0)
        failed = [r.name for r in results if not r.report.passed]
        assert failed == []
        assert all_passed(results)

    def test_expected_families_present(self):
        names = {r.name for r in run_all(seed=1)}
        for required in ("relu", "matmul", "softmax", "masked-softmax",
                         "routing", "sag-projection", "encoder", "full-model",
                         "attention-loss", "balance-losses", "bce",
                         "pool-rows"):
            assert required in names

    @pytest.mark.parametrize("seed", [14, 19])
    def test_encoder_row_is_off_the_relu_kinks(self, seed):
        # without jitter the zero GIN biases sit on relu kinks, and the
        # encoder row failed at these seeds (rel err 1.0 and 0.3)
        rng = _row_rng(seed, "encoder")
        report = _run_check(_check_encoder(rng), rng)
        assert report.max_rel_error <= 1e-4

    @pytest.mark.parametrize("name, build, rows", [
        # backward visits the plain dense first; at seed 0 both of row 0's
        # relu units are off, so the relu dense skips row 0 as well
        ("dense", _check_dense, [[0, 2, 3], [2, 3]]),
        ("sag-scores", _check_sag_scores, [[0, 1, 3]])])
    def test_rows_reach_the_live_row_backward(self, monkeypatch, name, build,
                                              rows):
        """Each loss reads a subset of the output rows, so the check's
        finite differences test the backward that skips the others: x's
        gradient comes back row-sparse over the rows the loss reaches."""
        seen = []

        class Recorded(ad.RowSparse):
            def __init__(self, shape, rows, values):
                super().__init__(shape, rows, values)
                seen.append(rows.tolist())

        monkeypatch.setattr(ad, "RowSparse", Recorded)
        f, inputs = build(_row_rng(0, name))
        with Tape() as tape:
            tape.backward(f(*inputs))
        assert seen == rows

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
    def test_meaningless_tolerance_rejected(self, tol):
        # rel > nan is never true, so a NaN tolerance would pass anything
        with pytest.raises(ValueError, match="finite positive"):
            run_all(seed=0, rel_tol=tol)

    def test_impossible_tolerance_fails(self):
        results = run_all(seed=0, rel_tol=1e-18)
        assert not all_passed(results)
        assert "FAILED" in format_results(results)

    def test_every_failing_row_lists_its_failures(self):
        # the tolerance reaches finite_diff_check itself, so a row that
        # fails at a tight tolerance names the coordinates that failed
        results = run_all(seed=0, rel_tol=1e-9)
        failing = [r for r in results if not r.report.passed]
        assert failing
        for r in failing:
            assert r.report.failures, r.name
            assert all(rel > 1e-9 for *_, rel in r.report.failures), r.name
        for r in results:
            assert r.report.passed == (r.report.max_rel_error <= 1e-9), r.name

    def test_summary_counts_checks(self):
        results = run_all(seed=0)
        assert f"all {len(results)} checks passed" in format_results(results)

    def test_result_line_format(self):
        report = FdReport(passed=True, max_rel_error=3e-7,
                          coordinates_checked=12)
        line = CheckResult("demo", report, 0.5).line()
        assert line.startswith("PASS")
        assert "demo" in line
        assert "12" in line


class TestSampledCheck:
    """finite_diff_check with a per-tensor coordinate sample."""

    def test_agrees_with_correct_gradient(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.uniform(-1, 1, size=(4, 5)), requires_grad=True)

        def f(t):
            return ad.reduce_sum(ad.mul(ad.tanh(t), ad.tanh(t)))

        report = finite_diff_check(f, [x], per_tensor=6, rng=rng)
        assert report.passed
        assert report.coordinates_checked == 6

    def test_catches_a_missing_gradient_path(self):
        # part of the loss reads x.data as a plain constant: the tape never
        # sees that path, finite differences do, so the check must fail
        rng = np.random.default_rng(4)
        x = Tensor(rng.uniform(0.5, 1.0, size=(6,)), requires_grad=True)

        def f(t):
            tracked = ad.reduce_sum(ad.mul(t, t))
            leaked = Tensor(np.asarray(t.data.sum()))
            return ad.add(tracked, leaked)

        report = finite_diff_check(f, [x], per_tensor=6, rng=rng)
        assert not report.passed
        assert report.failures

    def test_samples_at_most_tensor_size(self):
        rng = np.random.default_rng(5)
        x = Tensor(np.array([0.3, 0.7]), requires_grad=True)
        report = finite_diff_check(lambda t: ad.reduce_sum(ad.mul(t, t)),
                                   [x], per_tensor=50, rng=rng)
        assert report.coordinates_checked == 2

    def test_coordinates_drawn_per_tensor_in_input_order(self):
        # the sample is rng.choice(size, min(per_tensor, size)) for each
        # requires_grad input in turn, so a failure names exactly the
        # coordinates an independent draw from the same seed picks
        x = Tensor(np.ones(5), requires_grad=True)
        skipped = Tensor(np.ones(7))
        y = Tensor(np.ones((2, 3)), requires_grad=True)

        def f(a, _, c):
            # every sampled coordinate fails: the tape sees half the slope
            tracked = ad.add(ad.reduce_sum(a), ad.reduce_sum(c))
            return ad.add(tracked, Tensor(np.asarray(a.data.sum() + c.data.sum())))

        report = finite_diff_check(f, [x, skipped, y], per_tensor=3,
                                   rng=np.random.default_rng(8))
        draw = np.random.default_rng(8)
        expected = [(0, int(j)) for j in draw.choice(5, size=3, replace=False)]
        expected += [(2, int(j)) for j in draw.choice(6, size=3, replace=False)]
        assert [(i, j) for i, j, *_ in report.failures] == expected
