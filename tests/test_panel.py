import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_panel
from fnets.errors import DataError, DimensionError, FormatError
from fnets.panel import AcvSequence, TimeSeriesPanel, load_panel, sample_acv
from oracles import naive_acv


def write(tmp_path, text, name="panel.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadPanel:
    def test_default_orientation(self, tmp_path):
        path = write(tmp_path, "1,2\n3,4\n5,6\n")
        panel = load_panel(path, center=False)
        assert panel.values.tolist() == [[1, 3, 5], [2, 4, 6]]
        assert panel.mean_x.tolist() == [0, 0]

    def test_centering(self, tmp_path):
        path = write(tmp_path, "1,2\n3,4\n5,6\n")
        panel = load_panel(path, center=True)
        assert panel.values.tolist() == [[-2, 0, 2], [-2, 0, 2]]
        assert panel.mean_x.tolist() == [3, 4]

    def test_transpose_flag(self, tmp_path):
        path = write(tmp_path, "1,2,3\n4,5,6\n")
        panel = load_panel(path, transpose=True, center=False)
        assert panel.values.tolist() == [[1, 2, 3], [4, 5, 6]]

    def test_header_detected(self, tmp_path):
        path = write(tmp_path, "alpha,beta\n1,2\n3,4\n")
        panel = load_panel(path, center=False)
        assert panel.var_names == ("alpha", "beta")
        assert panel.values.shape == (2, 2)

    def test_nan_rejected(self, tmp_path):
        path = write(tmp_path, "1,2\nnan,4\n5,6\n")
        with pytest.raises(DataError):
            load_panel(path)

    def test_parse_error_reports_location(self, tmp_path):
        path = write(tmp_path, "1,2\n3,oops\n")
        with pytest.raises(FormatError, match="row 2, column 2"):
            load_panel(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = write(tmp_path, "1,2\n3\n")
        with pytest.raises(FormatError):
            load_panel(path)

    def test_single_time_point_rejected(self, tmp_path):
        path = write(tmp_path, "1,2\n")
        with pytest.raises(DimensionError):
            load_panel(path)

    def test_header_only_file_rejected(self, tmp_path):
        path = write(tmp_path, "a,b\n")
        with pytest.raises(FormatError):
            load_panel(path)

    def test_centering_idempotent(self, tmp_path, rng):
        raw = rng.standard_normal((20, 4))
        text = "\n".join(",".join(repr(float(v)) for v in row) for row in raw)
        path = write(tmp_path, text + "\n")
        panel = load_panel(path, center=True)
        again = panel.values - panel.values.mean(axis=1, keepdims=True)
        assert np.max(np.abs(again - panel.values)) <= 1e-12


class TestPanelInvariants:
    def test_rejects_nonfinite(self):
        with pytest.raises(DataError):
            TimeSeriesPanel(np.array([[1.0, np.inf]]), np.zeros(1))

    def test_centered_rows_must_sum_to_zero(self):
        with pytest.raises(DataError):
            TimeSeriesPanel(np.array([[1.0, 2.0]]), np.array([5.0]))

    def test_values_read_only(self):
        panel = make_panel(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            panel.values[0, 0] = 1.0


class TestSampleAcv:
    def test_zero_series(self):
        panel = make_panel(np.zeros((1, 4)))
        acv = sample_acv(panel, 1)
        assert acv.at(0) == 0
        assert acv.at(1) == 0

    def test_scalar_hand_case(self):
        panel = make_panel(np.array([[1.0, -1.0]]))
        acv = sample_acv(panel, 1)
        assert acv.at(0)[0, 0] == pytest.approx(1.0)
        assert acv.at(1)[0, 0] == pytest.approx(-0.5)

    def test_constant_basis_vector(self):
        panel = make_panel(np.vstack([np.ones(6), np.zeros(6)]))
        acv = sample_acv(panel, 0)
        assert acv.at(0).tolist() == [[1, 0], [0, 0]]

    def test_divisor_is_n_at_all_lags(self):
        panel = make_panel(np.array([[1.0, 1.0, 1.0, 1.0]]))
        acv = sample_acv(panel, 2)
        assert acv.at(1)[0, 0] == pytest.approx(3 / 4)
        assert acv.at(2)[0, 0] == pytest.approx(2 / 4)

    def test_lag_too_large(self):
        panel = make_panel(np.zeros((1, 4)))
        with pytest.raises(DimensionError):
            sample_acv(panel, 4)

    def test_lag0_psd(self, rng):
        for _ in range(100):
            panel = make_panel(rng.standard_normal((4, 12)))
            g0 = sample_acv(panel, 0).at(0)
            assert np.max(np.abs(g0 - g0.T)) == 0.0
            assert np.linalg.eigvalsh(g0).min() >= -1e-12

    def test_matches_double_loop_oracle(self, rng):
        for _ in range(20):
            x = rng.standard_normal((5, 20))
            panel = make_panel(x)
            acv = sample_acv(panel, 3)
            for lag in range(4):
                assert np.max(np.abs(acv.at(lag) - naive_acv(x, lag))) <= 1e-12


class TestAcvSequence:
    def test_negative_lag_is_transpose(self, rng):
        x = rng.standard_normal((3, 30))
        acv = sample_acv(make_panel(x), 2)
        for lag in (1, 2):
            assert np.shares_memory(acv.at(-lag).base, acv.at(lag)) or np.array_equal(
                acv.at(-lag), acv.at(lag).T
            )

    def test_out_of_range_lag(self):
        acv = AcvSequence(np.zeros((2, 2, 2)))
        with pytest.raises(DimensionError):
            acv.at(2)

    def test_max_lag_is_stack_depth(self):
        assert AcvSequence(np.zeros((4, 2, 2))).max_lag == 3

    def test_caller_array_is_copied(self, rng):
        mats = rng.standard_normal((3, 2, 2))
        acv = AcvSequence(mats)
        assert mats.flags.writeable and not acv.matrices.flags.writeable
        assert not np.shares_memory(acv.matrices, mats)
        before = acv.matrices.copy()
        mats[1, 0, 1] = 99.0
        assert np.array_equal(acv.matrices, before)

    def test_read_only_view_is_copied(self, rng):
        base = rng.standard_normal((3, 2, 2))
        view = base[:]
        view.flags.writeable = False
        assert not np.shares_memory(AcvSequence(view).matrices, base)

    def test_package_stack_is_adopted(self, rng):
        mats = rng.standard_normal((3, 2, 2))
        acv = AcvSequence.adopt(mats)
        assert np.shares_memory(acv.matrices, mats) and not mats.flags.writeable
        panel = make_panel(rng.standard_normal((3, 40)), center=True)
        acv = sample_acv(panel, 2)
        assert np.shares_memory(AcvSequence(acv.matrices).matrices, acv.matrices)

    @pytest.mark.parametrize("make", [AcvSequence, AcvSequence.adopt])
    def test_checks_hold_for_adopted_stacks(self, make):
        with pytest.raises(DimensionError):
            make(np.zeros((2, 2, 3)))
        with pytest.raises(DimensionError):
            make(np.zeros((2, 2)))
        for value in (np.nan, np.inf):
            bad = np.zeros((2, 2, 2))
            bad[1, 0, 0] = value
            with pytest.raises(DataError):
                make(bad)

    @given(st.integers(min_value=0, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_transpose_convention_property(self, lag):
        rng = np.random.default_rng(lag)
        acv = sample_acv(make_panel(rng.standard_normal((3, 15))), 3)
        assert np.array_equal(acv.at(-lag), acv.at(lag).T)
