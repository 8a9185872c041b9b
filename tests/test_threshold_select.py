import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fnets.errors import DataError, DimensionError
from fnets.threshold_select import candidate_grid, select_threshold
from fnets.var import threshold_matrix
from oracles import cusum_statistics


def bimodal_matrix(rng, big=60, small=40, cells=2500):
    """Sparse matrix with entries split across a (0.01, 0.2) magnitude gap.

    The drawn values sit inside a zero-padded cell space the way estimated
    coefficient matrices do; the padding cells count toward the denominator.
    """
    vals = np.concatenate(
        [
            rng.uniform(0.2, 0.5, big) * rng.choice([-1, 1], big),
            rng.uniform(1e-4, 0.01, small) * rng.choice([-1, 1], small),
        ]
    )
    flat = np.zeros(cells)
    flat[rng.choice(cells, big + small, replace=False)] = vals
    side = int(np.sqrt(cells))
    return flat.reshape(side, side)


class TestCandidateGrid:
    def test_two_level_grid(self):
        mat = np.array([[0.01, 1.0], [0.0, -1.0]])
        grid = candidate_grid(mat, 4)
        assert np.allclose(grid, [0.0, 0.01, 0.1, 1.0])

    def test_endpoint_pinned(self, rng):
        mat = rng.standard_normal((5, 5))
        grid = candidate_grid(mat, 30)
        assert grid[0] == 0.0
        assert grid[-1] == np.abs(mat).max()
        assert np.all(np.diff(grid) > 0)

    def test_all_zero_rejected(self):
        with pytest.raises(DataError):
            candidate_grid(np.zeros((3, 3)), 10)

    def test_tiny_grid_rejected(self):
        with pytest.raises(DimensionError):
            candidate_grid(np.ones((2, 2)), 3)


class TestSelectThreshold:
    def test_realized_gap_located(self, rng):
        # The change point falls at the end of the small cluster and the
        # threshold is reported at the centre of the constant-support stretch
        # above it; require a clear majority inside the realized gap between
        # the clusters.
        hits = 0
        for _ in range(20):
            mat = bimodal_matrix(rng)
            mags = np.abs(mat[mat != 0.0])
            small_top = mags[mags < 0.1].max()
            big_bottom = mags[mags > 0.1].min()
            sel = select_threshold(mat, denominator=2500, grid_size=100)
            if small_top < sel.threshold < big_bottom:
                hits += 1
        assert hits >= 14

    def test_cusum_matches_loop_oracle(self, rng):
        mat = bimodal_matrix(rng)
        sel = select_threshold(mat, denominator=2500)
        ref = cusum_statistics(sel.ratio, sel.candidates)
        scale = max(1.0, np.max(np.abs(ref)))
        assert np.max(np.abs(sel.cusum - ref)) <= 1e-10 * scale
        assert sel.selected_index == 2 + int(np.argmax(ref))

    def test_threshold_keeps_support_of_selected_candidate(self, rng):
        # Centring the threshold must not change which entries survive.
        mats = [bimodal_matrix(np.random.default_rng(8000 + rep)) for rep in range(20)]
        mats += [rng.standard_normal((6, 6)) for _ in range(20)]
        # Equal moduli: every nonzero sits above the grid floor, so the
        # constant-support stretch reaches candidate 0 and is clamped.
        equal = np.array([[0.5, -0.5, 0.0], [0.0, 0.5, 0.0], [-0.5, 0.0, 0.0]])
        mats.append(equal)
        for mat in mats:
            sel = select_threshold(mat, denominator=mat.size)
            pick = sel.candidates[sel.selected_index - 1]
            kept = threshold_matrix(mat, sel.threshold) != 0.0
            assert np.array_equal(kept, threshold_matrix(mat, pick) != 0.0)
            assert sel.candidates[1] <= sel.threshold <= np.abs(mat).max()
        sel = select_threshold(equal, denominator=equal.size)
        assert np.count_nonzero(threshold_matrix(equal, sel.threshold)) == 4

    def test_equal_moduli_keep_all_at_first_maximum(self):
        # Every entry has the same modulus, so every candidate below it keeps
        # the whole support: the selected threshold must keep every entry, and
        # the selection is the first maximiser of the statistic (the smallest
        # k wins a tie).
        mat = np.full((2, 2), 0.5)
        sel = select_threshold(mat, denominator=8)
        assert np.array_equal(threshold_matrix(mat, sel.threshold), mat)
        first_max = np.flatnonzero(sel.cusum == sel.cusum.max())[0]
        assert sel.selected_index == 2 + first_max

    def test_support_never_grows(self, rng):
        for _ in range(20):
            mat = rng.standard_normal((6, 6))
            sel = select_threshold(mat, denominator=40)
            after = threshold_matrix(mat, sel.threshold)
            assert np.count_nonzero(after) <= np.count_nonzero(mat)
            assert 0.0 <= sel.threshold <= np.abs(mat).max()

    def test_permutation_invariant(self, rng):
        mat = bimodal_matrix(rng)
        sel = select_threshold(mat, denominator=2500)
        flat = mat.ravel().copy()
        rng.shuffle(flat)
        sel2 = select_threshold(flat.reshape(mat.shape), denominator=2500)
        assert sel.threshold == sel2.threshold

    @given(st.floats(min_value=0.1, max_value=50.0))
    @settings(max_examples=50, deadline=None)
    def test_scale_equivariant(self, scale):
        rng = np.random.default_rng(7)
        mat = bimodal_matrix(rng)
        base = select_threshold(mat, denominator=2500)
        scaled = select_threshold(scale * mat, denominator=2500)
        assert scaled.selected_index == base.selected_index
        assert scaled.threshold == pytest.approx(scale * base.threshold, rel=1e-12)

    def test_ratio_non_increasing(self, rng):
        mat = rng.standard_normal((8, 8))
        sel = select_threshold(mat, denominator=80)
        assert np.all(np.diff(sel.ratio) <= 1e-15)

    def test_denominator_too_small(self, rng):
        mat = rng.standard_normal((4, 4))
        with pytest.raises(DimensionError):
            select_threshold(mat, denominator=3)
