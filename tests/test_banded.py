import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import LinAlgError

from coarsenlab.banded import bracket, matvec, shifted, solve_banded, weighted_transpose

_ENTRIES = st.floats(-10.0, 10.0)


@st.composite
def _operator(draw):
    """A random banded operator, a vector and positive weights of one size."""
    n = draw(st.integers(2, 12))
    ab = draw(arrays(float, (3, n), elements=_ENTRIES))
    ab[0, 0] = ab[2, -1] = 0.0  # the unused corners of the layout
    x = draw(arrays(float, n, elements=_ENTRIES))
    y = draw(arrays(float, n, elements=_ENTRIES))
    w = draw(arrays(float, n, elements=st.floats(0.1, 10.0)))
    return ab, x, y, w


def _dense(ab):
    return np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[2, :-1], -1)


class TestLayout:
    @given(_operator(), st.floats(-2.0, 2.0))
    def test_shifted_is_identity_minus_h_a(self, case, h):
        ab = case[0]
        expected = np.eye(ab.shape[1]) - h * _dense(ab)
        assert np.allclose(_dense(shifted(h, ab)), expected, rtol=1e-14, atol=1e-14)

    @given(_operator())
    def test_matvec_matches_dense(self, case):
        ab, x, _, _ = case
        assert np.allclose(matvec(ab, x), _dense(ab) @ x, rtol=1e-12, atol=1e-12)

    @given(_operator())
    def test_weighted_transpose_matches_dense(self, case):
        ab, _, _, w = case
        expected = np.diag(1.0 / w) @ _dense(ab).T @ np.diag(w)
        assert np.allclose(_dense(weighted_transpose(ab, w)), expected,
                           rtol=1e-12, atol=1e-12)

    @given(_operator())
    def test_weighted_transpose_is_the_adjoint(self, case):
        # <A x, y>_W = <x, W^{-1} A^T W y>_W with <u, v>_W = sum_i u_i v_i w_i
        ab, x, y, w = case
        lhs = float((matvec(ab, x) * y) @ w)
        rhs = float((x * matvec(weighted_transpose(ab, w), y)) @ w)
        scale = float((np.abs(_dense(ab)) @ np.abs(x) * np.abs(y)) @ w)
        assert abs(lhs - rhs) <= 1e-12 * max(scale, 1.0)


@st.composite
def _system(draw):
    """A tridiagonal system of size 1 to 64 whose diagonal keeps |a_ii| >= 0.1,
    and a right-hand side of shape (n,) or (n, k)."""
    n = draw(st.integers(1, 64))
    ab = draw(arrays(float, (3, n), elements=_ENTRIES))
    ab[1] = draw(arrays(float, n, elements=st.floats(0.1, 10.0)))
    ab[1] *= draw(arrays(float, n, elements=st.sampled_from([-1.0, 1.0])))
    ab[0, 0] = ab[2, -1] = 0.0
    shape = draw(st.sampled_from([(n,), (n, draw(st.integers(1, 4)))]))
    return ab, draw(arrays(float, shape, elements=_ENTRIES))


class TestSolve:
    @given(_system())
    def test_matches_scipy_bit_for_bit(self, case):
        ab, b = case
        ab0, b0 = ab.copy(), b.copy()
        try:
            expected = scipy.linalg.solve_banded((1, 1), ab, b)
        except LinAlgError:  # an off-diagonal pattern can still make A singular
            with pytest.raises(LinAlgError):
                solve_banded(ab, b)
            return
        x = solve_banded(ab, b)
        assert x.shape == b.shape
        assert np.array_equal(x, expected)
        assert np.array_equal(ab, ab0) and np.array_equal(b, b0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["ab", "b"])
    def test_rejects_non_finite_input(self, value, where):
        # in any entry, the unused corners of ab and a 2-D b too; at scale
        # 2.5e307 the finite entries alone already sum past the largest float
        for scale in (1.0, 2.5e307):
            for shape in ((3,), (3, 2)):
                ab = np.array([[0.0, 1.0, 1.0], [4.0, 4.0, 4.0], [1.0, 1.0, 0.0]]) * scale
                b = np.ones(shape) * scale
                target = ab if where == "ab" else b
                for index in np.ndindex(target.shape):
                    saved, target[index] = target[index], value
                    with np.errstate(over="ignore", invalid="ignore"), \
                            pytest.raises(ValueError, match="infs or NaNs"):
                        solve_banded(ab, b)
                    target[index] = saved

    @pytest.mark.parametrize("big", ["ab", "b", "both", "opposite"])
    @pytest.mark.parametrize("columns", [None, 2])
    def test_finite_entries_whose_sum_overflows_still_solve(self, big, columns):
        ab = np.array([[0.0, 1.0, -1.0, 1.0], [4.0, 4.0, -4.0, 4.0], [1.0, 1.0, 1.0, 0.0]])
        b = np.array([1.0, -2.0, 3.0, 1.0])
        if big in ("ab", "both", "opposite"):
            ab *= 1e308 / 4.0  # the diagonal sums to 2e308
        if big in ("b", "both", "opposite"):
            b = np.array([1e308, 1e308, -0.5e308, 1e308]) * (-1.0 if big == "opposite" else 1.0)
        if columns:
            b = np.column_stack([b] * columns)
        with np.errstate(over="ignore", invalid="ignore"):  # the screen overflows
            assert not np.isfinite(ab.sum() + b.sum())
            x = solve_banded(ab, b)
        assert np.isfinite(x).all()
        assert np.array_equal(x, scipy.linalg.solve_banded((1, 1), ab, b))

    @pytest.mark.parametrize("ab", [
        [[0.0, 0.0, 1.0], [0.0, 2.0, 3.0], [0.0, 1.0, 0.0]],  # a zero first column
        [[0.0, 2.0], [1.0, 2.0], [1.0, 0.0]],  # two equal rows
    ])
    def test_rejects_singular_matrix(self, ab):
        ab = np.array(ab)
        with pytest.raises(LinAlgError, match="singular"):
            solve_banded(ab, np.ones(ab.shape[1]))


class TestBracket:
    @given(st.floats(0.01, 1e4))
    def test_increasing_root_above(self, root):
        calls = []

        def f(s):
            calls.append(s)
            return s - root

        lo, hi = bracket(f, 0.004, 0.008, origin=0.0, increasing=True)
        assert lo <= root <= hi
        assert calls[:2] == [0.004, 0.008]

    @given(st.floats(1e-6, 0.5))
    def test_decreasing_root_below(self, root):
        lo, hi = bracket(lambda s: root - s, 1.0, 2.0, origin=0.0, increasing=False)
        assert lo <= root <= hi

    def test_widens_about_the_origin(self):
        # increasing, root below: the lower end halves its distance to 1
        lo, hi = bracket(lambda s: s - 1.2, 1.5, 3.0, origin=1.0, increasing=True)
        assert (lo, hi) == (1.125, 3.0)
        # decreasing, root above: the upper end doubles its distance to 1
        lo, hi = bracket(lambda s: 4.5 - s, 1.5, 2.0, origin=1.0, increasing=False)
        assert (lo, hi) == (1.5, 5.0)

    def test_bracket_already_holds(self):
        calls = []

        def f(s):
            calls.append(s)
            return s - 1.0

        assert bracket(f, 0.5, 2.0, origin=0.0, increasing=True) == (0.5, 2.0)
        assert calls == [0.5, 2.0]

    def test_gives_up_after_the_growth_limit(self):
        calls = []

        def f(s):
            calls.append(s)
            return 1.0  # never changes sign

        with pytest.raises(RuntimeError, match="could not bracket"):
            bracket(f, 1.0, 2.0, origin=0.0, increasing=True)
        assert len(calls) == 2 + 60

    def test_tiny_values_of_one_sign_are_no_sign_change(self):
        # f(1) * f(2) underflows to 0, yet both values are negative
        def f(s):
            return 1e-200 * (s - 3.0)

        lo, hi = bracket(f, 1.0, 2.0, origin=0.0, increasing=True)
        assert f(lo) < 0.0 < f(hi)
