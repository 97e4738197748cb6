"""The block-norm and log-bracket kernels on both sides of ``cones._FEW_BLOCKS``.

Up to ``_FEW_BLOCKS`` blocks, ``cones._norm_kernel`` takes each block's
Euclidean norm with ``_euclidean_norm``, and ``metrics._log_bracket`` adds
the weighted block extrema as floats; more blocks take one stacked product
and numpy's running sum.  Reports print floats with 17 significant digits,
so each path must give the other's bits.  The references here are
independent of both paths: numpy's stacked (1 x n) @ (n x 1) products and a
loop of ``_euclidean_norm`` over the block slices for the norms, and
``metrics._weighted_sum`` of ``_log_ratio_extrema`` for the bracket.  The
power loop's test reference shares these kernels, so it cannot check them.

The drawn buffers hold d = 1..64 blocks of equal or unequal sizes, under
unequal weights, with entries whose squares overflow (above 1e154), subnormal
entries, zeros of both signs, +-inf and NaN.
"""

import math
from unittest import mock

import numpy as np
import pytest

from mhspectral import NormSpec, ShapeSpec, cones, metrics

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

_SPECIAL = [0.0, -0.0, 5e-324, 2.2e-308, 1e-310, 1.2e154, 3e200, 1.7e308, math.inf, -math.inf, math.nan]


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _loop_norms(flat, shape):
    return [cones._euclidean_norm(flat[sl]) for sl in shape._slices]


def _kernel(shape, few, floats=False):
    """The Euclidean norm kernel with ``_FEW_BLOCKS`` set to ``few`` while it is built."""
    with mock.patch.object(cones, "_FEW_BLOCKS", few):
        return cones._norm_kernel(shape, NormSpec.euclidean(shape.d), floats)


def _weighted_ends(y, x, shape, w):
    lo, hi = metrics._log_ratio_extrema(y, x, shape)
    return metrics._weighted_sum(w, lo), metrics._weighted_sum(w, hi)


@st.composite
def _shapes(draw):
    d = draw(st.integers(1, 64))
    if draw(st.booleans()):
        return ShapeSpec((draw(st.integers(1, 4)),) * d)
    return ShapeSpec(tuple(draw(st.lists(st.integers(1, 4), min_size=d, max_size=d))))


@st.composite
def _entries(draw, n, specials=_SPECIAL, signs=(-1.0, 1.0)):
    """n floats of magnitudes from 1e-3 to 1e3, up to 8 of them set to special values."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    flat = 10.0 ** rng.uniform(-3.0, 3.0, n) * rng.choice(signs, n)
    for k, value in draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from(specials)), max_size=8)):
        flat[k] = value
    return flat


class TestNormKernel:
    def test_every_path_gives_the_loops_norms(self):
        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(_shapes(), st.data())
        def check(shape, data):
            flat = data.draw(_entries(shape.total))
            want = _loop_norms(flat, shape)
            few, stacked, default = _kernel(shape, 64), _kernel(shape, 0), _kernel(shape, cones._FEW_BLOCKS)
            for kernel in (few, stacked, default):
                assert _same_bits(kernel(flat), want)
            for few_blocks in (64, 0, cones._FEW_BLOCKS):
                got = _kernel(shape, few_blocks, floats=True)(flat)
                assert type(got) is list and all(type(v) is float for v in got)
                assert _same_bits(got, want)

        check()

    def test_the_few_blocks_loop_is_the_stacked_matmul(self):
        # where the sum of all squares stays below half the largest double,
        # numpy's stacked products are the reference as they are, with no
        # overflow fallback in between
        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(st.integers(1, 64), st.integers(1, 4), st.data())
        def check(d, n, data):
            shape = ShapeSpec((n,) * d)
            flat = data.draw(_entries(shape.total, [0.0, -0.0, 5e-324, 1e-310, 2.2e-308, 1e150, -1e150]))
            X = flat.reshape(d, n)
            want = np.sqrt(np.matmul(X[:, None, :], X[:, :, None]).ravel())
            assert _same_bits(_kernel(shape, 64)(flat), want)
            assert _same_bits(_loop_norms(flat, shape), want)

        check()

    def test_squares_that_overflow(self):
        # a block whose squares overflow keeps a finite norm on every path
        for d in (2, 3, 8, 60):
            shape = ShapeSpec((2,) * d)
            flat = np.full(shape.total, 1.0)
            flat[:2] = 1.5e154
            want = _loop_norms(flat, shape)
            assert math.isfinite(want[0]) and want[0] > 2e154
            for few in (64, 0):
                assert _same_bits(_kernel(shape, few)(flat), want)

    def test_the_choice_is_by_block_count(self):
        # equal block sizes and Euclidean norms: the loop up to _FEW_BLOCKS
        # blocks (no matmul), the stacked product beyond (no per-block norm)
        for d in (2, 3, 4, 8, 60):
            shape = ShapeSpec((3,) * d)
            flat = np.linspace(0.5, 1.5, shape.total)
            with mock.patch.object(np, "matmul", side_effect=AssertionError("stacked")) as matmul:
                with mock.patch.object(cones, "_euclidean_norm", side_effect=AssertionError("loop")) as loop:
                    kernel = cones._norm_kernel(shape, NormSpec.euclidean(d))
                    with pytest.raises(AssertionError) as taken:
                        kernel(flat)
            assert str(taken.value) == ("loop" if d <= cones._FEW_BLOCKS else "stacked")
            assert matmul.called != loop.called


class TestLogBracket:
    def test_flat_buffers_match_the_weighted_sum(self):
        @hypothesis.settings(max_examples=400, deadline=None)
        @hypothesis.given(_shapes(), st.data())
        def check(shape, data):
            x, y = (np.abs(data.draw(_entries(shape.total))) for _ in range(2))
            w = data.draw(_entries(shape.d, [1e-310, 1e-300, 1e100, 1e300], signs=(1.0,)))
            with np.errstate(all="ignore"):
                got = metrics._log_bracket(y, x, shape, w)
                want = _weighted_ends(y, x, shape, w)
            assert _same_bits(got, want)

        check()

    @pytest.mark.parametrize("d", [2, 3, 8, 60])
    def test_a_lone_negative_zero_end_is_zero(self, d):
        # y just below x in every block, weights so small that every
        # weighted extremum underflows to -0.0: the ends are 0.0, as a loop
        # from 0.0 makes them
        shape = ShapeSpec((2,) * d)
        x = np.ones(shape.total)
        y = np.full(shape.total, 1.0 - 2.0**-53)
        w = np.full(d, 1e-310)
        lo, hi = metrics._log_ratio_extrema(y, x, shape)
        assert _same_bits(w * lo, np.full(d, -0.0)) and _same_bits(w * hi, np.full(d, -0.0))
        got = metrics._log_bracket(y, x, shape, w)
        assert _same_bits(got, [0.0, 0.0]) and _same_bits(got, _weighted_ends(y, x, shape, w))

    @pytest.mark.parametrize("d", [3, 8])
    def test_the_ends_are_added_left_to_right_without_compensation(self, d):
        # the weighted extrema 1e100 log 2, then log 3, then -1e100 log 2:
        # added left to right, log 3 is lost and the end is 0.0; a compensated
        # sum (math.fsum, or the builtin sum of floats from Python 3.12 on)
        # keeps it
        shape = ShapeSpec((1,) * d)
        x = np.ones(d)
        y = np.array([2.0, 3.0, 0.5] + [1.0] * (d - 3))
        w = np.array([1e100, 1.0, 1e100] + [1.0] * (d - 3))
        terms = w * np.log(y)
        assert math.fsum(terms.tolist()) != 0.0
        want = _weighted_ends(y, x, shape, w)
        assert _same_bits(want, [0.0, 0.0])
        assert _same_bits(metrics._log_bracket(y, x, shape, w), want)
