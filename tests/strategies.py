"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from blockspaces import PiecewiseConstant1D


@st.composite
def sweep_functions(draw, top=2):
    """Functions on breakpoints in [-2^top, 2^top], many exactly on shell edges +-2^k or at +-0.

    The values repeat and hold signed zeros, so the restrictions have equal
    neighbours to merge and zero runs to drop.
    """
    edge = st.builds(lambda k, sign: sign * 2.0**k, st.integers(-8, top), st.sampled_from([1.0, -1.0]))
    anywhere = st.floats(-(2.0**top), 2.0**top, allow_nan=False)
    bps = draw(st.lists(st.one_of(edge, anywhere, st.sampled_from([0.0, -0.0])), min_size=2, max_size=12, unique=True))
    value = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.75, 0.3]), st.floats(-3.0, 3.0, allow_nan=False))
    return PiecewiseConstant1D(sorted(bps), draw(st.lists(value, min_size=len(bps) - 1, max_size=len(bps) - 1)))
