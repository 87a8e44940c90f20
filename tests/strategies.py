"""Hypothesis strategies shared by the property tests."""

import hypothesis.strategies as st

from capflow.geometry import CORRUGATED, ShapeKind, make_profile


@st.composite
def profiles(draw, kinds=None, min_ratio=1.0):
    """Profiles from the verified envelope.

    r_min is log-uniform in [1e-6, 1e-2] m, r_max/r_min in [min_ratio, 100],
    length log-uniform in [1e-4, 10] m.
    """
    kind = draw(st.sampled_from(kinds or CORRUGATED))
    r_min = 10.0 ** draw(st.floats(-6.0, -2.0))
    if kind is ShapeKind.STRAIGHT:
        ratio = 1.0
    else:
        ratio = draw(st.floats(min_ratio, 100.0))
    length = 10.0 ** draw(st.floats(-4.0, 1.0))
    return make_profile(kind, r_min, r_min * ratio, length)
