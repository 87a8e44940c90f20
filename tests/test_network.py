import math
import random

import pytest
from hypothesis import given
import hypothesis.strategies as st

import reference_data as ref
from strategies import profiles

from capflow import (
    EmptyCompositeError,
    Fluid,
    FlowRangeError,
    GeometryRangeError,
    Parallel,
    Series,
    ShapeKind,
    Tube,
    hydraulic_resistance,
    inverse_r4_integral,
    make_profile,
    network_flow_rate,
    network_pressure_drop,
    network_resistance,
)

WATER = Fluid(viscosity=ref.VISCOSITY)
KIND_BY_TOKEN = {kind.value: kind for kind in ShapeKind}

FIVE_TOKENS = ("conical", "parabolic", "hyperbolic", "cosh", "sinusoidal")


def canonical_tube(token):
    kind = KIND_BY_TOKEN[token]
    r_max = ref.R_MIN if kind is ShapeKind.STRAIGHT else ref.R_MAX
    return Tube(make_profile(kind, ref.R_MIN, r_max, ref.LENGTH))


def straight_tube(radius, length):
    return Tube(make_profile(ShapeKind.STRAIGHT, radius, radius, length))


def reference_factor(element):
    """G of a tree by an explicit stack and math.fsum, sharing no code with capflow.network."""
    done = []
    stack = [(element, False)]
    while stack:
        node, expanded = stack.pop()
        if isinstance(node, Tube):
            done.append((8.0 / math.pi) * inverse_r4_integral(node.profile))
        elif not expanded:
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(node.elements))
        else:
            count = len(node.elements)
            terms = done[-count:]
            del done[-count:]
            if isinstance(node, Series):
                done.append(math.fsum(terms))
            else:
                done.append(1.0 / math.fsum([1.0 / t for t in terms]))
    return done[0]


def random_tube(rng):
    kind = rng.choice(list(ShapeKind))
    r_min = 10.0 ** rng.uniform(-5.0, -2.0)
    r_max = r_min if kind is ShapeKind.STRAIGHT else r_min * (1.0 + 10.0 ** rng.uniform(-6.0, 1.0))
    return Tube(make_profile(kind, r_min, r_max, 10.0 ** rng.uniform(-3.0, 0.0)))


def random_tree(rng, levels):
    """A tree ``levels`` deep, 1-4 children per node, with random tubes at the leaves."""
    if levels == 0 or rng.random() < 0.2:
        return random_tube(rng)
    factory = rng.choice((Series, Parallel))
    return factory([random_tree(rng, levels - 1) for _ in range(rng.randint(1, 4))])


def shuffled(element, rng):
    """The same tree with the children of every node in a random order."""
    if isinstance(element, Tube):
        return element
    children = [shuffled(child, rng) for child in element.elements]
    rng.shuffle(children)
    return type(element)(children)


class TestLeaf:
    def test_tube_matches_single_resistance(self):
        tube = canonical_tube("conical")
        got = network_resistance(tube, WATER)
        want = hydraulic_resistance(tube.profile, WATER)
        assert got.resistance == want.resistance
        assert got.geometric_factor == want.geometric_factor

    def test_rejects_non_element(self):
        with pytest.raises(TypeError):
            network_resistance("not a tube", WATER)


class TestSeries:
    def test_two_segments_equal_one_long_tube(self):
        split = Series([straight_tube(1e-3, 0.04), straight_tube(1e-3, 0.06)])
        whole = straight_tube(1e-3, 0.1)
        got = network_resistance(split, WATER).resistance
        want = network_resistance(whole, WATER).resistance
        assert got == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("k", [2, 10, 1000])
    def test_k_way_split_of_straight_tube(self, k):
        segment = straight_tube(1e-3, 1.0 / k)
        split = Series([segment] * k)
        whole = straight_tube(1e-3, 1.0)
        got = network_resistance(split, WATER).resistance
        want = network_resistance(whole, WATER).resistance
        assert got == pytest.approx(want, rel=1e-12)

    def test_five_canonical_tubes_frozen(self):
        chain = Series([canonical_tube(token) for token in FIVE_TOKENS])
        r = network_resistance(chain, WATER)
        assert r.resistance == pytest.approx(ref.FIVE_SERIES_RESISTANCE, rel=1e-13)
        assert r.resistance == pytest.approx(5.1817e8, rel=1e-4)
        p = network_pressure_drop(chain, ref.FLOW, WATER)
        assert p == pytest.approx(ref.FIVE_SERIES_PRESSURE, rel=1e-13)

    def test_resistance_dominates_every_child(self):
        chain = Series([canonical_tube(token) for token in FIVE_TOKENS])
        total = network_resistance(chain, WATER).resistance
        for token in FIVE_TOKENS:
            child = network_resistance(canonical_tube(token), WATER).resistance
            assert total > child

    def test_single_child_is_transparent(self):
        tube = canonical_tube("cosh")
        wrapped = Series([tube])
        assert network_resistance(wrapped, WATER) == network_resistance(tube, WATER)


class TestParallel:
    @pytest.mark.parametrize("n", [2, 7, 100])
    def test_n_identical_tubes(self, n):
        tube = straight_tube(1e-3, 0.1)
        bundle = Parallel([tube] * n)
        single = network_resistance(tube, WATER).resistance
        got = network_resistance(bundle, WATER).resistance
        assert got == pytest.approx(single / n, rel=1e-14)

    def test_resistance_below_every_child(self):
        bundle = Parallel([canonical_tube(token) for token in FIVE_TOKENS])
        total = network_resistance(bundle, WATER).resistance
        for token in FIVE_TOKENS:
            child = network_resistance(canonical_tube(token), WATER).resistance
            assert total < child

    def test_parallel_pair_doubles_flow(self):
        tube = canonical_tube("conical")
        pair = Parallel([tube, tube])
        single = network_flow_rate(tube, 0.1, WATER)
        got = network_flow_rate(pair, 0.1, WATER)
        assert got == pytest.approx(2.0 * single, rel=1e-14)

    def test_single_child_is_transparent(self):
        tube = canonical_tube("parabolic")
        wrapped = Parallel([tube])
        got = network_resistance(wrapped, WATER)
        want = network_resistance(tube, WATER)
        assert got.resistance == pytest.approx(want.resistance, rel=1e-15)


class TestComposition:
    def test_empty_series_rejected(self):
        with pytest.raises(EmptyCompositeError):
            Series([])

    def test_empty_parallel_rejected(self):
        with pytest.raises(EmptyCompositeError):
            Parallel([])

    def test_flattening_nested_series(self):
        tubes = [canonical_tube(token) for token in FIVE_TOKENS]
        flat = Series(tubes)
        nested = Series([Series(tubes[:2]), Series(tubes[2:])])
        got = network_resistance(nested, WATER).resistance
        want = network_resistance(flat, WATER).resistance
        assert got == pytest.approx(want, rel=1e-14)

    def test_series_order_independent(self):
        tubes = [canonical_tube(token) for token in FIVE_TOKENS]
        forward = network_resistance(Series(tubes), WATER).resistance
        backward = network_resistance(Series(tubes[::-1]), WATER).resistance
        assert forward == backward

    def test_parallel_order_independent(self):
        tubes = [canonical_tube(token) for token in FIVE_TOKENS]
        forward = network_resistance(Parallel(tubes), WATER).resistance
        backward = network_resistance(Parallel(tubes[::-1]), WATER).resistance
        assert forward == backward

    def test_mixed_tree(self):
        # Two parallel canonical conicals feeding a sinusoidal: G composes
        # as G_parallel + G_sinusoidal with G_parallel = G_conical / 2.
        conical = canonical_tube("conical")
        sinusoidal = canonical_tube("sinusoidal")
        tree = Series([Parallel([conical, conical]), sinusoidal])
        g_conical = network_resistance(conical, WATER).geometric_factor
        g_sin = network_resistance(sinusoidal, WATER).geometric_factor
        want = g_conical / 2.0 + g_sin
        got = network_resistance(tree, WATER).geometric_factor
        assert got == pytest.approx(want, rel=1e-14)


class TestOperatingPoints:
    def test_single_tube_pressure_identity(self):
        tube = canonical_tube("conical")
        got = network_pressure_drop(tube, ref.FLOW, WATER)
        assert got == pytest.approx(ref.PRESSURE["conical"], rel=1e-13)

    def test_zero_flow(self):
        chain = Series([canonical_tube(token) for token in FIVE_TOKENS])
        assert network_pressure_drop(chain, 0.0, WATER) == 0.0

    def test_two_tube_pressure_adds(self):
        conical = canonical_tube("conical")
        sinusoidal = canonical_tube("sinusoidal")
        chain = Series([conical, sinusoidal])
        got = network_pressure_drop(chain, ref.FLOW, WATER)
        assert got == pytest.approx(ref.CONICAL_PLUS_SINUSOIDAL_PRESSURE, rel=1e-13)
        split = network_pressure_drop(conical, ref.FLOW, WATER) + network_pressure_drop(
            sinusoidal, ref.FLOW, WATER
        )
        assert got == pytest.approx(split, rel=1e-14)

    def test_flow_from_frozen_pressure(self):
        chain = Series([canonical_tube("conical"), canonical_tube("sinusoidal")])
        got = network_flow_rate(chain, ref.CONICAL_PLUS_SINUSOIDAL_PRESSURE, WATER)
        assert got == pytest.approx(ref.FLOW, rel=1e-12)

    def test_flow_from_rounded_pressure(self):
        chain = Series([canonical_tube("conical"), canonical_tube("sinusoidal")])
        got = network_flow_rate(chain, 0.1629, WATER)
        assert got == pytest.approx(ref.FLOW, rel=1e-3)

    def test_single_straight(self):
        tube = straight_tube(1e-3, 0.1)
        got = network_flow_rate(tube, ref.PRESSURE["straight"], WATER)
        assert got == pytest.approx(ref.FLOW, rel=1e-12)

    @given(profiles(), profiles(), st.floats(1e-12, 1e-3))
    def test_round_trip(self, profile_a, profile_b, flow):
        tree = Series([Tube(profile_a), Parallel([Tube(profile_b), Tube(profile_a)])])
        p = network_pressure_drop(tree, flow, WATER)
        assert network_flow_rate(tree, p, WATER) == pytest.approx(flow, rel=1e-12)


class TestFlowRange:
    NETWORK = Series([Tube(make_profile(ShapeKind.CONICAL, 1e-3, 2e-3, 0.1))])

    def test_pressure_drop_overflow(self):
        with pytest.raises(FlowRangeError, match="pressure drop inf"):
            network_pressure_drop(self.NETWORK, 1e300, Fluid(1e3))

    def test_flow_rate_overflow(self):
        with pytest.raises(FlowRangeError, match="flow rate inf"):
            network_flow_rate(self.NETWORK, 1e300, Fluid(1e-300))

    def test_nan_inputs(self):
        with pytest.raises(FlowRangeError):
            network_pressure_drop(self.NETWORK, math.nan, WATER)
        with pytest.raises(FlowRangeError):
            network_flow_rate(self.NETWORK, math.nan, WATER)


class TestDepth:
    def test_5000_deep_alternating_tree(self):
        rng = random.Random(5000)
        tree = random_tube(rng)
        for level in range(5000):
            factory = Series if level % 2 else Parallel
            tree = factory([random_tube(rng), tree, random_tube(rng)][: 2 + level % 2])
        got = network_resistance(tree, WATER)
        assert got.geometric_factor == reference_factor(tree)
        assert got.resistance == WATER.viscosity * got.geometric_factor

    def test_5000_deep_single_child_chain_is_transparent(self):
        tube = canonical_tube("sinusoidal")
        tree = tube
        for level in range(5000):
            tree = (Series if level % 2 else Parallel)([tree])
        assert network_resistance(tree, WATER) == network_resistance(tube, WATER)


class TestCorrectRounding:
    @pytest.mark.parametrize("seed", range(20))
    def test_permuting_children_gives_bit_equal_factor(self, seed):
        rng = random.Random(seed)
        tree = random_tree(rng, 4)
        want = network_resistance(tree, WATER).geometric_factor
        assert want == reference_factor(tree)
        for _ in range(3):
            assert network_resistance(shuffled(tree, rng), WATER).geometric_factor == want

    def test_series_is_the_correctly_rounded_sum(self):
        # Summed left to right these factors round an ulp low; fsum rounds the exact sum.
        tubes = [straight_tube(1e-3, 1.0), straight_tube(1e-3, 1e-16), straight_tube(1e-3, 1e-16)]
        factors = [network_resistance(tube, WATER).geometric_factor for tube in tubes]
        assert network_resistance(Series(tubes), WATER).geometric_factor == math.fsum(factors)


class TestGeometryRange:
    HUGE = straight_tube(1e77, 0.1)   # G ~ 2.5e-309, whose reciprocal overflows

    def test_parallel_of_a_vanishing_factor(self):
        with pytest.raises(GeometryRangeError, match="G = 0.0"):
            network_resistance(Parallel([self.HUGE]), WATER)

    def test_series_sum_overflow(self):
        narrow = straight_tube(1.2e-77, 1.0)   # G ~ 1.2e308 each
        with pytest.raises(GeometryRangeError, match="leaves the double range"):
            network_resistance(Series([narrow, narrow]), WATER)

    def test_zero_factor_inside_a_parallel(self):
        tree = Parallel([Parallel([self.HUGE]), canonical_tube("conical")])
        with pytest.raises(GeometryRangeError):
            network_resistance(tree, WATER)

    def test_overflowing_resistance(self):
        with pytest.raises(FlowRangeError, match="resistance inf"):
            network_resistance(Series([canonical_tube("conical")]), Fluid(1e300))
