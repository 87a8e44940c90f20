"""The network spec parser: messages pinned from the recursive parser, depth, and fuzzing.

The expected messages were captured from the recursive parser that the
explicit-stack one replaced; every check and message is meant to be the same.
"""

import hashlib
import json
import math
import tracemalloc

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from capflow import NetworkSpecError, Parallel, Series, ShapeKind, Tube, make_profile
from capflow.network import parse_network_text

TUBE = {"type": "tube", "shape": "conical", "rmin": 1e-3, "rmax": 2e-3, "length": 0.1}


def tube(**changes):
    """TUBE with some fields changed; a field changed to None is dropped."""
    node = dict(TUBE, **changes)
    return {key: value for key, value in node.items() if value is not None}


BAD_NODES = {
    "not_an_object": 42,
    "list_node": [TUBE],
    "missing_type": {"elements": [TUBE]},
    "unknown_type": {"type": "loop", "elements": [TUBE]},
    "null_type": {"type": None},
    "missing_shape": tube(shape=None),
    "missing_length": tube(length=None),
    "unknown_tube_key": dict(TUBE, colour="red", alpha=1),
    "colour_for_length": tube(length=None, colour="red"),
    "unknown_shape": tube(shape="oval"),
    "string_radius": tube(rmin="wide"),
    "bool_length": tube(length=True),
    "null_rmax": dict(TUBE, rmax=None),
    "radius_order": tube(rmin=2e-3, rmax=1e-3),
    "negative_length": tube(length=-0.1),
    "straight_mismatch": tube(shape="straight"),
    "empty_series": {"type": "series", "elements": []},
    "empty_parallel": {"type": "parallel", "elements": []},
    "elements_not_array": {"type": "parallel", "elements": {"0": TUBE}},
    "missing_elements": {"type": "series"},
    "unknown_composite_key": {"type": "series", "elements": [TUBE], "weight": 2},
    "tube_keys_on_series": dict(TUBE, type="series"),
}


def mixed(bad):
    """``bad`` at $.elements[1].elements[2].elements[3], behind valid siblings and before one."""
    inner = {"type": "series", "elements": [TUBE, TUBE, TUBE, bad, TUBE]}
    middle = {"type": "parallel", "elements": [TUBE, TUBE, inner, TUBE]}
    return {"type": "series", "elements": [TUBE, middle]}


def chain(bad, depth):
    """``bad`` beside a tube at the bottom of an alternating chain ``depth`` levels deep."""
    node = bad
    for level in range(depth):
        node = {"type": "series" if level % 2 else "parallel", "elements": [TUBE, node]}
    return node


MIXED_MESSAGES = {
    'not_an_object': '$.elements[1].elements[2].elements[3]: expected an object, got int',
    'list_node': '$.elements[1].elements[2].elements[3]: expected an object, got list',
    'missing_type': '$.elements[1].elements[2].elements[3]: missing "type"',
    'unknown_type': '$.elements[1].elements[2].elements[3]: unknown node type \'loop\'; expected "tube", "series", or "parallel"',
    'null_type': '$.elements[1].elements[2].elements[3]: unknown node type None; expected "tube", "series", or "parallel"',
    'missing_shape': '$.elements[1].elements[2].elements[3]: tube node missing "shape"',
    'missing_length': '$.elements[1].elements[2].elements[3]: tube node missing "length"',
    'unknown_tube_key': '$.elements[1].elements[2].elements[3]: unknown key "alpha" in tube node',
    'colour_for_length': '$.elements[1].elements[2].elements[3]: tube node missing "length"',
    'unknown_shape': "$.elements[1].elements[2].elements[3]: unknown shape 'oval'; valid: straight, conical, parabolic, hyperbolic, cosh, sinusoidal",
    'string_radius': '$.elements[1].elements[2].elements[3]: "rmin" must be a number, got \'wide\'',
    'bool_length': '$.elements[1].elements[2].elements[3]: "length" must be a number, got True',
    'null_rmax': '$.elements[1].elements[2].elements[3]: "rmax" must be a number, got None',
    'radius_order': '$.elements[1].elements[2].elements[3]: RadiusOrderError: r_max must not be smaller than r_min (got r_max=0.001 < r_min=0.002)',
    'negative_length': '$.elements[1].elements[2].elements[3]: NonPositiveLengthError: length must be a positive finite length, got -0.1',
    'straight_mismatch': '$.elements[1].elements[2].elements[3]: StraightRadiusMismatchError: a straight tube needs r_min == r_max (got 0.001 and 0.002)',
    'empty_series': '$.elements[1].elements[2].elements[3]: EmptyCompositeError: a series node needs at least one element',
    'empty_parallel': '$.elements[1].elements[2].elements[3]: EmptyCompositeError: a parallel node needs at least one element',
    'elements_not_array': '$.elements[1].elements[2].elements[3]: "elements" must be an array',
    'missing_elements': '$.elements[1].elements[2].elements[3]: series node missing "elements"',
    'unknown_composite_key': '$.elements[1].elements[2].elements[3]: unknown key "weight" in series node',
    'tube_keys_on_series': '$.elements[1].elements[2].elements[3]: unknown key "length" in series node',
}

# At $ + ".elements[1]" * 300: the message after the location, and the
# sha256 of the whole message.
CHAIN_300_MESSAGES = {
    'not_an_object': ('expected an object, got int', 'f85b9e4132b80672ecb5597c4be786663e117c8f63f30455885138605849d094'),
    'list_node': ('expected an object, got list', 'a17e16ba5aaf63e57ef266d078faf027faac019313958006aa84a459625de4f8'),
    'missing_type': ('missing "type"', '36f99e4389434adb9bef60e18cf196bcc214ba2624a2e068c473a9ab082d048d'),
    'unknown_type': ('unknown node type \'loop\'; expected "tube", "series", or "parallel"', 'f7fd5f773515e450bdaefaf1888ba2a9cd37d12391eee03a6fef23c5dead5618'),
    'null_type': ('unknown node type None; expected "tube", "series", or "parallel"', 'a01e0f7619260ec1388ba9b680458b0f42158302b3fb23f06bffef49e22c8ed6'),
    'missing_shape': ('tube node missing "shape"', 'fcc1aa6e54c96234d0c52f4831161d9b616d8884e66379742b02bf415b0b72b9'),
    'missing_length': ('tube node missing "length"', '3c2f7f7ddd07b2038bfb032fdbafe202a8dda8f70881fa9829c8dd4280a1e0f9'),
    'unknown_tube_key': ('unknown key "alpha" in tube node', 'd83496204a62eb25d8d5114caa97291a8b34392bbb9c1984232ab923888b46ad'),
    'colour_for_length': ('tube node missing "length"', '3c2f7f7ddd07b2038bfb032fdbafe202a8dda8f70881fa9829c8dd4280a1e0f9'),
    'unknown_shape': ("unknown shape 'oval'; valid: straight, conical, parabolic, hyperbolic, cosh, sinusoidal", '892ab8620944f62dd63e30b4b04e095ecbbcd1b28fccca48913d06eeb23fe9d5'),
    'string_radius': ('"rmin" must be a number, got \'wide\'', '0fbfd61fe1e275de205a7a98d69bbb3547f93d47304b0da0f24e2e70a9249a5e'),
    'bool_length': ('"length" must be a number, got True', 'd4e06811808445cfa9b17ca89c0969961b2268025b8aa6635ee2b7caaa58f258'),
    'null_rmax': ('"rmax" must be a number, got None', '3089e65a0eee1bfb0fa2a696fc4d3ee2bdfce7b4523a34dc62f23927d8ffea60'),
    'radius_order': ('RadiusOrderError: r_max must not be smaller than r_min (got r_max=0.001 < r_min=0.002)', '3708de50e15b9fc3b08642dd2024effa2b0d2b489412d5cb2f8640d1907787eb'),
    'negative_length': ('NonPositiveLengthError: length must be a positive finite length, got -0.1', '1ec10a4629f580181a6e562c61396f9a5d6fe3a8a584ccd9dc46c29bfe60fd47'),
    'straight_mismatch': ('StraightRadiusMismatchError: a straight tube needs r_min == r_max (got 0.001 and 0.002)', '379e067e5dcb8466f4dd56cf401087b3b0903c3cae6e4ef137b094275b2add45'),
    'empty_series': ('EmptyCompositeError: a series node needs at least one element', 'b0281162ca3686811d6b2ae8d281fea9eaef8db9d5759c9b0b4141d84947a482'),
    'empty_parallel': ('EmptyCompositeError: a parallel node needs at least one element', '1cfd96900ffde7edbd46919c8cb217d580c00faa60216e6bd2686b7c1c64779f'),
    'elements_not_array': ('"elements" must be an array', 'e2480fe70eb42531253ecbcc6ca8e89ababfb15f58dba16bdd33c2fab63a5c79'),
    'missing_elements': ('series node missing "elements"', 'a0972a175bc43172406b82780285f43ee51694d4045251df666c1c52e5a52c8f'),
    'unknown_composite_key': ('unknown key "weight" in series node', '8fc20e289f9e77d2b846fd5bb85510099f1d6bf74461b47355a84170b301ad6a'),
    'tube_keys_on_series': ('unknown key "length" in series node', '6dc05f4f526226dcf073bd8fb54b606c62cfec0c6dc61e3e72b268d32b90924d'),
}

# Documents with more than one problem: the first in document order is reported.
ORDERED_CASES = [
    ('{"type": "series", "elements": [{"type": "tube", "shape": "conical", "rmin": 0.001, "rmax": 0.002, "length": 0.1}, '
     '{"type": "series", "elements": []}, {"type": "loop"}]}',
     '$.elements[1]: EmptyCompositeError: a series node needs at least one element'),
    ('{"type": "parallel", "elements": [{"type": "series", "elements": [{"type": "tube", "shape": "conical", '
     '"rmin": 0.001, "rmax": 0.002, "length": 0.1}, {"type": "tube"}]}, 5]}',
     '$.elements[0].elements[1]: tube node missing "shape"'),
    ('5', '$: expected an object, got int'),
    ('{"type": "parallel", "elements": []}',
     '$: EmptyCompositeError: a parallel node needs at least one element'),
    ('{"type": "tube", "shape": "conical", "rmin": -1.0, "rmax": 0.002, "length": 0.1}',
     '$: NonPositiveRadiusError: r_min must be a positive finite length, got -1.0'),
    ('{"type": "tube", "shape": "cosh", "rmin": NaN, "rmax": 1, "length": 1}',
     '$: NonPositiveRadiusError: r_min must be a positive finite length, got nan'),
    ('{"type": "series", "elements": [\n  {"type": "tube",,}]}',
     'line 2 column 19: invalid JSON: Expecting property name enclosed in double quotes'),
    ('{"type": "series", "elements": [',
     'line 1 column 33: invalid JSON: Expecting value'),
]


def spec_error(text):
    with pytest.raises(NetworkSpecError) as caught:
        parse_network_text(text)
    return str(caught.value)


class TestPinnedMessages:
    @pytest.mark.parametrize("name", sorted(BAD_NODES))
    def test_three_levels_deep(self, name):
        assert spec_error(json.dumps(mixed(BAD_NODES[name]))) == MIXED_MESSAGES[name]

    @pytest.mark.parametrize("name", sorted(BAD_NODES))
    def test_300_levels_deep(self, name):
        tail, digest = CHAIN_300_MESSAGES[name]
        message = spec_error(json.dumps(chain(BAD_NODES[name], 300)))
        assert message == "$" + ".elements[1]" * 300 + ": " + tail
        assert hashlib.sha256(message.encode()).hexdigest() == digest

    @pytest.mark.parametrize("text, message", ORDERED_CASES)
    def test_first_problem_in_document_order(self, text, message):
        assert spec_error(text) == message


class TestFormerTracebacks:
    def test_unhashable_shape(self):
        message = spec_error(json.dumps(mixed(tube(shape=["conical"]))))
        assert message.startswith("$.elements[1].elements[2].elements[3]: unknown shape ['conical']; valid: ")

    def test_integer_beyond_double_range(self):
        text = json.dumps(tube(rmin=0)).replace('"rmin": 0', '"rmin": 1' + "0" * 400)
        assert spec_error(text) == '$: "rmin" is outside the double range, got 1' + "0" * 400

    def test_integer_beyond_the_digit_limit(self):
        text = json.dumps(tube(rmin=0)).replace('"rmin": 0', '"rmin": 1' + "0" * 5000)
        assert spec_error(text) == '$: "rmin" is outside the double range, got 1' + "0" * 5000

    def test_integer_beyond_the_digit_limit_deep_in_the_tree(self):
        text = json.dumps(mixed(tube(length="L"))).replace('"length": "L"', '"length": -2' + "9" * 4400)
        assert spec_error(text) == ('$.elements[1].elements[2].elements[3]: "length" is outside the double range, got -2'
                                    + "9" * 4400)

    def test_integer_beyond_the_digit_limit_outside_a_number_field(self):
        assert spec_error('{"type": 1' + "0" * 5000 + "}").startswith("$: unknown node type 10000")
        assert spec_error('[1' + "0" * 5000 + "]") == "$: expected an object, got list"

    def test_syntax_error_after_an_integer_beyond_the_digit_limit(self):
        text = '{"type": "series", "elements": [1' + "0" * 5000 + ', {,}]}'
        column = text.index("{,") + 2
        assert spec_error(text) == f"line 1 column {column}: invalid JSON: Expecting property name enclosed in double quotes"


def build(doc):
    if doc["type"] == "tube":
        return Tube(make_profile(ShapeKind(doc["shape"]), doc["rmin"], doc["rmax"], doc["length"]))
    factory = Series if doc["type"] == "series" else Parallel
    return factory([build(child) for child in doc["elements"]])


class TestTrees:
    def test_integers_read_as_floats(self):
        parsed = parse_network_text(json.dumps(tube(shape="straight", rmin=1, rmax=1, length=2)))
        assert parsed == Tube(make_profile(ShapeKind.STRAIGHT, 1.0, 1.0, 2.0))
        assert type(parsed.profile.r_min) is float

    def test_mixed_tree(self):
        doc = mixed(tube(shape="sinusoidal", rmin=2e-3, rmax=3e-3))
        assert parse_network_text(json.dumps(doc)) == build(doc)

    def test_single_children(self):
        doc = {"type": "series", "elements": [{"type": "parallel", "elements": [TUBE]}]}
        assert parse_network_text(json.dumps(doc)) == Series([Parallel([build(TUBE)])])

    def test_chain_as_deep_as_the_decoder_goes(self):
        doc = chain(TUBE, 400)
        tree = parse_network_text(json.dumps(doc))
        for level in reversed(range(400)):
            assert type(tree) is (Series if level % 2 else Parallel)
            assert tree.elements[0] == build(TUBE)
            tree = tree.elements[1]
        assert tree == build(TUBE)

    def test_deeper_than_the_decoder_goes(self):
        assert spec_error("[" * 5000 + "]" * 5000) == "$: nesting too deep to parse"


class TestMemory:
    def test_parse_peaks_at_the_decoder(self):
        # The build consumes the decoded document, so the parse holds at most
        # a little of the tree beside it: a parse that kept the document until
        # the tree is built would peak at the decoder's peak plus the tree.
        text = json.dumps({"type": "parallel", "elements": [TUBE] * 20_000})
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            json.loads(text)
            decoder_peak = tracemalloc.get_traced_memory()[1] - base
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            tree = parse_network_text(text)
            tree_size, parse_peak = [value - base for value in tracemalloc.get_traced_memory()]
        finally:
            tracemalloc.stop()
        assert len(tree.elements) == 20_000
        assert parse_peak - decoder_peak < tree_size / 4


# --- fuzzing ----------------------------------------------------------------

# Integers on both sides of the largest double (~1.8e308), up to 1e400.
HUGE_INTS = st.builds(
    lambda sign, exponent: sign * 10 ** exponent,
    st.sampled_from([1, -1]),
    st.sampled_from([0, 1, 17, 300, 308, 309, 400]),
)
SCALARS = (
    st.none()
    | st.booleans()
    | st.text(max_size=6)
    | st.integers()
    | HUGE_INTS
    | st.floats(allow_nan=True, allow_infinity=True)
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
NUMBERS = st.floats(1e-4, 1e-2) | HUGE_INTS | st.floats(allow_nan=True, allow_infinity=True) | JSON_VALUES
SHAPES = st.sampled_from([kind.value for kind in ShapeKind]) | JSON_VALUES
NODE_TYPES = st.sampled_from(["tube", "series", "parallel"]) | JSON_VALUES


@st.composite
def near_valid_tubes(draw):
    node = {
        "type": "tube",
        "shape": draw(SHAPES),
        "rmin": draw(NUMBERS),
        "rmax": draw(NUMBERS),
        "length": draw(NUMBERS),
    }
    change = draw(st.sampled_from(["none", "none", "drop", "add", "retype"]))
    if change == "drop":
        del node[draw(st.sampled_from(sorted(node)))]
    elif change == "add":
        node[draw(st.text(max_size=6))] = draw(JSON_VALUES)
    elif change == "retype":
        node["type"] = draw(NODE_TYPES)
    return node


def composites(children):
    return st.fixed_dictionaries(
        {"type": NODE_TYPES, "elements": st.lists(children, max_size=4) | children},
        optional={"weight": JSON_VALUES},
    )


SPECS = st.recursive(near_valid_tubes() | JSON_VALUES, composites, max_leaves=10)


def parsed_or_spec_error(doc):
    """The parsed element, or None for a NetworkSpecError; any other exception propagates."""
    try:
        return parse_network_text(json.dumps(doc))
    except NetworkSpecError:
        return None


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(SPECS)
    def test_an_element_or_a_spec_error(self, doc):
        element = parsed_or_spec_error(doc)
        if element is not None:
            assert element == build(doc)

    @settings(max_examples=500, deadline=None)
    @given(near_valid_tubes())
    def test_a_tube_or_a_spec_error(self, doc):
        element = parsed_or_spec_error(doc)
        if element is not None:
            assert element == build(doc)
