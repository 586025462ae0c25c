"""Property test: dump_json writes what json.dumps(indent=2, ensure_ascii=False) writes.

Random nested values of every type the stdlib call accepts: strings with
quotes, backslashes, control characters, non-ASCII text and lone
surrogates, drawn partly from a small pool so that they repeat; negative
and 300-digit ints and bools; floats including -0.0, the smallest
subnormal, 1e308, NaN and both infinities; lists, tuples and dicts (empty
ones included) with str, int, float, bool and None keys.
"""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from json_oracles import KEYS, NUMBERS, STRINGS, dump_json

strings = st.sampled_from(STRINGS) | st.text(
    alphabet=st.characters(exclude_categories=()) | st.sampled_from('"\\\x00\x1f\n\ud800\udfff'),
    max_size=8,
)
numbers = (
    st.integers()
    | st.integers(min_value=10**299, max_value=10**320).flatmap(
        lambda n: st.sampled_from((n, -n))
    )
    | st.floats()
    | st.sampled_from(NUMBERS)
)
keys = strings | st.sampled_from(KEYS) | st.integers() | st.floats() | st.booleans() | st.none()
values = st.recursive(
    st.none() | st.booleans() | numbers | strings,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(keys, inner, max_size=4)
    ),
    max_leaves=20,
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(values)
def test_dump_json_matches_stdlib(value):
    assert dump_json(value) == json.dumps(value, indent=2, ensure_ascii=False)
