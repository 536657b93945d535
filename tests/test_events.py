import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

import strategies
from foltl.events import (
    EmptyLoopError,
    LassoTrace,
    MalformedInputError,
    canonical_position,
    dom,
    iter_messages,
    lasso_to_json,
    load_lasso,
    load_trace,
    parse_message,
    position_message,
)
from foltl.formula import Path

# Objects nested beyond what json.loads decodes without exhausting the stack.
DEEP = '{"m":' * 1200 + '"x"' + "}" * 1200
STOCK_JSON = (
    '{"message":{"action":"placeBuyOrder",'
    '"stock":[{"name":"stock-1","amount":"123"},{"name":"stock-2","amount":"456"}]}}'
)


class TestDom:
    def test_stock_names(self):
        message = parse_message(STOCK_JSON)
        assert dom(message, Path(("message", "stock", "name"))) == {"stock-1", "stock-2"}

    def test_single_leaf(self):
        message = parse_message(STOCK_JSON)
        assert dom(message, Path(("message", "action"))) == {"placeBuyOrder"}

    def test_unmatched_path_is_empty(self):
        message = parse_message(STOCK_JSON)
        assert dom(message, Path(("message", "nope"))) == frozenset()
        assert dom(message, Path(("message", "stock", "name", "deeper"))) == frozenset()

    def test_first_segment_must_match_root(self):
        message = parse_message('{"m":{"a":"v"}}')
        assert dom(message, Path(("x", "a"))) == frozenset()
        assert dom(message, Path(("m", "a"))) == {"v"}

    def test_duplicates_collapse(self):
        message = parse_message('{"m":{"a":["v","v","w"]}}')
        assert dom(message, Path(("m", "a"))) == {"v", "w"}

    def test_only_text_only_elements_contribute(self):
        message = parse_message('{"m":{"a":[{"x":"y"},"v"]}}')
        assert dom(message, Path(("m", "a"))) == {"v"}
        assert dom(message, Path(("m", "a", "x"))) == {"y"}

    def test_intermediate_leaf_stops_the_chain(self):
        message = parse_message('{"m":{"a":"v"}}')
        assert dom(message, Path(("m", "a", "x"))) == frozenset()

    def test_root_only_path(self):
        message = parse_message('{"m":"text"}')
        assert dom(message, Path(("m",))) == {"text"}

    def test_one_item_root_array_counts_as_its_item(self):
        assert dom(parse_message('{"m":["text"]}'), Path(("m",))) == {"text"}
        assert dom(parse_message('{"m":[{"a":"v"}]}'), Path(("m", "a"))) == {"v"}

    @given(strategies.messages())
    def test_pure_and_duplicate_free(self, message):
        path = Path(("m", "a"))
        first = dom(message, path)
        assert dom(message, path) == first
        assert isinstance(first, frozenset)


class TestIngestion:
    def test_stock_item_order_does_not_matter(self):
        swapped = (
            '{"message":{"stock":[{"amount":"456","name":"stock-2"},'
            '{"amount":"123","name":"stock-1"}],"action":"placeBuyOrder"}}'
        )
        for leaf in ("action", "stock/name", "stock/amount"):
            path = Path(("message", *leaf.split("/")))
            assert dom(parse_message(swapped), path) == dom(parse_message(STOCK_JSON), path)
        assert dom(parse_message(swapped), Path(("message", "stock", "amount"))) == {"123", "456"}

    def test_array_of_strings_repeats_the_element(self):
        message = parse_message('{"m":{"a":["x","y"]}}')
        assert dom(message, Path(("m", "a"))) == {"x", "y"}

    def test_empty_object_means_no_children(self):
        message = parse_message('{"m":{}}')
        assert dom(message, Path(("m",))) == frozenset()
        assert dom(message, Path(("m", "a"))) == frozenset()

    def test_multi_key_root_rejected(self):
        with pytest.raises(MalformedInputError):
            parse_message('{"m":"x","n":"y"}')

    def test_array_root_rejected(self):
        with pytest.raises(MalformedInputError):
            parse_message('{"m":["x","y"]}')

    def test_non_string_scalar_rejected(self):
        with pytest.raises(MalformedInputError) as err:
            parse_message('{"m":{"a":123}}', line=4)
        assert err.value.line == 4

    def test_nested_array_rejected(self):
        with pytest.raises(MalformedInputError):
            parse_message('{"m":{"a":[["x"]]}}')

    def test_invalid_json_reports_line(self):
        lines = ['{"m":{"a":"x"}}', "{oops", '{"m":{}}']
        with pytest.raises(MalformedInputError) as err:
            list(iter_messages(lines))
        assert err.value.line == 2

    def test_duplicate_key_rejected_and_named(self):
        with pytest.raises(MalformedInputError) as err:
            parse_message('{"m":{"a":"x","b":"y","a":"c"}}', line=3)
        assert err.value.line == 3
        assert "duplicate key 'a'" in str(err.value)

    def test_duplicate_root_key_rejected(self):
        with pytest.raises(MalformedInputError) as err:
            parse_message('{"m":{},"m":{"a":"x"}}')
        assert "duplicate key 'm'" in str(err.value)

    def test_too_deep_is_malformed_at_its_line(self):
        with pytest.raises(MalformedInputError) as err:
            parse_message(DEEP, line=5)
        assert err.value.line == 5
        assert "nests too deeply" in str(err.value)

    def test_blank_lines_skipped(self):
        text = '\n{"m":{"a":"x"}}\n\n{"m":{}}\n'
        assert len(load_trace(text)) == 2

    def test_load_trace_empty(self):
        assert load_trace("") == ()

    def test_unicode_line_separators_stay_inside_strings(self):
        (message,) = load_trace('{"m":{"a":"x\u2028y"}}')
        assert message.obj == {"m": {"a": "x\u2028y"}}

    def test_lines_split_at_every_newline_convention(self):
        assert len(load_trace('{"m":{}}\r\n{"m":{}}\r{"m":{}}\n')) == 3


class TestLasso:
    def test_load(self):
        lasso = load_lasso('{"prefix":[{"m":{"a":"x"}}],"loop":[{"m":{}}]}')
        assert len(lasso.prefix) == 1
        assert len(lasso.loop) == 1

    def test_prefix_defaults_empty(self):
        lasso = load_lasso('{"loop":[{"m":{}}]}')
        assert lasso.prefix == ()

    def test_empty_loop_rejected(self):
        with pytest.raises(EmptyLoopError):
            load_lasso('{"prefix":[],"loop":[]}')

    def test_empty_loop_rejected_at_construction(self):
        with pytest.raises(EmptyLoopError):
            LassoTrace(prefix=(), loop=())

    def test_missing_loop_rejected(self):
        with pytest.raises(MalformedInputError):
            load_lasso('{"prefix":[]}')

    def test_unknown_keys_rejected(self):
        with pytest.raises(MalformedInputError):
            load_lasso('{"loop":[{"m":{}}],"lop":[]}')

    def test_non_object_rejected(self):
        with pytest.raises(MalformedInputError):
            load_lasso("[]")

    @pytest.mark.parametrize(
        "text,key",
        [('{"loop":[{"m":{}}],"loop":[]}', "loop"), ('{"loop":[{"m":{"a":"x","a":"y"}}]}', "a")],
        ids=["lasso", "message"],
    )
    def test_duplicate_key_rejected(self, text, key):
        with pytest.raises(MalformedInputError) as err:
            load_lasso(text)
        assert f"duplicate key {key!r}" in str(err.value)

    def test_too_deep_rejected(self):
        with pytest.raises(MalformedInputError) as err:
            load_lasso('{"loop":[' + DEEP + "]}")
        assert "nests too deeply" in str(err.value)


def _lasso_of(prefix_texts, loop_texts):
    return LassoTrace(
        prefix=tuple(parse_message(t) for t in prefix_texts),
        loop=tuple(parse_message(t) for t in loop_texts),
    )


class TestPositions:
    def test_prefix_positions_are_direct(self):
        lasso = _lasso_of(['{"m":{"a":"p0"}}', '{"m":{"a":"p1"}}'], ['{"m":{"a":"l0"}}'])
        assert dom(position_message(lasso, 0), Path(("m", "a"))) == {"p0"}
        assert dom(position_message(lasso, 1), Path(("m", "a"))) == {"p1"}

    def test_position_seven_in_two_three_lasso(self):
        lasso = _lasso_of(
            ['{"m":{"a":"p0"}}', '{"m":{"a":"p1"}}'],
            ['{"m":{"a":"l0"}}', '{"m":{"a":"l1"}}', '{"m":{"a":"l2"}}'],
        )
        # 2 + ((7 - 2) mod 3) = 4, the third loop message
        assert canonical_position(lasso, 7) == 4
        assert dom(position_message(lasso, 7), Path(("m", "a"))) == {"l2"}

    @given(strategies.lassos(), st.integers(min_value=0, max_value=50))
    def test_periodicity(self, lasso, index):
        shifted = index + len(lasso.loop)
        if index >= len(lasso.prefix):
            assert position_message(lasso, index) == position_message(lasso, shifted)
        assert position_message(lasso, index) == position_message(
            lasso, canonical_position(lasso, index)
        )


class TestSerialization:
    def test_stock_round_trip(self):
        text = lasso_to_json(_lasso_of([], [STOCK_JSON]))
        assert json.loads(text)["loop"] == [json.loads(STOCK_JSON)]

    def test_lasso_json_is_compact_single_line(self):
        lasso = _lasso_of([], ['{"m":{"a":"x"}}'])
        text = lasso_to_json(lasso)
        assert "\n" not in text and " " not in text
        assert json.loads(text) == {"prefix": [], "loop": [{"m": {"a": "x"}}]}

    @given(
        st.lists(strategies.rich_messages(), max_size=3),
        st.lists(strategies.rich_messages(), min_size=1, max_size=3),
    )
    def test_round_trip(self, prefix, loop):
        lasso = LassoTrace(prefix=tuple(prefix), loop=tuple(loop))
        assert load_lasso(lasso_to_json(lasso)) == lasso
