"""The report encoder: exact rationals and keys sorted as strings."""

import json
from fractions import Fraction

from webrank.reporting import _jsonable

from oracles import jsonable_by_isinstance


class Tag:
    def __str__(self):
        return "tag"


class Count(int):
    pass


VALUES = [
    Fraction(3, 7), Fraction(4), Fraction(-1, 2), 0, -5, 2**70, True, False, None,
    "x", "", 1.5, Tag(), Count(3),
    (1, Fraction(1, 3), (None, True)),
    [[1, 2], [Fraction(5, 2)], []],
    {10: "a", 2: "b", 1: Fraction(2, 3), "k": None},       # "10" < "2" as strings
    {"edges": [[1, 2], (2, 3)], 3: {20: True, 4: [Fraction(7, 9), None]},
     (1, 2): "tuple key"},
    {1: "int one", "1": "str one"},                        # one string key for both
]


def test_jsonable_matches_the_isinstance_chain():
    for v in VALUES + [VALUES, tuple(VALUES), {i: v for i, v in enumerate(VALUES)}]:
        got, want = _jsonable(v), jsonable_by_isinstance(v)
        assert got == want
        assert json.dumps(got) == json.dumps(want)         # key order too


def test_jsonable_orders_keys_as_strings():
    assert list(_jsonable({10: 1, 2: 2, 1: 3})) == ["1", "10", "2"]

