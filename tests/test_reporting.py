"""The report encoder: exact rationals and keys sorted as strings."""

import hashlib
import io
import json
from fractions import Fraction

from webrank.cli import main
from webrank.reporting import _jsonable, dump, dumps

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


def test_dumps_orders_keys_as_strings():
    # one sort, json's: _jsonable keeps each dict's order and dumps sorts
    # the string keys, so "10" comes before "2"
    assert list(_jsonable({10: 1, 2: 2, 1: 3})) == ["10", "2", "1"]
    assert dumps({10: 1, 2: 2, 1: 3}) == '{"1":3,"10":1,"2":2}'
    # of two keys with one string the last value stays, in either order
    assert dumps({1: "int", "1": "str"}) == '{"1":"str"}'
    assert dumps({"1": "str", 1: "int"}) == '{"1":"int"}'



def test_dumps_writes_exact_values_compactly_with_string_keys_in_order():
    assert dumps(Fraction(3, 7)) == '"3/7"'
    assert dumps(Fraction(4)) == '"4"' and dumps(4) == "4"
    assert dumps({10: Fraction(-1, 2), 2: None, 1: (1, Fraction(1, 3))}) \
        == '{"1":[1,"1/3"],"10":"-1/2","2":null}'
    cert = {"f": (1, 3), "pieces": [{"z": (0, 1), "status": "infeasible", "y": {4: Fraction(1)}}],
            "point": {10: Fraction(1, 2), 9: Fraction(0)},
            "separating": {"coeffs": {2: Fraction(2)}, "rhs": Fraction(6)}}
    assert dumps(cert) == (
        '{"f":[1,3],'
        '"pieces":[{"status":"infeasible","y":{"4":"1"},"z":[0,1]}],'
        '"point":{"10":"1/2","9":"0"},'
        '"separating":{"coeffs":{"2":"2"},"rhs":"6"}}')


def test_dump_is_dumps_and_a_newline():
    for v in VALUES:
        fh = io.StringIO()
        dump(v, fh)
        assert fh.getvalue() == dumps(v) + "\n"


# exact bytes of both membership payloads; the non-member certificate holds
# one piece record per z, its multipliers y read off the Farkas vector of
# the membership LP ("bounded": the row is bounded on the piece, no piece
# max is claimed)

MEMBER_A72 = (
    '{"certificate":{"f":[1,3],"multipliers":['
    '{"lambda":"5/7","point":{"1":"0","2":"1/5","3":"0","4":"1/5","5":"1/5",'
    '"6":"1/5","7":"2/5"},"z":[0,0]},'
    '{"lambda":"1/7","point":{"1":"0","2":"0","3":"1","4":"0","5":"0","6":"0",'
    '"7":"0"},"z":[0,1]},'
    '{"lambda":"1/7","point":{"1":"1","2":"0","3":"0","4":"0","5":"0","6":"0",'
    '"7":"0"},"z":[1,0]}]},'
    '"f":[1,3],"graph":"A:7:2","member":true,"relaxation":"qstab"}\n')

NON_MEMBER_A73 = (
    '{"certificate":{"f":[1,2],"pieces":['
    '{"status":"bounded","y":{"11":"2","13":"2","8":"2"},"z":[0,0]},'
    '{"status":"bounded","y":{"10":"2","12":"2","7":"2","9":"2"},"z":[0,1]},'
    '{"status":"bounded","y":{"10":"2","12":"2","7":"2","8":"2"},"z":[1,0]},'
    '{"status":"bounded","y":{"10":"2","12":"2","7":"2","8":"2"},"z":[1,1]}],'
    '"point":{"1":"1/2",'
    '"2":"1/2","3":"1/2","4":"1/2","5":"1/2","6":"1/2","7":"1/2"},'
    '"separating":{"coeffs":{"1":"2","2":"2","3":"2","4":"2","5":"2","6":"2",'
    '"7":"2"},"rhs":"6"}},'
    '"f":[1,2],"graph":"A:7:3","member":false,"relaxation":"qstab"}\n')


def test_membership_payloads_are_pinned(capsys):
    assert main(["lp", "A:7:2", "--member", "1/7,1/7,1/7,1/7,1/7,1/7,2/7",
                 "--f", "1,3", "--format", "json"]) == 0
    assert capsys.readouterr().out == MEMBER_A72
    assert main(["lp", "A:7:3", "--member", "1/2,1/2,1/2,1/2,1/2,1/2,1/2",
                 "--f", "1,2", "--format", "json"]) == 0
    assert capsys.readouterr().out == NON_MEMBER_A73


def test_row_rank_certificate_file_is_pinned(tmp_path, capsys):
    # with the point bound 2 at u = 1/2 and no violation recorded
    path = tmp_path / "a83.json"
    assert main(["rank", "ineq", "antiweb", "A:8:3", "--cert", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "78ad66f5c3bf746da4a82b8bbe6042199cd23cd3f7b32a584bc0be5ea5b214be"


def test_a_shared_dict_is_encoded_once_per_call():
    # a report repeats one system object in many certificates: it is
    # encoded once per call, and the text is what encoding each copy gives
    system = {"index": (1, 2), "rows": [{"coeffs": {1: Fraction(-1)}, "rhs": Fraction(0)}]}
    report = {"entries": [{"certificate": {"system": system, "n": i}} for i in range(3)]}
    out = _jsonable(report)
    encoded = [e["certificate"]["system"] for e in out["entries"]]
    assert all(x is encoded[0] for x in encoded)
    assert out == jsonable_by_isinstance(report)
    assert dumps(report) == json.dumps(jsonable_by_isinstance(report), sort_keys=True,
                                       separators=(",", ":"))
    assert _jsonable(report)["entries"][0]["certificate"]["system"] is not encoded[0]


def test_dump_encodes_in_one_shot(monkeypatch):
    # json.dump streams through the pure-Python encoder; dump must not
    def streamed(*args, **kwargs):
        raise AssertionError("streamed through the pure-Python encoder")
    monkeypatch.setattr(json.encoder, "_make_iterencode", streamed)
    for v in VALUES:
        fh = io.StringIO()
        dump(v, fh)
        assert fh.getvalue() == dumps(v) + "\n"
