import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_algebra import algebras
from test_coalgebra import coalgebras
from test_twist import perturbed_cotwists, twisting_maps

from findual.algebra import matrix_algebra, triangular_algebra, truncated_polynomial_algebra
from findual.coalgebra import (
    DualTower,
    canonical_inclusion,
    divided_power_coalgebra,
    dualize_algebra,
    line_dist_coalgebra,
    tower_extend,
)
from findual.codec import census_to_csv, codec_roundtrip, decode, encode, loads, to_canonical_json
from findual.errors import SchemaMismatchError
from findual.kernel import GF, QQ, Matrix
from findual.qplane import azumaya_census, oq_truncation
from findual.selftest import sweedler_crossed_instance
from findual.twist import cotensor_swap, grouplike_bialgebra, tensor_swap

F5 = GF(5)


def divided_power_tower():
    levels = [divided_power_coalgebra(F5, m) for m in (1, 2, 3)]
    tower = DualTower(levels[:1], [])
    for small, big in zip(levels, levels[1:]):
        tower = tower_extend(tower, big, canonical_inclusion(small, big))
    return tower


ROUND_TRIP_VALUES = [
    matrix_algebra(F5, 2),
    matrix_algebra(QQ, 2),
    triangular_algebra(F5, 3),
    truncated_polynomial_algebra(QQ, 3),
    dualize_algebra(matrix_algebra(F5, 2)),
    line_dist_coalgebra(F5, {0: 2, 1: 1}),
    Matrix.from_int_rows(F5, [[1, 2], [3, 4]]),
    Matrix.from_int_rows(QQ, [[1, 2, 3]]),
    tensor_swap(matrix_algebra(F5, 2), truncated_polynomial_algebra(F5, 2)),
    grouplike_bialgebra(F5, 2),
    divided_power_tower(),
]


@pytest.mark.parametrize("value", ROUND_TRIP_VALUES, ids=lambda v: type(v).__name__)
def test_round_trip(value):
    assert codec_roundtrip(value) == value


def test_census_round_trip():
    report = azumaya_census(2, 5)
    assert codec_roundtrip(report) == report


def test_cotwist_round_trip():
    _, _, rho, phi = sweedler_crossed_instance()
    assert codec_roundtrip(rho) == rho
    assert codec_roundtrip(phi) == phi


def test_canonical_bytes_stable():
    a = matrix_algebra(F5, 2)
    text1 = to_canonical_json(a)
    text2 = to_canonical_json(codec_roundtrip(a))
    assert text1 == text2
    assert text1.endswith("\n")


def one_dumps_call(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("length", [0, 1, 511, 512, 513, 1024, 1300])
def test_blockwise_bytes_equal_one_dumps_call(length):
    doc = {"z": [[k, "a\u00e9", {"y": k, "x": [k]}] for k in range(length)],
           "a": {"b": [1, 2], "a": None}, "m": "text", "k": length, "e": []}
    assert to_canonical_json(doc) == one_dumps_call(doc)


def test_large_document_bytes_equal_one_dumps_call():
    a = oq_truncation(4, 13, "box", (12, 12)).algebra
    for value in (a, dualize_algebra(a)):
        assert to_canonical_json(value) == one_dumps_call(encode(value))


def test_rational_scalar_form():
    doc = encode(truncated_polynomial_algebra(QQ, 2))
    assert doc["unit"] == ["1/1", "0/1"]


def test_sparse_triples_sorted():
    doc = encode(matrix_algebra(F5, 2))
    assert doc["mul"] == sorted(doc["mul"], key=lambda t: t[:3])


def test_foreign_document_rejected():
    with pytest.raises(SchemaMismatchError):
        loads('{"hello": "world"}')
    with pytest.raises(SchemaMismatchError):
        loads('{"type": "algebra", "field": {"kind": "prime-field", "p": 5}}')
    with pytest.raises(SchemaMismatchError):
        loads("not json at all")


def test_malformed_indices_rejected():
    doc = encode(matrix_algebra(F5, 2))
    doc["mul"][0][0] = 99
    with pytest.raises(SchemaMismatchError):
        loads(to_canonical_json(doc))


def test_census_bool_coordinate_rejected():
    doc = encode(azumaya_census(2, 5))
    doc["fibers"][1]["c"] = True
    with pytest.raises(SchemaMismatchError):
        loads(to_canonical_json(doc))


@pytest.mark.parametrize("factors", [[1], [{"a": 1}], ["ab"], [[1, 1, 1]], [[1]], [[4, True]], [[4, 1.0]],
                                     [[4, "1"]], [[4, 1], [1]]],
                         ids=["int", "dict", "string", "triple", "single", "bool", "float", "digit-string",
                              "second-bad"])
def test_census_malformed_factors_rejected(factors):
    """Each profile factor is a list of two ints (dim, center dim)."""
    doc = encode(azumaya_census(2, 5))
    doc["fibers"][1]["profile"]["factors"] = factors
    with pytest.raises(SchemaMismatchError, match=r"profile factors must be \[dim, center_dim\] pairs of ints"):
        loads(to_canonical_json(doc))


def test_csv_emitter():
    report = azumaya_census(2, 5)
    csv = census_to_csv(report)
    lines = csv.strip().split("\n")
    assert lines[0] == "n,p,c,d,azumaya,radical_dim,factors"
    assert len(lines) == 1 + 25
    assert "2,5,1,1,1,0,4x1" in lines


def test_deeply_nested_document_rejected():
    with pytest.raises(SchemaMismatchError):
        loads("[" * 200_000 + "]" * 200_000)


def _mixed_field_documents():
    f7 = GF(7)
    rho = encode(tensor_swap(matrix_algebra(F5, 2), truncated_polynomial_algebra(F5, 2)))
    rho["b"] = encode(truncated_polynomial_algebra(f7, 2))
    phi = encode(cotensor_swap(divided_power_coalgebra(F5, 2), divided_power_coalgebra(F5, 2)))
    phi["d"] = encode(divided_power_coalgebra(f7, 2))
    small, big = divided_power_coalgebra(F5, 1), divided_power_coalgebra(F5, 2)
    tower = encode(DualTower([small, big], [canonical_inclusion(small, big)]))
    tower["levels"][1]["field"]["p"] = 7
    return [rho, phi, tower]


@pytest.mark.parametrize("doc", _mixed_field_documents(), ids=["twist", "cotwist", "tower"])
def test_components_over_different_fields_rejected(doc):
    with pytest.raises(SchemaMismatchError, match="different fields"):
        decode(doc)


def test_repeated_comul_triple_rejected():
    doc = encode(divided_power_coalgebra(F5, 2))
    doc["comul"].append(list(doc["comul"][0]))
    with pytest.raises(SchemaMismatchError, match="given twice"):
        decode(doc)



@pytest.mark.parametrize("labels", [[None, "a"], [1.5, True], [[], {}]],
                         ids=["null", "float-bool", "list-dict"])
@pytest.mark.parametrize("value", [truncated_polynomial_algebra(F5, 2),
                                   dualize_algebra(truncated_polynomial_algebra(F5, 2))],
                         ids=["algebra", "coalgebra"])
def test_non_string_labels_rejected(value, labels):
    doc = encode(value)
    doc["labels"] = labels
    with pytest.raises(SchemaMismatchError, match="labels must be strings"):
        decode(doc)


def test_repeated_labels_accepted():
    # a basis element is its index; labels only name it
    doc = encode(truncated_polynomial_algebra(F5, 2))
    doc["labels"] = ["x", "x"]
    assert decode(doc).labels == ("x", "x")


@st.composite
def documents(draw):
    """A random algebra, coalgebra, twisting map or cotwisting map over
    GF(2/3/5/7) or Q."""
    kind = draw(st.sampled_from(["algebra", "coalgebra", "twist", "cotwist"]))
    if kind == "algebra":
        return draw(st.booleans().flatmap(lambda bad: algebras(perturbed=bad)))
    if kind == "coalgebra":
        return draw(st.booleans().flatmap(lambda bad: coalgebras(perturbed=bad)))
    if kind == "twist":
        return draw(st.sampled_from(draw(twisting_maps())))
    return draw(st.sampled_from(draw(perturbed_cotwists())))


@settings(max_examples=150)
@given(documents())
def test_round_trip_property(value):
    text = to_canonical_json(value)
    assert decode(json.loads(text)) == value
    assert to_canonical_json(loads(text)) == text


@settings(max_examples=50)
@given(documents())
def test_blockwise_bytes_equal_one_dumps_call_on_documents(value):
    assert to_canonical_json(value) == one_dumps_call(encode(value))
