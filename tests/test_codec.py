import json
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_algebra import PROPERTY_FIELDS, algebras
from test_cli import table_document
from test_coalgebra import coalgebras, transposed_coalgebra
from test_twist import perturbed_cotwists, twisting_maps

from findual import codec
from findual.algebra import (
    FinDimAlgebra,
    SemisimpleProfile,
    matrix_algebra,
    triangular_algebra,
    truncated_polynomial_algebra,
)
from findual.coalgebra import (
    DualTower,
    FinDimCoalgebra,
    canonical_inclusion,
    divided_power_coalgebra,
    dualize_algebra,
    grouplike_coalgebra,
    line_dist_coalgebra,
    tower_extend,
)
from findual.codec import census_to_csv, codec_roundtrip, decode, encode, loads, to_canonical_json
from findual.errors import BadParamsError, SchemaMismatchError
from findual.kernel import GF, QQ, Matrix
from findual.qplane import (
    CensusReport,
    FiberRecord,
    azumaya_census,
    box_dual_tower,
    oq_truncation,
    qtwist_decomposition,
)
from findual.selftest import sweedler_crossed_instance
from findual.twist import (
    Bialgebra,
    cotensor_swap,
    dual_components,
    grouplike_bialgebra,
    primitive_bialgebra_components,
    tensor_swap,
)

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


@pytest.mark.parametrize("kind", ["algebra", "coalgebra", "bialgebra"])
def test_table_dim_bound(kind):
    """A document of dim `_MAX_TABLE_DIM` decodes; one above it is refused
    as a precondition (exit 3), naming the bound, once its labels pass:
    a label list of the wrong length is still malformed input."""
    dim = codec._MAX_TABLE_DIM
    assert decode(table_document(kind, dim)).dim == dim
    with pytest.raises(BadParamsError, match=f"document dim {dim + 1} exceeds the table bound {dim}"):
        decode(table_document(kind, dim + 1))
    with pytest.raises(SchemaMismatchError, match="label count does not match dim"):
        decode(table_document(kind, dim + 1, labels=["short"]))


def test_table_dim_bound_on_encode():
    """encode refuses the dims decode refuses, so a written document
    always reads back."""
    dim = codec._MAX_TABLE_DIM
    assert codec_roundtrip(grouplike_coalgebra(F5, dim)).dim == dim
    with pytest.raises(BadParamsError, match=f"document dim {dim + 1} exceeds the table bound {dim}"):
        encode(grouplike_coalgebra(F5, dim + 1))


@pytest.mark.parametrize("rows,cols,entries", [(-2, -2, [1, 2, 3, 4]), (-2, 2, []), (2, -2, []), (0, -7, [])],
                         ids=["both", "rows", "cols", "zero-rows"])
def test_negative_matrix_shape_rejected(rows, cols, entries):
    doc = {"type": "matrix", "field": {"kind": "prime-field", "p": 5}, "rows": rows, "cols": cols,
           "entries": entries}
    with pytest.raises(SchemaMismatchError, match="negative dim"):
        loads(json.dumps(doc))
    assert decode({**doc, "rows": abs(rows), "cols": abs(cols), "entries": [1] * abs(rows * cols)}) == \
        Matrix(F5, abs(rows), abs(cols), [1] * abs(rows * cols))


def test_repeated_labels_accepted():
    # a basis element is its index; labels only name it
    doc = encode(truncated_polynomial_algebra(F5, 2))
    doc["labels"] = ["x", "x"]
    assert decode(doc).labels == ("x", "x")


@st.composite
def bialgebras(draw):
    """The group bialgebra of Z/m with its antipode, the raw components
    k[x]/(x^m) and divided powers, or an algebra drawn by `algebras` (valid
    or not) with the coalgebra on its transposed table; the first two with
    their components dualized half of the time."""
    f = draw(st.sampled_from(PROPERTY_FIELDS))
    kind = draw(st.sampled_from(["group", "primitive", "drawn"]))
    if kind == "drawn":
        a = draw(st.booleans().flatmap(lambda bad: algebras(perturbed=bad, field=f)))
        return Bialgebra(a, transposed_coalgebra(a))
    build = grouplike_bialgebra if kind == "group" else primitive_bialgebra_components
    h = build(f, draw(st.integers(1, 4)))
    return dual_components(h) if draw(st.booleans()) else h


@st.composite
def towers(draw):
    """Divided-power coalgebras of growing size over GF(2/3/5/7) or Q with
    their prefix inclusions, or now and then the dual box tower of the
    quantum plane at (2, 5), levels of dim 4 and 16."""
    if draw(st.integers(0, 4)) == 0:
        return box_dual_tower(2, 5, [1, 2])
    f = draw(st.sampled_from(PROPERTY_FIELDS))
    levels = [divided_power_coalgebra(f, m) for m in sorted(draw(st.sets(st.integers(1, 5), min_size=1, max_size=3)))]
    return DualTower(levels, [canonical_inclusion(small, big) for small, big in zip(levels, levels[1:])])


@st.composite
def census_reports(draw):
    """A census at a small (n, p), or a report of records drawn from a few
    profiles, so that equal profiles recur, as separate objects too."""
    if draw(st.booleans()):
        return azumaya_census(*draw(st.sampled_from([(1, 3), (2, 5), (2, 7), (3, 7)])))
    pool = [SemisimpleProfile(rad, tuple(sorted(factors)))
            for rad, factors in draw(st.lists(st.tuples(st.integers(0, 40), st.lists(
                st.tuples(st.integers(1, 16), st.integers(1, 4)), max_size=3)), min_size=1, max_size=3))]
    records = draw(st.lists(st.builds(FiberRecord, st.integers(0, 300), st.integers(0, 300), st.booleans(),
                                      st.sampled_from(pool).map(lambda prof: SemisimpleProfile(*prof))),
                            max_size=20))
    aggregate = draw(st.dictionaries(st.sampled_from(["azumaya_fibers", "axis_fibers", "azumaya_iff_off_axis"]),
                                     st.one_of(st.integers(0, 10 ** 6), st.booleans())))
    return CensusReport(draw(st.integers(1, 9)), draw(st.integers(2, 300)), tuple(records), aggregate)


@st.composite
def documents(draw):
    """A random algebra, coalgebra, bialgebra (tables at the top level),
    dual tower (tables nested in a list), twisting map or cotwisting map
    (tables nested in an object) over GF(2/3/5/7) or Q, or a census report
    (fibers at the top level)."""
    kind = draw(st.sampled_from(["algebra", "coalgebra", "bialgebra", "tower", "twist", "cotwist", "census"]))
    if kind == "census":
        return draw(census_reports())
    if kind == "algebra":
        return draw(st.booleans().flatmap(lambda bad: algebras(perturbed=bad)))
    if kind == "coalgebra":
        return draw(st.booleans().flatmap(lambda bad: coalgebras(perturbed=bad)))
    if kind == "bialgebra":
        return draw(bialgebras())
    if kind == "tower":
        return draw(towers())
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


@st.composite
def unnormalized_documents(draw):
    """(text, value): the document of an algebra drawn by `algebras`, or of
    the coalgebra on its transposed table, over GF(2/3/5/7) or Q, written
    unnormalized, and the public constructor's object on the same entries.
    The entries are shuffled, zero coefficients are added at unused
    triples, each GF(p) scalar c is written as c + k p and each Q scalar
    num/den as (k num)/(k den), k drawn per scalar."""
    a = draw(st.booleans().flatmap(lambda bad: algebras(perturbed=bad)))
    f, dim, p = a.field, a.dim, a.field.characteristic()
    coalgebra = draw(st.booleans())
    entries = [[r, i, j, c] if coalgebra else [i, j, r, c]
               for i, row in enumerate(a.mul) for j, cell in enumerate(row) for r, c in cell]
    used = {tuple(entry[:3]) for entry in entries}
    unused = [list(t) for t in product(range(dim), repeat=3) if t not in used]
    if unused:
        entries += [t + [0] for t in draw(st.lists(st.sampled_from(unused), max_size=3, unique_by=tuple))]
    entries = draw(st.permutations(entries))

    def written(x):
        """(JSON scalar, the value it reads as) for the scalar x."""
        k = draw(st.integers(0 if p else 1, 3))
        if p:
            return x + k * p, x + k * p
        x = Fraction(x)
        return f"{k * x.numerator}/{k * x.denominator}", Fraction(k * x.numerator, k * x.denominator)

    table = [[] for _ in range(dim)] if coalgebra else [[[] for _ in range(dim)] for _ in range(dim)]
    doc_entries = []
    for s, t, u, x in entries:
        text, value = written(x)
        doc_entries.append([s, t, u, text])
        if coalgebra:
            table[s].append((t, u, value))
        else:
            table[s][t].append((u, value))
    unit = [written(x) for x in a.unit]
    doc = {"type": "coalgebra" if coalgebra else "algebra", "field": encode(a)["field"], "dim": dim,
           "labels": list(a.labels), "comul" if coalgebra else "mul": doc_entries,
           "counit" if coalgebra else "unit": [text for text, _ in unit]}
    build = FinDimCoalgebra if coalgebra else FinDimAlgebra
    return json.dumps(doc), build(f, a.labels, table, [value for _, value in unit])


@settings(max_examples=100)
@given(unnormalized_documents())
def test_unnormalized_documents_decode_as_the_constructors_build(case):
    """The codec stores a document's checked entries without normalizing
    them again: they equal, also in repr, what the normalizing public
    constructor stores, and a decoded algebra is not taken as certified."""
    text, want = case
    got = loads(text)
    if isinstance(want, FinDimAlgebra):
        assert repr((got.mul, got.unit)) == repr((want.mul, want.unit))
        assert got._gens is None
    else:
        assert repr((got.comul, got.counit)) == repr((want.comul, want.counit))
    assert got == want
    assert to_canonical_json(got) == to_canonical_json(want)


def oracle_entries_in(field, doc, key, dim):
    """The per-entry walk alone: the entries, checked one by one in document
    order, sorted; what `_entries_in` returns for a valid list, and the
    first-bad-entry error it raises for any other."""
    entries = codec._require(doc, key, list)
    return sorted((*triple, x) for triple, raw in codec._index_triples(entries, key, dim)
                  if (x := codec._scalar_in(field, raw)))


def decoded(doc):
    """decode(doc) with the stored form of its table, or the error message."""
    try:
        value = decode(doc)
    except SchemaMismatchError as exc:
        return str(exc)
    return value, repr(value.mul if isinstance(value, FinDimAlgebra) else value.comul)


@st.composite
def reordered_documents(draw):
    """The document of an algebra or coalgebra drawn by `algebras` or
    `coalgebras`, its mul or comul list shuffled, or one entry repeated
    (with its own scalar or another), or both; now and then one entry is
    then made bad (an index out of range or a bool, a short entry, a bad
    scalar)."""
    strategy = draw(st.sampled_from([algebras, coalgebras]))
    value = draw(strategy(perturbed=draw(st.booleans())))
    doc = encode(value)
    key = "mul" if "mul" in doc else "comul"
    entries = doc[key]
    if entries and draw(st.booleans()):
        entry = list(draw(st.sampled_from(entries)))
        if draw(st.booleans()):
            entry[3] = draw(st.sampled_from([1, 2, "1/2"] if doc["field"]["kind"] == "rationals" else [1, 2]))
        entries.insert(draw(st.integers(0, len(entries))), entry)
    if draw(st.booleans()):
        entries[:] = draw(st.permutations(entries))
    if entries and draw(st.integers(0, 3)) == 0:
        k = draw(st.integers(0, len(entries) - 1))
        entries[k] = draw(st.sampled_from([
            [value.dim, 0, 0, 1], [0, -1, 0, 1], [0, 0, True, 1], [0, 0, 0], [0, 0, 0, "x"],
        ]))
    return doc


@settings(max_examples=150)
@given(reordered_documents())
def test_reordered_entries_decode_as_the_per_entry_walk(doc):
    """Shuffled, repeated or broken entry lists decode to the same value, or
    raise the same first-bad-entry message, as the per-entry walk."""
    with mock.patch.object(codec, "_entries_in", oracle_entries_in):
        want = decoded(doc)
    assert decoded(doc) == want


def _box8_documents():
    box = oq_truncation(4, 17, "box", (8, 8)).algebra
    return [box, dualize_algebra(box), matrix_algebra(QQ, 3), dualize_algebra(matrix_algebra(QQ, 3)),
            qtwist_decomposition(4, 17, 8, 8).rho_q]


class TestBulkPathIsTaken:
    """A valid document's entries and scalars are checked as whole lists;
    the per-entry walk runs only on a malformed one, to name its first bad
    entry."""

    def test_valid_documents_are_never_walked(self, monkeypatch):
        # nor sorted: encode writes the entries in order
        def refuse(*args):
            raise AssertionError("per-entry walk or sort called")

        values = _box8_documents()
        texts = [to_canonical_json(value) for value in values]
        monkeypatch.setattr(codec, "_index_triples", refuse)
        monkeypatch.setattr(codec, "_scalar_in", refuse)
        monkeypatch.setattr(codec, "sorted", refuse, raising=False)
        for value, text in zip(values, texts):
            assert loads(text) == value

    @pytest.mark.parametrize("k", range(5))
    def test_malformed_documents_are_walked(self, k, monkeypatch):
        calls = []
        for name in ("_index_triples", "_scalar_in"):
            def spy(*args, name=name, real=getattr(codec, name)):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(codec, name, spy)
        doc = encode(_box8_documents()[k])
        entries = doc["matrix"] if k == 4 else doc["mul" if "mul" in doc else "comul"]
        entries[-1] = True
        with pytest.raises(SchemaMismatchError):
            decode(doc)
        assert calls
