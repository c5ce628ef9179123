"""Canonical JSON encoding for every domain value.

Encodings are byte-deterministic: sparse triples are emitted in sorted order,
objects carry a "type" tag, and `to_canonical_json` fixes key order and
separators.  Decoding foreign or malformed documents raises
SchemaMismatchError rather than crashing.

A document's structure constants and scalar lists are checked and reduced
as whole lists (`_entries_in`, `_scalars_read`): the checks prove the
decoded entries sorted, canonical and nonzero, the form the constructors
store, so algebras and coalgebras are stored as decoded, without a second
normalization (`algebra._from_normal_table`, `FinDimCoalgebra._store`), and
a decoded algebra is not certified.  Entries in the order encode writes
them, index triples strictly increasing, are kept in that order.  Any other
order, and any failed check, takes the per-entry walk (`_index_triples`,
`_scalar_in`), which refuses repeated triples, names the first bad entry in
document order and sorts.  A map's matrix is type-checked here and
reduced once, by the `TwistingMap` or `CotwistingMap` constructor.

`to_canonical_json` writes the bulk of a document as text, with no JSON
object per item: the entries of a table (`_entry_text`) and the fibers of a
census report (`_fiber_texts`, one profile text per distinct profile).  The
bytes are those of one json.dumps call on `encode`'s document, whose lists
and dicts `encode` still returns.
"""

from __future__ import annotations

import json
from itertools import compress, groupby, islice
from operator import itemgetter, lt

from .algebra import FinDimAlgebra, SemisimpleProfile, _from_normal_table
from .coalgebra import CoalgebraHom, DualTower, FinDimCoalgebra
from .errors import BadParamsError, SchemaMismatchError
from .kernel import Matrix, field_from_json, field_to_json
from .kernel.fields import Field
from .obs import span
from .qplane import CensusReport, FiberRecord
from .twist import Bialgebra, CotwistingMap, TwistingMap

SCHEMA_VERSION = 1


def _scalars_out(field: Field, values):
    return [field.scalar_to_json(v) for v in values]


def _entry_lists(field: Field):
    """encode's writer of table entries: (a, b, c, scalar) to the list
    [a, b, c, scalar], a Q scalar as its JSON string, a GF(p) scalar as
    stored, the int residue."""
    if field.characteristic():
        return lambda a, b, c, x: [a, b, c, x]
    out = field.scalar_to_json
    return lambda a, b, c, x: [a, b, c, out(x)]


def _entry_text(field: Field):
    """`to_canonical_json`'s writer of table entries: (a, b, c, scalar) to
    the JSON text of the list `_entry_lists` writes."""
    if field.characteristic():
        return "[{},{},{},{}]".format
    return lambda a, b, c, x: f'[{a},{b},{c},"{x.numerator}/{x.denominator}"]'


def _scalar_in(field: Field, doc):
    try:
        return field.scalar_from_json(doc)
    except (BadParamsError, ValueError) as exc:
        raise SchemaMismatchError(f"bad scalar {doc!r}: {exc}") from exc


def _scalars_read(field: Field, values):
    """The JSON scalars `values` as read, checked as a whole: over GF(p) the
    ints themselves, not yet reduced (`Field.canonical` reduces them; a
    bool is never a scalar), over Q their canonical values.  If a check
    fails, `_scalar_in` walks the entries, and raises for the first bad one
    in document order."""
    if field.characteristic():
        if set(map(type, values)) <= {int}:
            return values
    else:
        read = field.scalar_from_json
        try:
            return [read(v) for v in values]
        except (BadParamsError, ValueError):
            pass
    return [_scalar_in(field, v) for v in values]


def _raw_scalars_in(field: Field, doc, expected_len=None):
    """The scalar list `doc` as read (`_scalars_read`), for a constructor
    that reduces it."""
    if not isinstance(doc, list):
        raise SchemaMismatchError("expected a list of scalars")
    if expected_len is not None and len(doc) != expected_len:
        raise SchemaMismatchError(f"expected {expected_len} scalars, got {len(doc)}")
    return _scalars_read(field, doc)


def _scalars_in(field: Field, doc, expected_len=None):
    return field.canonical(_raw_scalars_in(field, doc, expected_len))


def _field_in(doc) -> Field:
    spec = _require(doc, "field", dict)
    if spec.get("kind") == "prime-field":
        _require(spec, "p", int)
    try:
        return field_from_json(spec)
    except BadParamsError as exc:
        raise SchemaMismatchError(f"bad field: {exc}") from exc


def _same_field(*parts):
    if len({part.field for part in parts}) > 1:
        raise SchemaMismatchError("components are over different fields")


def _entries_in(field: Field, doc, key, dim):
    """The [a, b, c, scalar] entries of doc[key], an iterable of
    (a, b, c, scalar) tuples sorted by (a, b, c), each scalar canonical and
    nonzero: the normal form the constructors store, so a table built from
    them is not normalized again.

    The schema checks run on whole columns: every entry a list of length 4,
    every index an int (never a bool) in [0, dim), the triples strictly
    increasing (the order encode writes, so distinct and sorted), every
    scalar valid.  Any other order, and any failed check, takes the walk
    in document order (`_index_triples`, `_scalar_in`), which refuses a
    triple given twice, names the first bad entry and sorts."""
    entries = _require(doc, key, list)
    if entries and set(map(type, entries)) == {list} and set(map(len, entries)) == {4}:
        a, b, c, scalars = zip(*entries)
        indices = a + b + c
        if set(map(type, indices)) == {int} and min(indices) >= 0 and max(indices) < dim:
            if all(map(lt, zip(a, b, c), islice(zip(a, b, c), 1, None))):
                scalars = field.canonical(_scalars_read(field, scalars))
                return compress(zip(a, b, c, scalars), scalars)
    return sorted((*triple, x) for triple, raw in _index_triples(entries, key, dim)
                  if (x := _scalar_in(field, raw)))


def _index_triples(entries, key, dim):
    """The [a, b, c, scalar] entries as ((a, b, c), scalar), each checked in
    turn: a list of length 4, each index an int in [0, dim), the triple not
    seen before."""
    seen = set()
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == 4):
            raise SchemaMismatchError(f"{key} entries must be [index, index, index, scalar]")
        if not all(type(x) is int and 0 <= x < dim for x in entry[:3]):
            raise SchemaMismatchError(f"{key} index out of range or not an int: {entry!r}")
        triple = tuple(entry[:3])
        if triple in seen:
            raise SchemaMismatchError(f"{key} triple {list(triple)} given twice")
        seen.add(triple)
        yield triple, entry[3]


# An algebra's table, and the dual table a coalgebra's validation and dual
# read, are dense: dim^2 cells, allocated before any entry is read.  So the
# header dim is bounded before anything is allocated: 1024 is above every
# table the commands build at desk scale (the box(12, 12) dual has dim 144,
# the quantum-plane jet at most 432), and its dense table is 1M cells.
# `encode` refuses the same dims, so no document is written that `decode`
# would refuse.
_MAX_TABLE_DIM = 1024


def _bounded_dim(dim):
    if dim > _MAX_TABLE_DIM:
        raise BadParamsError(f"document dim {dim} exceeds the table bound {_MAX_TABLE_DIM}")
    return dim


def _basis_in(doc):
    """doc's dim and labels: dim strings, repeats allowed (a basis element is
    its index).  A dim above `_MAX_TABLE_DIM` is refused once the labels
    have passed, before any table is allocated."""
    dim = _require(doc, "dim", int)
    labels = _require(doc, "labels", list)
    if len(labels) != dim:
        raise SchemaMismatchError("label count does not match dim")
    if not all(isinstance(label, str) for label in labels):
        raise SchemaMismatchError("labels must be strings")
    return _bounded_dim(dim), labels


def _require(doc, key, types=None):
    if not isinstance(doc, dict) or key not in doc:
        raise SchemaMismatchError(f"missing key {key!r}")
    val = doc[key]
    # bool is an int subclass, but JSON true/false is never a count or index.
    if types is not None and (
        not isinstance(val, types) or (types is int and isinstance(val, bool))
    ):
        raise SchemaMismatchError(f"key {key!r} has wrong type")
    return val


def encode(value):
    return _doc(value, False)


def _doc(value, text: bool):
    """`value`'s document.  Where `text` is set, each entry of an algebra's
    or a coalgebra's table, at the top level and in both tables of a
    bialgebra, is written as JSON text (`_entry_text`, not `_entry_lists`),
    and so is each fiber of a census report (`_fiber_texts`, not
    `_fiber_dicts`); a nested algebra or coalgebra is encoded."""
    if isinstance(value, FinDimAlgebra):
        f = value.field
        entry = (_entry_text if text else _entry_lists)(f)
        return {
            "type": "algebra",
            "field": field_to_json(f),
            "dim": _bounded_dim(value.dim),
            "labels": list(value.labels),
            "mul": [entry(i, j, r, c) for i, row in enumerate(value.mul)
                    for j, cell in filter(itemgetter(1), enumerate(row)) for r, c in cell],
            "unit": _scalars_out(f, value.unit),
        }
    if isinstance(value, FinDimCoalgebra):
        f = value.field
        entry = (_entry_text if text else _entry_lists)(f)
        return {
            "type": "coalgebra",
            "field": field_to_json(f),
            "dim": _bounded_dim(value.dim),
            "labels": list(value.labels),
            "comul": [entry(r, i, j, c) for r, terms in enumerate(value.comul) for i, j, c in terms],
            "counit": _scalars_out(f, value.counit),
        }
    if isinstance(value, Matrix):
        return {
            "type": "matrix",
            "field": field_to_json(value.field),
            "rows": value.rows,
            "cols": value.cols,
            "entries": _scalars_out(value.field, value.entries),
        }
    if isinstance(value, TwistingMap):
        return {
            "type": "twisting-map",
            "a": encode(value.a),
            "b": encode(value.b),
            "matrix": _scalars_out(value.a.field, value.matrix.entries),
        }
    if isinstance(value, CotwistingMap):
        return {
            "type": "cotwisting-map",
            "c": encode(value.c),
            "d": encode(value.d),
            "matrix": _scalars_out(value.c.field, value.matrix.entries),
        }
    if isinstance(value, Bialgebra):
        alg_doc = _doc(value.alg, text)
        coalg_doc = _doc(value.coalg, text)
        return {
            "type": "bialgebra",
            "field": alg_doc["field"],
            "dim": value.dim,
            "labels": list(value.labels),
            "mul": alg_doc["mul"],
            "unit": alg_doc["unit"],
            "comul": coalg_doc["comul"],
            "counit": coalg_doc["counit"],
            "antipode": (
                _scalars_out(value.field, value.antipode.entries)
                if value.antipode is not None
                else None
            ),
        }
    if isinstance(value, DualTower):
        return {
            "type": "dual-tower",
            "levels": [encode(lv) for lv in value.levels],
            "inclusions": [
                _scalars_out(inc.source.field, inc.matrix.entries)
                for inc in value.inclusions
            ],
        }
    if isinstance(value, CensusReport):
        return {
            "type": "census-report",
            "n": value.n,
            "p": value.p,
            "fibers": (_fiber_texts if text else _fiber_dicts)(value.fibers),
            "aggregate": dict(value.aggregate),
        }
    raise SchemaMismatchError(f"cannot encode value of type {type(value).__name__}")


def _fiber_dicts(fibers):
    """encode's census fibers: one dict per `FiberRecord`."""
    return [{"c": int(f.c), "d": int(f.d), "azumaya": f.azumaya, "profile": _profile_doc(f.profile)}
            for f in fibers]


def _profile_doc(profile: SemisimpleProfile):
    return {"radical_dim": profile.radical_dim, "factors": [list(pair) for pair in profile.factors]}


def _fiber_texts(fibers):
    """`to_canonical_json`'s census fibers: each the JSON text of its
    `_fiber_dicts` dict, keys sorted.  The text around c and d is written
    once per distinct (azumaya, profile), so a fiber costs two ints; equal
    keys have equal text, as azumaya is a bool and the profile's dims are
    ints in every report the census or `decode` gives."""
    parts = {}
    out = []
    for f in fibers:
        key = f.azumaya, f.profile
        part = parts.get(key)
        if part is None:
            part = parts[key] = (f'{{"azumaya":{_dumps(f.azumaya)},"c":',
                                 f',"profile":{_dumps(_profile_doc(f.profile))}}}')
        out.append(f'{part[0]}{int(f.c)},"d":{int(f.d)}{part[1]}')
    return out


def decode(doc):
    tag = _require(doc, "type", str)
    if tag == "algebra":
        return _decode_algebra(doc)
    if tag == "coalgebra":
        return _decode_coalgebra(doc)
    if tag == "matrix":
        return _decode_matrix(doc)
    if tag == "twisting-map":
        a = _decode_algebra(_require(doc, "a", dict))
        b = _decode_algebra(_require(doc, "b", dict))
        _same_field(a, b)
        n = a.dim * b.dim
        ent = _raw_scalars_in(a.field, _require(doc, "matrix", list), n * n)
        return TwistingMap(a, b, Matrix(a.field, n, n, ent))
    if tag == "cotwisting-map":
        c = _decode_coalgebra(_require(doc, "c", dict))
        d = _decode_coalgebra(_require(doc, "d", dict))
        _same_field(c, d)
        n = c.dim * d.dim
        ent = _raw_scalars_in(c.field, _require(doc, "matrix", list), n * n)
        return CotwistingMap(c, d, Matrix(c.field, n, n, ent))
    if tag == "bialgebra":
        field = _field_in(doc)
        dim = _require(doc, "dim", int)
        labels = _require(doc, "labels", list)
        alg = _decode_algebra(
            {"type": "algebra", "field": doc["field"], "dim": dim,
             "labels": labels, "mul": doc.get("mul"), "unit": doc.get("unit")}
        )
        coalg = _decode_coalgebra(
            {"type": "coalgebra", "field": doc["field"], "dim": dim,
             "labels": labels, "comul": doc.get("comul"), "counit": doc.get("counit")}
        )
        anti = doc.get("antipode")
        antipode = None
        if anti is not None:
            antipode = Matrix(field, dim, dim, _scalars_in(field, anti, dim * dim))
        return Bialgebra(alg, coalg, antipode)
    if tag == "dual-tower":
        levels = [_decode_coalgebra(lv) for lv in _require(doc, "levels", list)]
        _same_field(*levels)
        incs_raw = _require(doc, "inclusions", list)
        if len(incs_raw) != max(len(levels) - 1, 0):
            raise SchemaMismatchError("wrong number of inclusions")
        inclusions = []
        for k, ent in enumerate(incs_raw):
            small, big = levels[k], levels[k + 1]
            vals = _scalars_in(small.field, ent, big.dim * small.dim)
            inclusions.append(
                CoalgebraHom(small, big, Matrix(small.field, big.dim, small.dim, vals))
            )
        return DualTower(levels, inclusions)
    if tag == "census-report":
        n = _require(doc, "n", int)
        p = _require(doc, "p", int)
        fibers = []
        for fd in _require(doc, "fibers", list):
            prof = _require(fd, "profile", dict)
            factors = _require(prof, "factors", list)
            # type(x) is int: JSON true/false is never a dimension
            if not all(isinstance(pair, list) and len(pair) == 2 and all(type(x) is int for x in pair)
                       for pair in factors):
                raise SchemaMismatchError("profile factors must be [dim, center_dim] pairs of ints")
            fibers.append(
                FiberRecord(
                    _require(fd, "c", int),
                    _require(fd, "d", int),
                    _require(fd, "azumaya", bool),
                    SemisimpleProfile(
                        _require(prof, "radical_dim", int),
                        tuple(tuple(pair) for pair in factors),
                    ),
                )
            )
        return CensusReport(n, p, tuple(fibers), dict(_require(doc, "aggregate", dict)))
    raise SchemaMismatchError(f"unknown document type {tag!r}")


def _decode_algebra(doc) -> FinDimAlgebra:
    if _require(doc, "type", str) != "algebra":
        raise SchemaMismatchError("expected an algebra document")
    field = _field_in(doc)
    dim, labels = _basis_in(doc)
    mul = [[()] * dim for _ in range(dim)]
    for (i, j), cell in groupby(_entries_in(field, doc, "mul", dim), itemgetter(0, 1)):
        mul[i][j] = tuple([(r, c) for _, _, r, c in cell])
    unit = _scalars_in(field, _require(doc, "unit", list), dim)
    return _from_normal_table(field, labels, mul, unit, None)


def _decode_coalgebra(doc) -> FinDimCoalgebra:
    if _require(doc, "type", str) != "coalgebra":
        raise SchemaMismatchError("expected a coalgebra document")
    field = _field_in(doc)
    dim, labels = _basis_in(doc)
    comul = [()] * dim
    for r, terms in groupby(_entries_in(field, doc, "comul", dim), itemgetter(0)):
        comul[r] = tuple([(i, j, c) for _, i, j, c in terms])
    counit = _scalars_in(field, _require(doc, "counit", list), dim)
    coalg = object.__new__(FinDimCoalgebra)
    coalg._store(field, tuple(labels), tuple(comul), counit)
    return coalg


def _decode_matrix(doc) -> Matrix:
    field = _field_in(doc)
    rows = _require(doc, "rows", int)
    cols = _require(doc, "cols", int)
    if rows < 0 or cols < 0:
        raise SchemaMismatchError(f"matrix shape {rows}x{cols} has a negative dim")
    ent = _scalars_in(field, _require(doc, "entries", list), rows * cols)
    return Matrix(field, rows, cols, ent)


_JSON_BLOCK = 512
# the top-level keys whose entries `to_canonical_json` writes as text
_TEXT_KEYS = ("mul", "comul", "fibers")


def to_canonical_json(value) -> str:
    """Byte-deterministic serialization (sorted keys, fixed separators).

    The bytes are those of one ``json.dumps(encode(value), sort_keys=True,
    separators=(",", ":"))`` call, or of that call on `value` itself when it
    is a document with string keys.  The entries of an algebra's `mul` and
    a coalgebra's `comul`, at the top level and in a bialgebra, are written
    straight from the table as ``[a,b,c,x]`` text (`_entry_text`), with no
    list per entry, and a census report's fibers straight from its records
    (`_fiber_texts`), with no dict per fiber.  Every other top-level list
    is serialized `_JSON_BLOCK` items at a time: json.dumps holds a string
    object for every token until it joins them, about 20 bytes per output
    byte.
    """
    with span("codec.to_canonical_json", type=type(value).__name__) as write:
        if isinstance(value, dict):
            doc, texts = value, ()
        else:
            doc, texts = _doc(value, True), _TEXT_KEYS
        parts = []
        for key in sorted(doc):
            val = doc[key]
            if key in texts:
                parts.append(f"{_dumps(key)}:[{','.join(val)}]")
            elif isinstance(val, list):
                blocks = (_dumps(val[k:k + _JSON_BLOCK])[1:-1] for k in range(0, len(val), _JSON_BLOCK))
                parts.append(f"{_dumps(key)}:[{','.join(blocks)}]")
            else:
                parts.append(f"{_dumps(key)}:{_dumps(val)}")
        text = "{" + ",".join(parts) + "}\n"
        write["bytes"] = len(text)
    return text


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def loads(text: str):
    with span("codec.loads", chars=len(text)):
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise SchemaMismatchError(f"malformed JSON: {exc}") from exc
        return decode(doc)


def codec_roundtrip(value):
    """decode(encode(v)); equality with v is the round-trip contract."""
    return decode(json.loads(to_canonical_json(value)))


def census_to_csv(report: CensusReport) -> str:
    """One row per fiber for external plotting."""
    lines = ["n,p,c,d,azumaya,radical_dim,factors"]
    for f in report.fibers:
        factors = ";".join(f"{d}x{cd}" for d, cd in f.profile.factors)
        lines.append(
            f"{report.n},{report.p},{int(f.c)},{int(f.d)},"
            f"{int(f.azumaya)},{f.profile.radical_dim},{factors}"
        )
    return "\n".join(lines) + "\n"
