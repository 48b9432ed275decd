"""Value semantics of the package's public records.

Every record prints, compares and hashes as the tuple of its fields, and
none can be assigned to.  Sets, dict keys and report orders across the
package rely on the hash being exactly that of the field tuple.
"""

import copy
import pickle
import re

import pytest

from blowup_collections.enumeration import EnumerationReport
from blowup_collections.families import TypeLabel
from blowup_collections.geometry import H_CLASS, ZERO_CLASS, DivisorClass, VarietyModel
from blowup_collections.sequences import Collection
from blowup_collections.tables import CellCondition, PairTable
from blowup_collections.vanishing import LineBundleFamily
from blowup_collections.verify import CheckResult

LABEL_TEXT = "TypeLabel(variety='point', index=1, params=(3,))"

# (record class, fields in declaration order, expected repr)
RECORDS = [
    (
        VarietyModel,
        {"tag": "point", "triple_numbers": (1, 0, 0, 1),
         "canonical": DivisorClass(-4, 2), "c2": (6, 0)},
        "VarietyModel(tag='point', triple_numbers=(1, 0, 0, 1), "
        "canonical=DivisorClass(a=-4, b=2), c2=(6, 0))",
    ),
    (
        Collection,
        {"variety": "line", "entries": (ZERO_CLASS, H_CLASS)},
        "Collection(variety='line', entries=(DivisorClass(a=0, b=0), "
        "DivisorClass(a=1, b=0)))",
    ),
    (LineBundleFamily,
     {"label": "B0", "kind": "parameterized", "base": DivisorClass(0, 1),
      "direction": DivisorClass(1, -1), "param_name": "a"},
     "LineBundleFamily(label='B0', kind='parameterized', base=DivisorClass(a=0, b=1), "
     "direction=DivisorClass(a=1, b=-1), param_name='a')"),
    (TypeLabel, {"variety": "point", "index": 1, "params": (3,)}, LABEL_TEXT),
    (CellCondition, {"kind": "diff_in", "values": (1, 2)},
     "CellCondition(kind='diff_in', values=(1, 2))"),
    (PairTable,
     {"variety": "point", "labels": ("B1",), "cells": ((CellCondition("always"),),)},
     "PairTable(variety='point', labels=('B1',), "
     "cells=((CellCondition(kind='always', values=()),),))"),
    (EnumerationReport,
     {"variety": "cubic", "window": 10, "confirmed": (), "undetermined": (),
      "unmatched": ()},
     "EnumerationReport(variety='cubic', window=10, confirmed=(), undetermined=(), "
     "unmatched=())"),
    (CheckResult, {"name": "demo", "ok": False, "summary": "broken", "details": ("why",)},
     "CheckResult(name='demo', ok=False, summary='broken', details=('why',))"),
]


@pytest.mark.parametrize(
    "cls,fields,text", RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS]
)
def test_record_value_semantics(cls, fields, text):
    record = cls(**fields)
    assert repr(record) == text
    twin = cls(*fields.values())
    assert twin == record and twin is not record
    assert not (twin != record)
    assert hash(record) == hash(twin) == hash(tuple(fields.values()))
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert tuple(getattr(record, name) for name in fields) == tuple(fields.values())
    assert copy.deepcopy(record) == pickle.loads(pickle.dumps(record)) == record


def test_record_defaults():
    assert TypeLabel("point", 4) == TypeLabel("point", 4, ())
    assert CellCondition("never") == CellCondition("never", ())
    assert CheckResult("demo", True, "fine").details == ()
    assert LineBundleFamily("B9", "undecided") == LineBundleFamily(
        "B9", "undecided", ZERO_CLASS, ZERO_CLASS, ""
    )


def test_collections_and_type_labels_sort_by_their_fields():
    def seq(variety, *pairs):
        return Collection(variety, tuple(DivisorClass(a, b) for a, b in pairs))

    collections = [seq("point", (0, 0), (1, 0)), seq("line", (0, 0), (2, -1)),
                   seq("point", (0, 0)), seq("line", (0, 0), (1, 5))]
    assert sorted(collections) == [collections[3], collections[1],
                                   collections[2], collections[0]]
    assert collections[2] < collections[0] <= collections[0]
    assert collections[0] > collections[3] >= collections[3]
    labels = [TypeLabel("point", 2, (1,)), TypeLabel("line", 1, (0, 5)),
              TypeLabel("point", 2, (-1,)), TypeLabel("point", 10)]
    assert sorted(labels) == [labels[1], labels[2], labels[0], labels[3]]
    assert len(collections[0].entries) == 2 and list(collections[0].entries) == [ZERO_CLASS, H_CLASS]


@pytest.mark.parametrize("build,message", [
    (lambda: Collection("plane", (ZERO_CLASS,)), "unknown variety tag 'plane'"),
    (lambda: Collection("point", ()), "a collection holds between 1 and 6 entries, got 0"),
    (lambda: Collection("point", (ZERO_CLASS,) * 7),
     "a collection holds between 1 and 6 entries, got 7"),
    (lambda: Collection("point", ((0, 0),)), "collection entries must be DivisorClass instances"),
    (lambda: CellCondition("sometimes"), "unknown cell kind 'sometimes'"),
    (lambda: CellCondition("always", (1,)), "cell kind 'always' carries no values"),
    (lambda: CellCondition("row_in"), "cell kind 'row_in' needs admissible values"),
])
def test_record_validation_messages(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()
