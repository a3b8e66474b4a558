"""The package's immutable values: slotted classes on graph._Record.

Each record is built positionally or by keyword, rejects a missing, extra,
unknown or repeated field, is equal exactly to a record of its own class
with equal fields (and then hashes alike), cannot be assigned or deleted,
and survives copy and pickle.  RECORDS gives each class two field tuples
that differ in every field; VALUES adds Graph, which takes the same
equality, immutability and copy tests but validates its own arguments.
"""

import copy
import pickle
import weakref

import pytest

from wellcovered.families import (ScsComposition, ScsSpec, SierpinskiGraph,
                                  complete, cycle, path, star)
from wellcovered.graph import Graph, SimplicialReport, _Record
from wellcovered.harness import Verdict
from wellcovered.linalg import FieldSpec, QQ
from wellcovered.mis import MisList, SccgCountBreakdown, SharedCliqueMisCount
from wellcovered.wcspace import WcSpace

K3, P4 = complete(3), path(4)
F01, F12 = frozenset({0, 1}), frozenset({1, 2})

# class -> (field names, fields, other fields differing from them in each)
RECORDS = {
    SimplicialReport: (
        ("simplicial_vertices", "cliques", "connection_set"),
        (frozenset({0, 3}), (F01, frozenset({2, 3})), frozenset()),
        (frozenset({0}), (F01,), frozenset({1}))),
    FieldSpec: (("p",), (3,), (None,)),
    MisList: (("graph", "sets"),
              (cycle(4), ((0, 2), (1, 3))), (P4, ((0, 2), (0, 3), (1, 3)))),
    SccgCountBreakdown: (("i_count", "product_term", "sum_term", "total"),
                         (1, 2, 3, 6), (0, 4, 5, 9)),
    SharedCliqueMisCount: (("total", "per_vertex"),
                           (5, ((0, 1, 2), (1, 1, 3))), (4, ((0, 2, 2),))),
    WcSpace: (("graph", "field", "basis", "mis_count"),
              (K3, QQ, ((1, 1, 1),), 3),
              (P4, FieldSpec(2), ((1, 0, 0, 1), (0, 1, 1, 0)), 4)),
    SierpinskiGraph: (("order", "graph", "corners", "corner_cliques"),
                      (1, K3, (0, 1, 2), (frozenset(range(3)),) * 3),
                      (2, star(3), (0, 2, 1), (F01, F12, F01))),
    ScsSpec: (("g1", "g2", "glue"),
              (K3, K3, ((0, 0), (1, 1))), (P4, star(3), ((1, 0),))),
    ScsComposition: (("graph", "shared", "g2_to_composite"),
                     (P4, F12, (1, 2, 3)), (K3, F01, (0, 1))),
    Verdict: (("check_id", "graph_ids", "status", "details", "witness"),
              ("lower_bound", ("k3",), "holds", {"sc": 1}, None),
              ("mis_count", ("p4", "c4"), "fails", {}, {"set": [0]})),
}

VALUES = {**RECORDS, Graph: (("n", "edges"), (3, ((0, 1), (1, 2))),
                             (4, ((0, 1), (0, 2), (0, 3))))}


def _args(cls, values):
    # ScsSpec takes its glue as a mapping and stores it as sorted pairs
    if cls is ScsSpec:
        return values[:2] + (dict(values[2]),)
    return values


def _make(cls, values):
    return cls(*_args(cls, copy.deepcopy(values)))


def _unchecked(cls, values):
    """A value of cls with these fields, bound by the record binder alone.
    A graph's vertex count follows from its edges, so no valid Graph
    differs from another in one field only."""
    rec = object.__new__(cls)
    _Record.__init__(rec, *values)
    return rec


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_positional_and_keyword_construction_agree(cls):
    names, values, _ = RECORDS[cls]
    assert cls.__slots__ == names
    by_position = cls(*_args(cls, values))
    by_keyword = cls(**dict(zip(names, _args(cls, values))))
    for rec in (by_position, by_keyword):
        assert tuple(getattr(rec, name) for name in names) == values
    assert by_position == by_keyword


def test_defaults():
    assert FieldSpec().p is None and FieldSpec() == QQ
    first = Verdict("lower_bound", ("k3",), "holds")
    second = Verdict(check_id="lower_bound", graph_ids=("k3",),
                     status="holds")
    assert first.details == {} and first.witness is None
    assert first == second and first.details is not second.details
    assert Verdict("c", (), "holds", None).details == {}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_a_missing_extra_unknown_or_repeated_field_is_a_type_error(cls):
    names, values, _ = RECORDS[cls]
    args = _args(cls, values)
    calls = {"extra": lambda: cls(*args, args[0]),
             "unknown": lambda: cls(*args, unknown=None),
             "unknown keyword": lambda: cls(**dict(zip(names, args)),
                                            unknown=None),
             "repeated": lambda: cls(*args, **{names[-1]: args[-1]}),
             "repeated first": lambda: cls(*args[:1], **{names[0]: args[0]})}
    if cls is not FieldSpec:  # its one field defaults to the rationals
        calls["missing"] = lambda: cls(**dict(zip(names[1:], args[1:])))
    for case, call in calls.items():
        try:
            call()
        except TypeError:
            continue
        pytest.fail(f"{case} field: no TypeError")


@pytest.mark.parametrize("cls", VALUES, ids=lambda c: c.__name__)
def test_equal_fields_give_equal_records_and_hashes(cls):
    _, values, _ = VALUES[cls]
    a, b = _make(cls, values), _make(cls, values)
    assert a is not b and a == b and not a != b
    if cls is Verdict:
        # details is a dict, so a Verdict has no hash, as before
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1


@pytest.mark.parametrize("cls", VALUES, ids=lambda c: c.__name__)
def test_records_differing_in_one_field_are_unequal(cls):
    names, values, other = VALUES[cls]
    base = _make(cls, values)
    make = _unchecked if cls is Graph else _make
    for i, name in enumerate(names):
        changed = values[:i] + (other[i],) + values[i + 1:]
        assert base != make(cls, changed), name
        assert not base == make(cls, changed), name


def test_records_of_different_classes_are_never_equal():
    records = [_make(cls, values) for cls, (_, values, _) in VALUES.items()]
    for i, a in enumerate(records):
        _, values, _ = VALUES[type(a)]
        assert a != values and a != list(values)
        for b in records[i + 1:]:
            assert a != b and b != a


@pytest.mark.parametrize("cls", VALUES, ids=lambda c: c.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    names, values, other = VALUES[cls]
    rec = _make(cls, values)
    for name, value in zip(names, other):
        with pytest.raises(AttributeError):
            setattr(rec, name, value)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert rec == _make(cls, values)


@pytest.mark.parametrize("cls", VALUES, ids=lambda c: c.__name__)
def test_copy_and_pickle_give_an_equal_record(cls):
    _, values, _ = VALUES[cls]
    rec = _make(cls, values)
    copies = [copy.copy(rec), copy.deepcopy(rec)]
    copies += [pickle.loads(pickle.dumps(rec, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in copies:
        assert type(twin) is cls and twin == rec
    assert copies[1] is not rec


@pytest.mark.parametrize("cls", VALUES, ids=lambda c: c.__name__)
def test_records_take_weak_references(cls):
    _, values, _ = VALUES[cls]
    rec = _make(cls, values)
    assert weakref.ref(rec)() is rec


def test_graph_slots_cannot_be_deleted():
    g = cycle(4)
    masks = g._masks
    for name in ("n", "edges", "_masks", "_hash", "_simplicial"):
        with pytest.raises(AttributeError, match="^Graph is immutable$"):
            delattr(g, name)
    assert (g.n, g.edges, g._masks) == (4, cycle(4).edges, masks)
    assert repr(g) == "Graph(n=4, edges=4)"


def test_repr_names_every_field():
    assert repr(FieldSpec(5)) == "FieldSpec(p=5)"
    assert repr(SccgCountBreakdown(1, 2, 3, 6)) == \
        "SccgCountBreakdown(i_count=1, product_term=2, sum_term=3, total=6)"
    assert repr(ScsSpec(K3, K3, {1: 1, 0: 0})) == \
        "ScsSpec(g1=Graph(n=3, edges=3), g2=Graph(n=3, edges=3), " \
        "glue=((0, 0), (1, 1)))"


def test_field_spec_keeps_its_validation_errors():
    for p, message in ((1, "prime modulus out of range: 1"),
                       (0, "prime modulus out of range: 0"),
                       (2**61 + 1, f"prime modulus out of range: {2**61 + 1}"),
                       (91, "91 is not prime")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            FieldSpec(p)
    assert FieldSpec(2**61 - 1).p == 2**61 - 1
