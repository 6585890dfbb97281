"""The contract of the package's 17 records: how `cli`, `bench/` and the tests build them,
what they compare, which ones are read-only and hashable, and that they pickle."""

from __future__ import annotations

import inspect
import pickle
from functools import lru_cache

import pytest

from twistfield import gf
from twistfield.algebra3 import Algebra3, TwistedFieldSpec, to_structure_constants
from twistfield.engine import census, normalform, spaces, verify
from twistfield.linalg import Subspace
from twistfield.splitalbert import (BilinearIso, SplitAlbertSpec, SplitTwistedField, TriVector,
                                    cyclic_isomorphism, split_twisted_field)

ID2 = "((1, 0), (0, 1))"
# record -> (its constructor's signature, the fields equality skips or None when it has no
# value equality, read-only and hashable)
RECORDS = {
    gf.FieldSpec: ("p m modulus", (), True),
    gf.FieldTower: ("base ext f frob_t norm_t", (), False),
    TwistedFieldSpec: ("tower c=0", ("tower",), True),
    Algebra3: ("field tensor=()", ("field",), True),
    Subspace: ("field ambient=0 basis=()", ("field",), True),
    SplitAlbertSpec: ("field d=(1, 1, 1)", ("field", "tensor"), True),
    TriVector: ("space coords", (), True),
    BilinearIso: ("src dst f g h", (), True),
    SplitTwistedField: ("tower c=0 c_conj=(0, 0, 0) spec=None", ("tower",), True),
    census.SpaceRec: ("rows pivots kind fiber rep first_index", (), False),
    census.AvInventory: ("alg key fiber first kind space_of division totals mode",
                        ("space_of", "division", "totals"), False),
    census.CertifiedTables: ("alg cls plane_alg mode division totals covered", (), False),
    census.CensusReport: ("parameters observed predicted match witnesses=None runtime_ms=0.0",
                          None, False),
    census.Meet: ("gens reached mult vectors spaces hits", (), False),
    normalform.PairNormalForm: (f"field tag='' params=() rep=() p_mat={ID2} q_mat={ID2}",
                                ("field",), True),
    spaces.PairVector: ("x y", (), True),
    verify.Verdict: ("name passed checked witnesses=None details=None runtime_ms=0.0",
                     None, False),
}


@lru_cache(maxsize=None)
def example(cls):
    """One record of each kind, at q = 3 (q = 5 for the split Albert records)."""
    tower = gf.FieldTower.build(3)
    spec = TwistedFieldSpec(tower, 2)
    f5 = gf.Field.of_order(5)
    v = spaces.PairVector((1, 0, 0), (0, 1, 0))
    return {
        gf.FieldSpec: lambda: gf.default_field_spec(9),
        gf.FieldTower: lambda: tower,
        TwistedFieldSpec: lambda: spec,
        Algebra3: lambda: to_structure_constants(spec),
        Subspace: lambda: Subspace(tower.base, 6, ((1, 0, 0, 0, 1, 2),)),
        SplitAlbertSpec: lambda: SplitAlbertSpec(f5, (1, 2, 3)),
        TriVector: lambda: TriVector("U", (1, 2, 0)),
        BilinearIso: lambda: cyclic_isomorphism(SplitAlbertSpec(f5, (1, 2, 3)))[1],
        SplitTwistedField: lambda: split_twisted_field(spec),
        census.SpaceRec: lambda: census.build_inventory(example(Algebra3)).spaces[0],
        census.AvInventory: lambda: census.build_inventory(example(Algebra3)),
        census.CertifiedTables: lambda: census.certified_tables(spec),
        census.CensusReport: lambda: census.per_vector_profile(example(Algebra3), v),
        census.Meet: lambda: census.meet_all(example(census.CertifiedTables), v),
        normalform.PairNormalForm: lambda: normalform.pair_normal_form(
            tower.base, ((1, 2), (0, 1)), ((0, 1), (1, 0))),
        spaces.PairVector: lambda: v,
        verify.Verdict: lambda: verify.Verdict("theorem-A", True, 3, [{"v": 1}], {"q": 3}),
    }[cls]()


def signature(cls) -> str:
    return " ".join(p.name if p.default is p.empty else f"{p.name}={p.default!r}"
                    for p in inspect.signature(cls).parameters.values())


def fields(cls) -> list[str]:
    return list(inspect.signature(cls).parameters)


def values(rec) -> str:
    """Every field of `rec`, in order, as text: a `Field` shows as GF(q), so a copy that
    pickling made reads the same."""
    return repr([getattr(rec, name) for name in fields(type(rec))])


def stand_in(value):
    """A field or tower like `value` but built apart from it, or None."""
    if isinstance(value, gf.Field):
        return gf.Field.of_order(value.order)
    if isinstance(value, gf.FieldTower):
        return gf.FieldTower.build(value.q, value.f)
    return None


RECORD_IDS = [cls.__name__ for cls in RECORDS]


@pytest.mark.parametrize("cls", RECORDS, ids=RECORD_IDS)
def test_record_contract(cls):
    sig, skipped, frozen = RECORDS[cls]
    rec = example(cls)
    assert type(rec) is cls and signature(cls) == sig
    args = [getattr(rec, name) for name in fields(cls)]
    by_position, by_keyword = cls(*args), cls(**dict(zip(fields(cls), args)))
    assert values(by_position) == values(by_keyword) == values(rec)

    required = [p for p in inspect.signature(cls).parameters.values() if p.default is p.empty]
    bare = [cls(*args[:len(required)]) for _ in range(2)] if "witnesses=None" in sig else []
    for a, b in zip(bare, bare[1:]):  # a default list or dict is fresh on each call
        for name in {"witnesses", "details"} & set(vars(a)):
            assert getattr(a, name) in ([], {}) and getattr(a, name) is not getattr(b, name)

    if skipped is not None:
        twin = cls(*(stand_in(a) if name in skipped else a for name, a in zip(fields(cls), args)))
        assert twin == rec and not twin != rec
        for name in cls._fields:
            other = rec._replace(**{name: stand_in(getattr(rec, name))})
            assert (other == rec) == (name in skipped), name
        if frozen:
            assert hash(twin) == hash(rec)

    if frozen:
        with pytest.raises(AttributeError):
            setattr(rec, fields(cls)[0], None)
        with pytest.raises(AttributeError):
            rec.extra = None

    clone = pickle.loads(pickle.dumps(rec))
    assert type(clone) is cls and values(clone) == values(rec)


def test_split_albert_tensor_is_built_from_d_and_guards_stay():
    f5 = gf.Field.of_order(5)
    assert SplitAlbertSpec(f5).d == (1, 1, 1)
    assert pickle.loads(pickle.dumps(example(SplitAlbertSpec))).tensor == \
        example(SplitAlbertSpec).tensor
    with pytest.raises(ValueError, match="d0\\*d1\\*d2 = -1"):
        SplitAlbertSpec(f5, (1, 1, 4))
    with pytest.raises(ValueError, match="unknown space tag"):
        TriVector("X", (1, 2, 3))
    with pytest.raises(ValueError, match="three coordinates"):
        TriVector("U", [1, 2])
    assert TriVector("U", [1, 2, 3]).coords == (1, 2, 3)
