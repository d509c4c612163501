"""The package's value classes are plain classes on records.Record.  Each
keeps what it had as a dataclass: the constructor, the repr text (the
literals below were recorded from the dataclass versions), == with a
class-identity check, hash over the compared fields or none, the
immutability, and one __post_init__ call per construction, which
FrozenRecord._init makes.  The one exception is FusionOrbitSet's
constructor, which takes runs since orbit sets store them; its repr, ==
and hash still read the rows.
GroupElement, never a dataclass, keeps its own repr, which shows the
element as a word.  The CLI's import path loads neither dataclasses nor
the modules it would pull in."""

from __future__ import annotations

import inspect
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import udrfusion
from udrfusion import (
    AbelianParams,
    CharacterPair,
    CohomologyDims,
    DihedralParams,
    FpMatrix,
    FusionNumbers,
    FusionOrbit,
    FusionOrbitSet,
    GModule,
    GroupElement,
    Rep2,
    RepLabel,
    UdrClass,
    UdrSignature,
    VerificationReport,
    deformation,
    fusion,
)
from udrfusion.fusion import SweepPointSets


def _images(v):
    return [v]


def _other_images(v):
    return [v, v]


_E3 = GroupElement(3, 0)
_ORBIT_ROWS = (((0, 0), 1, 2, ()), ((0, 1), 2, 1, (_E3,)))
# the same two orbits as runs (x, ys, size, stabilizer order, generators)
_ORBIT_RUNS = ((0, (0,), 1, 2, ()), (0, (1,), 2, 1, (_E3,)))
# the point codes x*p + y of its two orbits at p = 3
_POINT_SETS = SweepPointSets((frozenset({0}), frozenset({1, 2})))
_D3 = DihedralParams(3, 7, 2)
_A23 = AbelianParams((2, 3), 7)
# Rep2 stores its matrices as 2x2 tuples of residues, reduced mod p
_ROT, _REF = ((9, 0), (0, -3)), [[0, 8], [1, 0]]
_ROT_REDUCED, _REF_REDUCED = ((2, 0), (0, 4)), ((0, 1), (1, 0))
_ONE, _MINUS = FpMatrix(7, ((1,),)), FpMatrix(7, ((6,),))

# class, constructor arguments, the same with one compared field changed,
# the values == compares (and hash hashes), and the dataclass repr
RECORDS = [
    (DihedralParams, (5, 11, 3), (5, 11, 4), (5, 11, 3), "DihedralParams(n=5, p=11, omega=3)"),
    (RepLabel, ("irr2", 2), ("ind", 2), ("irr2", 2), "RepLabel(kind='irr2', index=2)"),
    (RepLabel, ("triv",), ("sign",), ("triv", 0), "RepLabel(kind='triv', index=0)"),
    (
        Rep2,
        (_D3, RepLabel("irr2", 1), _ROT, _REF),
        (_D3, RepLabel("ind", 1), _ROT, _REF),
        (_D3, RepLabel("irr2", 1), _ROT_REDUCED, _REF_REDUCED),
        "Rep2(params=DihedralParams(n=3, p=7, omega=2), label=RepLabel(kind='irr2', index=1), "
        "mat_r=((2, 0), (0, 4)), mat_s=((0, 1), (1, 0)))",
    ),
    (
        FusionOrbit,
        ((0, 1), 10, 1, (GroupElement(5, 0),), _images),
        ((0, 1), 10, 2, (GroupElement(5, 0),), _images),
        ((0, 1), 10, 1, (GroupElement(5, 0),)),
        "FusionOrbit(representative=(0, 1), size=10, stabilizer_order=1, "
        "stabilizer_gens=(GroupElement(n=5, 'e'),))",
    ),
    (
        FusionOrbitSet,
        (_ORBIT_RUNS, 3, _images, _POINT_SETS),
        (_ORBIT_RUNS[:1], 3, _images),
        (_ORBIT_ROWS, 3),
        "FusionOrbitSet(rows=(((0, 0), 1, 2, ()), ((0, 1), 2, 1, (GroupElement(n=3, 'e'),))), p=3)",
    ),
    (FusionNumbers, ({1: 1, 5: 10},), ({1: 1, 5: 9},), ({1: 1, 5: 10},),
     "FusionNumbers(counts={1: 1, 5: 10})"),
    (
        GModule,
        (3, 7, 1, _ONE, _MINUS),
        (3, 7, 1, _ONE, _ONE),
        (3, 7, 1, _ONE, _MINUS),
        "GModule(n=3, p=7, dim=1, mat_r=FpMatrix(p=7, [[1]]), mat_s=FpMatrix(p=7, [[6]]))",
    ),
    (CohomologyDims, (1, 2), (1, 1), (1, 2), "CohomologyDims(d1=1, d2=2)"),
    (
        UdrSignature,
        ({1: UdrClass.ZP, 2: UdrClass.ZP_T_TORSION},),
        ({1: UdrClass.ZP, 2: UdrClass.ZP},),
        ({1: UdrClass.ZP, 2: UdrClass.ZP_T_TORSION},),
        "UdrSignature(per_rep={1: <UdrClass.ZP: 'Zp'>, 2: <UdrClass.ZP_T_TORSION: 'ZpTtorsion'>})",
    ),
    (
        VerificationReport,
        ("x", (1, 2), True),
        ("x", (1, 2), False),
        ("x", (1, 2), True, None),
        "VerificationReport(check_name='x', parameters=(1, 2), passed=True, witness=None)",
    ),
    (
        VerificationReport,
        ("y", (3,), False, frozenset({1})),
        ("y", (3,), False, frozenset({2})),
        ("y", (3,), False, frozenset({1})),
        "VerificationReport(check_name='y', parameters=(3,), passed=False, witness=frozenset({1}))",
    ),
    (AbelianParams, (("2", 3.0), 7), ((2, 3), 13), ((2, 3), 7),
     "AbelianParams(cyclic_orders=(2, 3), p=7)"),
    (
        CharacterPair,
        (_A23, (-1, 9), (1, 4)),
        (_A23, (6, 2), (1, 2)),
        (_A23, (6, 2), (1, 4)),
        "CharacterPair(params=AbelianParams(cyclic_orders=(2, 3), p=7), theta1=(6, 2), "
        "theta2=(1, 4))",
    ),
    # rot and flip are stored reduced, and the repr shows the word
    (GroupElement, (5, 7, 3), (5, 3, 1), (5, 2, 1), "GroupElement(n=5, 's r^2')"),
]
_IDS = [f"{cls.__name__}-{pos}" for pos, (cls, *_rest) in enumerate(RECORDS)]
EQ_ONLY = (FusionNumbers, UdrSignature)
WITH_POST_INIT = (DihedralParams, FusionOrbit, GModule, AbelianParams, CharacterPair)

# the dataclass constructors' parameters: name, or (name, default)
SIGNATURES = {
    DihedralParams: ["n", "p", "omega"],
    RepLabel: ["kind", ("index", 0)],
    Rep2: ["params", "label", "mat_r", "mat_s"],
    FusionOrbit: ["representative", "size", "stabilizer_order", "stabilizer_gens", "images"],
    FusionOrbitSet: ["runs", "p", "images", ("point_sets", None)],
    FusionNumbers: ["counts"],
    GModule: ["n", "p", "dim", "mat_r", "mat_s"],
    CohomologyDims: ["d1", "d2"],
    GroupElement: ["n", "rot", ("flip", 0)],
    UdrSignature: ["per_rep"],
    VerificationReport: ["check_name", "parameters", "passed", ("witness", None)],
    AbelianParams: ["cyclic_orders", "p"],
    CharacterPair: ["params", "theta1", "theta2"],
}


@pytest.mark.parametrize("cls, args, changed, values, text", RECORDS, ids=_IDS)
def test_repr_matches_the_dataclass_text(cls, args, changed, values, text):
    assert repr(cls(*args)) == text


@pytest.mark.parametrize("cls, params", SIGNATURES.items(), ids=[c.__name__ for c in SIGNATURES])
def test_constructor_signature_is_unchanged(cls, params):
    found = [
        p.name if p.default is p.empty else (p.name, p.default)
        for p in inspect.signature(cls).parameters.values()
    ]
    assert found == params
    kinds = {p.kind for p in inspect.signature(cls).parameters.values()}
    assert kinds == {inspect.Parameter.POSITIONAL_OR_KEYWORD}


def test_keyword_construction_and_defaults():
    assert DihedralParams(omega=3, p=11, n=5) == DihedralParams(5, 11, 3)
    assert RepLabel("triv").index == 0
    assert VerificationReport("x", (), True).witness is None
    assert FusionOrbitSet((), 3, _images).point_sets is None
    assert CharacterPair(params=_A23, theta2=(1, 4), theta1=(6, 2)).theta1 == (6, 2)


@pytest.mark.parametrize("cls, args, changed, values, text", RECORDS, ids=_IDS)
def test_equality_within_a_class(cls, args, changed, values, text):
    first, second, other = cls(*args), cls(*args), cls(*changed)
    assert first is not second
    assert first == second and not first != second
    assert first != other and not first == other
    # a subclass instance with the same fields is not equal, either way
    sub = type("Sub", (cls,), {})(*args)
    assert first != sub and sub != first
    assert first != values and first != tuple(values)


def test_equality_across_classes():
    objects = [cls(*args) for cls, args, *_ in RECORDS]
    for a_pos, a in enumerate(objects):
        for b_pos, b in enumerate(objects):
            if a_pos != b_pos:
                assert a != b and not a == b
    # equal field values in two classes still differ: (1, 2) in both
    assert CohomologyDims(1, 2) != RepLabel(1, 2)


def test_excluded_fields_stay_out_of_repr_and_equality():
    orbit = FusionOrbit((0, 1), 2, 1, (), _images)
    assert orbit == FusionOrbit((0, 1), 2, 1, (), _other_images)
    assert hash(orbit) == hash(FusionOrbit((0, 1), 2, 1, (), _other_images))
    whole = FusionOrbitSet(_ORBIT_RUNS, 3, _images, _POINT_SETS)
    bare = FusionOrbitSet(_ORBIT_RUNS, 3, _other_images)
    assert whole == bare and hash(whole) == hash(bare) and repr(whole) == repr(bare)
    assert "images" not in repr(orbit) and "point_sets" not in repr(whole)


@pytest.mark.parametrize("cls, args, changed, values, text", RECORDS, ids=_IDS)
def test_hash_is_the_dataclass_hash_or_none(cls, args, changed, values, text):
    obj = cls(*args)
    if cls in EQ_ONLY:
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == hash(tuple(values))


def test_dihedral_params_key_a_cache():
    assert hash(DihedralParams(5, 11, 3)) == hash((5, 11, 3))
    assert len({DihedralParams(5, 11, 3), DihedralParams(5, 11, 14), DihedralParams(5, 11, 4)}) == 2


def test_orbit_set_point_sets_are_a_sweeps_or_none():
    """An orbit set keeps the point_sets it is given; their one reader,
    check_orbit_closed_form, refuses all but a sweep's SweepPointSets:
    None, and a plain tuple of the same frozensets."""
    assert FusionOrbitSet(_ORBIT_RUNS, 3, _images, _POINT_SETS).point_sets is _POINT_SETS
    params = DihedralParams.standard(3)
    brute = fusion.fusion_orbits_bruteforce(params, 1)
    assert type(brute.point_sets) is SweepPointSets
    assert deformation.check_orbit_closed_form(params, 1, brute).passed
    for point_sets, name in ((None, "NoneType"), (tuple(brute.point_sets), "tuple")):
        unswept = FusionOrbitSet.from_rows(brute.rows, brute.p, brute.images, point_sets)
        assert unswept.point_sets is point_sets
        with pytest.raises(ValueError, match=f"SweepPointSets, got {name}$"):
            deformation.check_orbit_closed_form(params, 1, unswept)


@pytest.mark.parametrize("cls, args, changed, values, text", RECORDS, ids=_IDS)
def test_frozen_records_refuse_assignment(cls, args, changed, values, text):
    obj = cls(*args)
    name = SIGNATURES[cls][0]
    if cls in EQ_ONLY:
        setattr(obj, name, changed[0])
        assert obj == cls(*changed)
        return
    with pytest.raises(AttributeError):
        setattr(obj, name, changed[0])
    with pytest.raises(AttributeError):
        delattr(obj, name)
    assert obj == cls(*args)


@pytest.mark.parametrize("cls", WITH_POST_INIT, ids=[c.__name__ for c in WITH_POST_INIT])
def test_post_init_runs_once_per_construction(cls, monkeypatch):
    assert "__post_init__" in vars(cls)
    calls = Counter()
    real = cls.__post_init__

    def counting(self):
        calls[cls] += 1
        real(self)

    monkeypatch.setattr(cls, "__post_init__", counting)
    made = [cls(*args) for c, args, *_ in RECORDS if c is cls]
    made += [cls(*changed) for c, _, changed, *_ in RECORDS if c is cls]
    assert calls[cls] == len(made) == 2


def test_post_init_checks_keep_their_messages():
    cases = [
        (lambda: DihedralParams(2, 7, 1), "need n >= 3"),
        (lambda: DihedralParams(5, 15, 3), "15 is not an odd prime"),
        (lambda: DihedralParams(5, 13, 3), "13 is not 1 mod 5"),
        (lambda: DihedralParams(5, 11, 1), "1 does not have order 5 mod 11"),
        (lambda: AbelianParams((2, 3), 5), "group exponent 6 does not divide p - 1 = 4"),
        (lambda: AbelianParams((0, 3), 7), "cyclic orders must be positive integers"),
        (lambda: AbelianParams((3,), 3), "3 divides the group order 3"),
        (lambda: CharacterPair(_A23, (6,), (1, 4)), "theta1 needs one image per cyclic factor"),
        (lambda: CharacterPair(_A23, (6, 2), (5, 4)),
         "theta2 image 5 does not have order dividing 2 mod 7"),
        (lambda: FusionOrbit((0, 0), 0, 1, (), _images),
         "orbit and stabilizer sizes must be positive"),
        (lambda: GModule(3, 7, 1, _MINUS, _ONE), "rotation matrix does not have order dividing n"),
    ]
    for make, message in cases:
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == message
    assert DihedralParams(5, 11, 14).omega == 3


def test_init_refuses_a_wrong_number_of_values():
    for values in ((1,), (1, 2, 3)):
        with pytest.raises(ValueError):
            object.__new__(CohomologyDims)._init(*values)


WITHOUT_POST_INIT = (RepLabel, Rep2, GroupElement, CohomologyDims, VerificationReport)


def test_init_stores_the_fields_in_order():
    """Records without checks, whose stored values nothing normalises
    after _init (GroupElement reduces rot and flip before it, and Rep2
    its matrices)."""
    cases = [
        (cls, args, values) for cls, args, _, values, _ in RECORDS if cls in WITHOUT_POST_INIT
    ]
    assert {cls for cls, *_ in cases} == set(WITHOUT_POST_INIT)
    for cls, args, values in cases:
        obj = cls(*args)
        assert tuple(getattr(obj, f) for f in cls._fields) == values


def test_cli_import_loads_no_dataclasses():
    """A fresh interpreter imports the CLI; site's own imports are
    subtracted by comparing sys.modules before and after."""
    code = (
        "import sys; before = set(sys.modules); import udrfusion, udrfusion.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    src = str(Path(udrfusion.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "udrfusion.cli" in loaded
    assert loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"} == set()
