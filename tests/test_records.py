"""Value semantics of the frozen record classes: equality and hashing over
the declared fields, no assignment after construction, positional and
keyword construction, and validation with its exception types and
messages."""

import copy
import pickle
import re
from fractions import Fraction as F

import pytest

from sturmion.chain import SturmChain
from sturmion.families import (ChebyshevT, ChebyshevU, Hahn, QHahn, Racah,
                               Ultraspherical)
from sturmion.grids import GridSpec
from sturmion.harness import CheckReport
from sturmion.poly import Polynomial
from sturmion.scalars import DEFAULT_PRECISION
from sturmion.spectral import (JacobiMatrix, NonPositiveWeight, SpectralData,
                               generate_polys)

TOP, NEXT = Polynomial.from_roots([0, 1]), Polynomial.from_roots([F(1, 2)])

# (class, keyword arguments in field order, another valid value per field)
RECORDS = [
    (SturmChain, {"pair": (TOP, NEXT), "b": (F(1, 2), F(1, 2)),
                  "u": (F(1, 4),)},
     {"pair": (TOP * TOP, NEXT), "b": (F(0), F(1)), "u": (F(1),)}),
    (JacobiMatrix, {"b": (F(1), F(2)), "u": (F(3),)},
     {"b": (F(1), F(5)), "u": (F(1, 3),)}),
    (SpectralData, {"nodes": (F(0), F(1)), "weights": (F(1, 4), F(3, 4))},
     {"nodes": (F(0), F(2)), "weights": (F(1, 2), F(1, 2))}),
    (Hahn, {"alpha": F(0), "beta": F(0), "n_max": 2},
     {"alpha": F(1), "beta": F(1), "n_max": 3}),
    (Racah, {"beta": F(-5, 2), "gamma": F(1, 2), "delta": F(-1, 2),
             "n_max": 2},
     {"beta": F(-7, 2), "gamma": F(3, 2), "delta": F(1, 2), "n_max": 1}),
    (QHahn, {"a": F(1), "b": F(1), "q": F(1, 2), "n_max": 1},
     {"a": F(1, 2), "b": F(1, 2), "q": F(1, 3), "n_max": 2}),
    (ChebyshevT, {}, {}),
    (ChebyshevU, {}, {}),
    (Ultraspherical, {"lam": F(1)}, {"lam": F(2)}),
    (GridSpec, {"kind": "quadratic", "n": 3, "params": (F(1),),
                "precision": 128},
     {"kind": "linear", "n": 4, "params": (F(2),),
      "precision": 512}),
    (CheckReport, {"name": "c", "grid": "linear", "n_max": 2,
                   "status": "mismatch", "witness": ("b_0", F(1), F(2)),
                   "notes": ("n",)},
     {"name": "d", "grid": "trig1", "n_max": 3, "status": "exact_match",
      "witness": None, "notes": ()}),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, kw, alt", RECORDS, ids=IDS)
def test_equal_fields_give_equal_objects_and_hashes(cls, kw, alt):
    x, y = cls(**kw), cls(*kw.values())
    assert x == y and hash(x) == hash(y)
    assert x != object() and x != ()


@pytest.mark.parametrize("cls, kw, alt", RECORDS, ids=IDS)
def test_one_changed_field_makes_them_unequal(cls, kw, alt):
    x = cls(**kw)
    for name in kw:
        assert cls(**{**kw, name: alt[name]}) != x, name


@pytest.mark.parametrize("cls, kw, alt", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, kw, alt):
    x = cls(**kw)
    for name in kw:
        with pytest.raises(AttributeError):
            setattr(x, name, alt[name])
        with pytest.raises(AttributeError):
            delattr(x, name)
        assert getattr(x, name) == kw[name]


@pytest.mark.parametrize("cls, kw, alt", RECORDS, ids=IDS)
def test_repr_names_the_class_and_its_fields(cls, kw, alt):
    fields = ", ".join(f"{k}={v!r}" for k, v in kw.items())
    assert repr(cls(**kw)) == f"{cls.__name__}({fields})"


@pytest.mark.parametrize("cls, kw, alt", RECORDS, ids=IDS)
def test_pickle_and_deepcopy_keep_the_value(cls, kw, alt):
    x = cls(**kw)
    assert pickle.loads(pickle.dumps(x)) == x == copy.deepcopy(x)


def test_defaults():
    assert GridSpec("linear", 3) == GridSpec("linear", 3, (),
                                             DEFAULT_PRECISION)
    report = CheckReport(name="c", grid="g", n_max=1, status="skipped")
    assert (report.witness, report.notes) == (None, ())


@pytest.mark.parametrize("cls, kw", [
    (Hahn, {"alpha": 0, "beta": 1}),
    (Racah, {"beta": -2, "gamma": 1, "delta": 0}),
    (QHahn, {"a": 1, "b": 1, "q": F(1, 2)}),
    (Ultraspherical, {"lam": 1}),
])
def test_family_parameters_come_back_as_fractions(cls, kw):
    fam = cls(**kw) if cls is Ultraspherical else cls(**kw, n_max=1)
    for name, value in kw.items():
        assert type(getattr(fam, name)) is F and getattr(fam, name) == value
    if cls is not Ultraspherical:
        assert type(fam.n_max) is int


def raises(exc, message, build):
    with pytest.raises(exc, match=f"^{re.escape(message)}$") as info:
        build()
    assert type(info.value) is exc


def test_jacobi_matrix_validation():
    raises(ValueError, "need len(u) == len(b) - 1",
           lambda: JacobiMatrix((F(1),), (F(0),)))
    raises(ValueError, "u_2 = 0 must be positive",
           lambda: JacobiMatrix((F(0),) * 3, (F(1), F(0))))
    raises(ValueError, "u_1 = -1 must be positive",
           lambda: JacobiMatrix(b=(F(0),) * 2, u=(F(-1),)))


def test_spectral_data_validation():
    raises(ValueError, "nodes and weights must have equal length",
           lambda: SpectralData((F(1), F(0)), (F(1),)))
    raises(ValueError, "nodes must be strictly increasing",
           lambda: SpectralData((F(1), F(0)), (F(0), F(1))))
    raises(NonPositiveWeight, "weight 0 at node 1, Fraction(2, 1), is not "
           "positive", lambda: SpectralData((F(1), F(2)), (F(2), F(0))))
    raises(ValueError, "exact weights must sum to 1",
           lambda: SpectralData(nodes=(F(1), F(2)), weights=(F(1), F(1))))


def test_grid_spec_validation():
    raises(ValueError, "grid size N must be >= 0",
           lambda: GridSpec("quadratic", -1, (F(-2),)))
    raises(ValueError, "quadratic grid needs tau > -1, got -1",
           lambda: GridSpec("quadratic", 2, (F(-1),)))
    raises(ValueError, "exponential grid needs 0 < q < 1, got 1",
           lambda: GridSpec(kind="exponential", n=2, params=(F(1),)))
    raises(ValueError, "Askey-Wilson grid needs q != 0, got 0",
           lambda: GridSpec("askey_wilson", 2, (F(0), F(1), F(1), F(0))))


def test_qhahn_q_range():
    raises(ValueError, "need 0 < q < 1, got 1", lambda: QHahn(1, 1, 1, 2))
    raises(ValueError, "need 0 < q < 1, got -1/2",
           lambda: QHahn(1, 1, F(-1, 2), 2))


def test_inexact_chain_input_names_the_jacobi_matrix():
    jm = JacobiMatrix((1.5,), ())
    raises(TypeError, "cannot build a chain from JacobiMatrix(b=(1.5,), "
           "u=()): inexact coefficient", lambda: generate_polys(jm, 1))
