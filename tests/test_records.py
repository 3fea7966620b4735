"""The record contracts: every public record class of the package is
immutable, and records built from equal fields are equal and hash equal."""

from __future__ import annotations

import inspect
from fractions import Fraction

import numpy as np
import pytest

from ringwaves import bifurcation, burnside, cli, groups, reps, spectrum, twisted, verify
from ringwaves.burnside import BurnsideElement, SparseSum
from ringwaves.groups import DihedralElement, GammaPrimeElement
from ringwaves.reps import DihedralIrrep, DressedIrrep, GIrrep, LaplacianEigendata
from ringwaves.spectrum import CriticalPoint, IndexQuad, IndexSets, ModelParams, sigmoid_curve
from ringwaves.twisted import TwistedOrbitType, TwistedSum

MODULES = [bifurcation, burnside, cli, groups, reps, spectrum, twisted, verify]

# the classes whose instances are built once and then change: not records
NOT_RECORDS = {groups.FiniteGroup, groups.SubgroupClassLattice, twisted.TwistedContext,
               cli.RunConfig}


def _fields():
    """Constructor arguments of one instance of each record class."""
    d = DihedralElement(1, True, 5)
    g = GammaPrimeElement(-1, 1, d)
    irrep = DihedralIrrep("geom1", 1, 2, 5)
    dressed = DressedIrrep(irrep, 1)
    eigendata = LaplacianEigendata(((0, 0.0, 1), (1, 1.5, 2)))
    curve = sigmoid_curve()
    quad = IndexQuad(1, 2, 1)
    point = CriticalPoint(quad, 0.25, 1.5)
    sets = IndexSets((quad,), ((1, 0, 1),), True, ())
    owner = object()
    total = TwistedSum(owner, ((TwistedOrbitType(0, 1), 1),))
    gens = bifurcation.OrbitGenerators("H", ((Fraction(1, 2), g),))
    relation = bifurcation.Relation("reflection", -1, (0, 4, 3, 2, 1), Fraction(1, 2), True)
    invariant = bifurcation.BifurcationInvariant(total, ((quad, 1),), None, sets)
    grid = np.zeros(3)
    return {
        DihedralElement: (1, True, 5),
        GammaPrimeElement: (-1, 1, d),
        DihedralIrrep: ("geom1", 1, 2, 5),
        DressedIrrep: (irrep, 1),
        GIrrep: (1, dressed),
        LaplacianEigendata: (((0, 0.0, 1), (1, 1.5, 2)),),
        SparseSum: (owner, ((0, 2),)),
        BurnsideElement: (owner, ((0, 2), (1, -1))),
        TwistedSum: (owner, ((TwistedOrbitType(0, 1), 1),)),
        TwistedOrbitType: (0, 1),
        spectrum.CouplingCurve: ("sigmoid", curve.evaluate, curve.derivative, curve.inverse,
                                 curve.range),
        ModelParams: (Fraction(1, 2), 1.0, 2.0, 5, curve, eigendata),
        IndexQuad: (1, 2, 1, 1),
        IndexSets: ((quad,), ((1, 0, 1),), True, ()),
        CriticalPoint: (quad, 0.25, 1.5),
        bifurcation.BifurcationInvariant: (total, ((quad, 1),), None, sets),
        bifurcation.OrbitGenerators: ("H", ((Fraction(1, 2), g),)),
        bifurcation.Relation: ("reflection", -1, (0, 4, 3, 2, 1), Fraction(1, 2), True),
        bifurcation.BranchPrediction: (point, "H", 1, gens, (relation,), True, True),
        bifurcation.PredictionReport: ((), (), ((point, invariant),), owner),
        verify.Discretization: ("fd", 4, 4, {0: grid}, 0.25, 1.5),
        verify.GridFunction: (grid, grid, grid),
    }


FIELDS = _fields()
UNHASHABLE = {verify.Discretization, verify.GridFunction}  # they hold numpy arrays


def _field_names(cls):
    return getattr(cls, "_fields", None) or [
        name for c in cls.__mro__ for name in vars(c).get("__slots__", ())]


def test_every_public_class_is_a_record_or_named_as_not_one():
    public = {cls for mod in MODULES for name, cls in vars(mod).items()
              if inspect.isclass(cls) and cls.__module__ == mod.__name__
              and not name.startswith("_") and not issubclass(cls, Exception)}
    assert public - NOT_RECORDS == set(FIELDS)


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_record_is_immutable_and_equal_by_fields(cls):
    args = FIELDS[cls]
    a, b = cls(*args), cls(*args)
    assert a is not b and a == b and not a != b
    if cls not in UNHASHABLE:
        assert hash(a) == hash(b)
    for name in _field_names(cls):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1


def test_record_construction_logic():
    assert DihedralElement(-1, False, 5).rot == 4
    assert DihedralElement(7, True, 5) == DihedralElement(2, True, 5)
    params = ModelParams(nu="1/2", delta=1.0, tau=2.0, N=5)
    assert params.nu == Fraction(1, 2) and type(params.nu) is Fraction
    assert params.zeta.kind == "sigmoid"
    assert params.eigendata == reps.cycle_laplacian_eigendata(5)
    with pytest.raises(ValueError, match="isotypic index 1 twice"):
        LaplacianEigendata(((0, 0.0, 1), (1, 1.0, 1), (1, 2.0, 1)))
    # the owner is shared by identity and left out of equality and hashing
    x, y = BurnsideElement(object(), ((0, 2),)), BurnsideElement(object(), ((0, 2),))
    assert x == y and hash(x) == hash(y)
    assert x != TwistedSum(x.owner, x.coeffs)  # another ring's element is never equal


def test_record_reprs():
    assert repr(IndexQuad(1, 2, 1)) == "IndexQuad(m=1, n=2, j=1, k=1)"
    assert repr(LaplacianEigendata(((0, 0.0, 1),))) == \
        "LaplacianEigendata(entries=((0, 0.0, 1),))"
    assert repr(BurnsideElement(None, ((0, 2),))) == \
        "BurnsideElement(owner=None, coeffs=((0, 2),))"
    assert repr(GammaPrimeElement(1, -1, DihedralElement(-1, True, 5))) == "(+1,-1,g^4k)"
