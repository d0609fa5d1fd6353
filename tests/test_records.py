"""The record types as callers see them: field order and defaults, checks on
construction, reprs, immutability, hashes and pickling."""

import pickle
from fractions import Fraction as F

import pytest

from tautint import OmegaSpec, RouteResult, StableGraph, chi, edge_local_factor
from tautint.checks import FULL_GRID, CheckGrid
from tautint.reports import CheckReport

GRAPH = StableGraph((0,), (0,), ((0, 0),))
SPEC = OmegaSpec(3, 1, [1, 2], 2)
ROUTE = chi(2, 1, "hodge_sum")
REPORT = CheckReport("string", {"g": 1}, "0", "0", True)


def test_reprs():
    # the first is the Python API example in README
    assert repr(ROUTE) == "RouteResult(g=2, n=1, value=Fraction(1, 120), route='hodge_sum')"
    assert repr(SPEC) == "OmegaSpec(r=3, s=1, a=(1, 2), x=Fraction(2, 1))"
    assert repr(GRAPH) == "StableGraph(genera=(0,), legs=(0,), edges=((0, 0),))"
    assert repr(REPORT) == (
        "CheckReport(check='string', parameters={'g': 1}, expected='0', got='0', passed=True, details=[])"
    )


def test_omega_spec_checks_and_converts():
    with pytest.raises(ValueError, match="positive"):
        OmegaSpec(0, 0, ())
    spec = OmegaSpec(r=2, s=1, a=[1, 0])
    assert spec.a == (1, 0) and type(spec.a) is tuple
    assert spec.x == 1 and type(spec.x) is F
    spec = OmegaSpec(2, 1, (1, 0), -3)
    assert spec.x == -3 and type(spec.x) is F


FROZEN = [
    (GRAPH, ("genera", "legs", "edges")),
    (SPEC, ("r", "s", "a", "x")),
    (edge_local_factor(1, 2, F(1), 2), ("trunc", "terms")),
    (ROUTE, ("g", "n", "value", "route")),
    (FULL_GRID, ("max_dim", "max_r", "s_values", "x_values")),
]


@pytest.mark.parametrize("record,fields", FROZEN + [(REPORT, ("passed", "details"))])
def test_fields_cannot_be_assigned(record, fields):
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("record,fields", FROZEN)
def test_hash_is_the_hash_of_the_field_tuple(record, fields):
    # as the frozen dataclasses hashed, so memos, sets and dict orders keep theirs
    assert hash(record) == hash(tuple(getattr(record, name) for name in fields))
    assert type(record)(*(getattr(record, name) for name in fields)) == record


@pytest.mark.parametrize("record", [GRAPH, SPEC, ROUTE])
def test_pickle_round_trip(record):
    # table --jobs sends these to worker processes and back
    back = pickle.loads(pickle.dumps(record))
    assert back == record and type(back) is type(record) and repr(back) == repr(record)


def test_check_reports_get_their_own_details():
    one = CheckReport("a", {}, "0", "0", True)
    two = CheckReport("b", {}, "0", "1", False)
    one.details.append("x")
    assert two.details == [] and one.details == ["x"]
    assert CheckReport("c", {}, "0", "0", True, ["y"]).details == ["y"]
    assert not two and one


def test_check_grid_defaults_are_the_full_grid():
    grid = CheckGrid()
    assert grid == FULL_GRID
    assert (grid.max_dim, grid.max_r, grid.s_values) == (4, 3, tuple(range(-3, 5)))
    assert grid.x_values == (F(1), F(-1), F(1, 2))
    small = CheckGrid(max_dim=2, max_r=3)
    assert (small.max_dim, small.max_r, small.s_values, small.x_values) == (2, 3, grid.s_values, grid.x_values)
