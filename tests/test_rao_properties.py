"""Property tests for the Rao module's generators and annihilator on random
constructions in P^3 to P^5: `deficiency_module`, on sparse rows, finds the
generator count, the generator degrees and the annihilator degrees that
the dense stacked-rank and Koszul route of `reference.py` finds from the
same multiplication maps, and those maps commute."""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from extremalcurves.cohomology import CurveAnalysis  # noqa: E402
from extremalcurves.construct import construct_curve, random_construction_input  # noqa: E402
from reference import dense_rao_structure, multiplication_commutes  # noqa: E402

SETTINGS = settings(max_examples=60, derandomize=True, deadline=None, database=None)


@SETTINGS
@given(st.integers(3, 5), st.integers(3, 6), st.integers(0, 3), st.integers(0, 10**6))
def test_sparse_rao_structure_is_the_dense_one(n, d, a, seed):
    I = construct_curve(random_construction_input(n, d, a, random.Random(seed)))
    rao = CurveAnalysis(I).rao
    assert dense_rao_structure(rao) == (rao.generator_count, rao.generator_degrees, rao.annihilator_degrees)
    assert multiplication_commutes(rao)
