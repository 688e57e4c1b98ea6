"""The derived fields of ``PsdOperator``: computed on first read, once, read-only."""

import dataclasses

import numpy as np
import pytest

from obliqueproj import PsdOperator, Subspace
from support import make_psd

DERIVED = ("sqrt", "range_proj", "range_subspace", "null_subspace")


def eager(weight):
    """Each derived field by the formula ``from_matrix`` once evaluated up front."""
    r = weight.rank
    w, vr = weight.eigvals[:r], weight.eigvecs[:, :r]
    return {
        "sqrt": (vr * np.sqrt(w)) @ vr.T,
        "range_proj": vr @ vr.T,
        "range_subspace": vr,
        "null_subspace": weight.eigvecs[:, r:],
    }


def as_array(value):
    return value.basis if isinstance(value, Subspace) else value


@pytest.mark.parametrize("n", range(2, 65))
def test_derived_fields_follow_the_eager_formulas(n):
    rng = np.random.default_rng([77, n])
    for rank in range(n + 1):
        weight = make_psd(rng, n, rank)
        assert not set(DERIVED) & set(vars(weight))
        expected = eager(weight)
        for name in DERIVED:
            value = getattr(weight, name)
            assert name in vars(weight)
            assert getattr(weight, name) is value
            assert not as_array(value).flags.writeable
            assert np.max(np.abs(as_array(value) - expected[name]), initial=0.0) <= 1e-12


def test_fields_are_read_only():
    weight = make_psd(np.random.default_rng(78), 4, 2)
    for name in DERIVED:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(weight, name, None)
    with pytest.raises(ValueError):
        weight.sqrt[0, 0] = 1.0


def test_replaced_eigen_data_derives_afresh():
    # dataclasses.replace() keeps no derived value of the original weight
    weight = make_psd(np.random.default_rng(79), 5, 3)
    _ = weight.sqrt, weight.range_proj
    c = 1e3
    scaled = dataclasses.replace(weight, base=c * weight.base, eigvals=c * weight.eigvals)
    assert not set(DERIVED) & set(vars(scaled))
    np.testing.assert_allclose(scaled.sqrt, np.sqrt(c) * weight.sqrt, atol=1e-12)
    np.testing.assert_allclose(scaled.range_proj, weight.range_proj, atol=1e-12)


def test_constructor_takes_the_eigen_data_only():
    assert [f.name for f in dataclasses.fields(PsdOperator)] == ["base", "eigvals", "eigvecs", "rank"]
