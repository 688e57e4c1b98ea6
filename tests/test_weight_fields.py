"""The derived fields of ``PsdOperator``: computed on first read, once, read-only.

The descriptor behind them, ``linalg._cached``, keeps the contract of
``functools.cached_property`` without its lock; the last tests hold both to it.
"""

import dataclasses
import functools
import sys
import threading

import numpy as np
import pytest

from obliqueproj import DEFAULT_TOL, PsdOperator, Subspace
from obliqueproj.linalg import _cached
from obliqueproj.oblique import _Geometry
from support import make_overlapping_pair, make_psd

DERIVED = ("_root", "sqrt", "range_proj", "range_subspace", "null_subspace")


def eager(weight):
    """Each derived field by the formula ``from_matrix`` once evaluated up front."""
    r = weight.rank
    w, vr = weight.eigvals[:r], weight.eigvecs[:, :r]
    return {
        "_root": np.sqrt(w),
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


def test_square_root_reads_the_cached_root():
    # Λ^{1/2} is taken once; A^{1/2} = V_r Λ^{1/2} V_r^T is the product of
    # the eager formula, bit for bit
    weight = make_psd(np.random.default_rng(80), 6, 4)
    vr, w = weight.eigvecs[:, :4], weight.eigvals[:4]
    assert weight.sqrt.tobytes() == ((vr * np.sqrt(w)) @ vr.T).tobytes()
    assert weight._root.tobytes() == np.sqrt(w).tobytes()
    assert "_root" in vars(weight)


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


def counted(descriptor):
    """A frozen dataclass with two fields made by ``descriptor``: ``doubled``
    and ``flaky``, which raises on the first read of each instance."""

    @dataclasses.dataclass(frozen=True)
    class Record:
        value: float
        reads: list

        @descriptor
        def doubled(self):
            """Twice the value."""
            self.reads.append("doubled")
            return 2.0 * self.value

        @descriptor
        def flaky(self):
            self.reads.append("flaky")
            if self.reads.count("flaky") == 1:
                raise RuntimeError("first read")
            return self.reads.count("flaky")

    return Record


@pytest.mark.parametrize("descriptor", [_cached, functools.cached_property])
def test_field_computes_once_per_instance(descriptor):
    record = counted(descriptor)
    one, two = record(1.0, []), record(3.0, [])
    assert [one.doubled, one.doubled, two.doubled] == [2.0, 2.0, 6.0]
    assert one.reads == ["doubled"] and two.reads == ["doubled"]
    assert vars(one)["doubled"] == 2.0 and vars(two)["doubled"] == 6.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        one.doubled = 0.0


@pytest.mark.parametrize("descriptor", [_cached, functools.cached_property])
def test_field_on_the_class_is_the_descriptor(descriptor):
    record = counted(descriptor)
    assert isinstance(record.doubled, descriptor)
    assert record.doubled.__doc__ == "Twice the value."


@pytest.mark.parametrize("descriptor", [_cached, functools.cached_property])
def test_failed_first_read_stores_nothing(descriptor):
    one = counted(descriptor)(1.0, [])
    with pytest.raises(RuntimeError, match="first read"):
        one.flaky
    assert "flaky" not in vars(one)
    assert [one.flaky, one.flaky] == [2, 2]
    assert one.reads == ["flaky", "flaky"]




def test_concurrent_first_reads_agree():
    # Without a lock, threads that read a field first may each compute it;
    # every one of them sees the value a single thread computes.
    pairs = [make_overlapping_pair(np.random.default_rng([80, i]), 6, 4, 3, 1) for i in range(20)]

    def read(geometry):
        return geometry.projection.matrix, geometry.overlap.basis, geometry.hermitian_anchor

    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for pair in pairs:
            expected = read(_Geometry(*pair, DEFAULT_TOL))
            geometry, barrier, seen = _Geometry(*pair, DEFAULT_TOL), threading.Barrier(4), []

            def reader():
                barrier.wait(timeout=10)
                seen.append(read(geometry))

            threads = [threading.Thread(target=reader) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert len(seen) == 4
            for values in seen:
                assert all(np.array_equal(got, want) for got, want in zip(values, expected))
    finally:
        sys.setswitchinterval(interval)
