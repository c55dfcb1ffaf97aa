"""Shared strategies and helpers for the test suite."""

import importlib.util
import pathlib

import pytest
from hypothesis import strategies as st

from kakeya import measure
from kakeya.ring import (
    RingSpec,
    element_from_digits,
    padic_ring,
    power_series_ring,
)

Z2 = padic_ring(2)
F2 = power_series_ring(2)
Z3 = padic_ring(3)
F3 = power_series_ring(3)
Z5 = padic_ring(5)
F5 = power_series_ring(5)
Z7 = padic_ring(7)
F7 = power_series_ring(7)
Z11 = padic_ring(11)
F11 = power_series_ring(11)
Z13 = padic_ring(13)
F13 = power_series_ring(13)

ALL_RINGS = (Z2, F2, Z3, F3, Z5, F5, Z7, F7)
# The larger residue fields, checked at the shallowest depths only.
LARGE_RINGS = (Z11, F11, Z13, F13)
# The equivalence tests of the element paths: ALL_RINGS and ell = 11.
EQUIV_RINGS = ALL_RINGS + (Z11, F11)


def _freeze_script():
    """``scripts/freeze_fixtures.py`` as a module: its work runs only under
    its ``__main__`` guard, so loading it only defines its names."""
    path = (pathlib.Path(__file__).resolve().parents[1] / "scripts"
            / "freeze_fixtures.py")
    spec = importlib.util.spec_from_file_location("freeze_fixtures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# (family, ring, first D, last D, file suffix) of every frozen decay table:
# the fixture script's ``DECAY_TABLES``, its one list.
FROZEN_DECAY_TABLES = _freeze_script().DECAY_TABLES


@pytest.fixture(autouse=True)
def fresh_pair_cache():
    """Every test starts and ends with an empty ``measure._pairs`` cache, so
    pairs built under a patched ``variant_residue_table`` never outlive the
    test that patched it."""
    measure._pairs.cache_clear()
    yield
    measure._pairs.cache_clear()


@st.composite
def elements(draw, ring: RingSpec, min_low: int = 0, max_low: int = 0,
             max_depth: int = 12):
    """Arbitrary canonical elements, zero included."""
    low = draw(st.integers(min_low, max_low))
    depth = draw(st.integers(max(low + 1, 1), max(low + max_depth, 1)))
    n = depth - low
    ds = draw(st.lists(st.integers(0, ring.ell - 1), min_size=0, max_size=n))
    return element_from_digits(ds, low, ring, depth)


def check_class_rows(K: int, a, c, folded):
    """The arrays ``a``, ``c`` that ``bitmap()`` walks in its fold, of
    shape (C, n): one row per class a mod K of the distinct ``folded``
    pairs (K = ell^k for a fold of k top digits of w), in increasing class
    order, n the largest class's size.  Each row's distinct pairs are its
    class's folded pairs, so the padding of a smaller class repeats only
    its own pairs."""
    by_class = {}
    for p in folded:
        by_class.setdefault(p[0] % K, set()).add(p)
    assert a.shape == c.shape == (len(by_class),
                                  max(map(len, by_class.values())))
    for g, ra, rc in zip(sorted(by_class), a.tolist(), c.tolist()):
        assert set(zip(ra, rc)) == by_class[g]
