from __future__ import annotations

import pytest

from fairshare import Rat, aps_exact

from helpers import pair_sum_valuation


@pytest.fixture(scope="session")
def pair_aps():
    """AnyPrice share of the 15-item pair instance at entitlement 1/3.

    The descent over threshold LPs is the costliest single share
    solve in the suite, so it is computed once per session and shared by
    every test that needs it.
    """
    valuation, _, _ = pair_sum_valuation()
    return aps_exact(valuation, Rat(1, 3))
