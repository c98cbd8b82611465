"""The one link-usability rule, :func:`repro.core.problem.servable`.

Both online loops decide whether a user may stay on its extender with
``servable``: a link rated at or below ``MIN_USABLE_RATE`` detaches the
user, the bar :func:`~repro.core.problem.validate_assignment` applies.
A link rated in ``(0, MIN_USABLE_RATE]`` is the case a ``> 0`` keep
check got wrong: the user stayed on it, and the next ``evaluate``
raised.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.controller import CentralController, ScanReport, Transport
from repro.core.problem import (MIN_USABLE_RATE, UNASSIGNED, Scenario,
                                fail_extenders, servable,
                                validate_assignment)
from repro.net.engine import evaluate
from repro.sim.failures import reassociate_orphans, settle_clients

from .conftest import max_examples
from .oracles import reassociate_orphans_per_user

#: A rate no ``> 0`` check calls unusable, yet ``validate_assignment``
#: rejects.
_SLIVER = 5e-10


class _FirstHandoffFails(Transport):
    """A lossless transport whose first commanded handoff fails."""

    def __init__(self) -> None:
        self.failed = False

    def handoff_succeeds(self, directive) -> bool:
        if self.failed:
            return True
        self.failed = True
        return False


class TestSliverLinks:
    def test_hysteresis_cc_reparks_a_user_on_a_sliver_link(self):
        cc = CentralController([60.0, 20.0], min_gain_mbps=0.5)
        cc.receive_scan_report(ScanReport(0, np.array([40.0, 20.0])))
        cc.reconfigure()
        assert cc.associations == {0: 0}
        cc.receive_scan_report(ScanReport(0, np.array([_SLIVER, 20.0])))
        cc.reconfigure()
        assert cc.associations == {0: 1}

    def test_hysteresis_seed_detaches_a_user_left_on_a_sliver_link(self):
        """The re-park handoff fails, so the user is still on the
        sliver link at the next reconfigure: the hysteresis seed
        detaches it, and the re-solve moves it."""
        transport = _FirstHandoffFails()
        cc = CentralController([60.0, 20.0], transport=transport,
                               min_gain_mbps=0.5)
        cc.receive_scan_report(ScanReport(0, np.array([40.0, 20.0])))
        cc.receive_scan_report(ScanReport(0, np.array([_SLIVER, 20.0])))
        assert cc.associations == {0: 0}
        assert cc.stats.failed_handoffs == 1
        cc.reconfigure()
        assert cc.associations == {0: 1}
        assert cc.stats.reassignments == 1

    def test_settle_clients_reparks_a_user_on_a_sliver_link(self):
        sc = Scenario(wifi_rates=np.array([[_SLIVER, 20.0],
                                           [30.0, 10.0]]),
                      plc_rates=np.array([60.0, 20.0]))
        settled = settle_clients(sc, {0: 0})
        assert settled.tolist() == [1, 0]
        assert evaluate(sc, settled).aggregate > 0


#: WiFi rates with ties, unreachable (0) and negative links, and no
#: link rated in ``(0, MIN_USABLE_RATE]``.
_CLEAR = st.sampled_from([-3.0, 0.0, 6.5, 24.0, 54.0])

#: The same, plus links at and around the usability bar.
_ANY = st.sampled_from([-3.0, 0.0, _SLIVER, MIN_USABLE_RATE, 2e-9,
                        6.5, 24.0, 54.0])


@st.composite
def orphan_cases(draw, rates=_CLEAR) -> Tuple[Scenario, np.ndarray]:
    """A floor with some extenders dead and some users hearing nothing,
    and an assignment mixing UNASSIGNED and every extender."""
    n_users = draw(st.integers(1, 9))
    n_extenders = draw(st.integers(1, 5))
    wifi = np.array(draw(st.lists(
        st.lists(rates, min_size=n_extenders, max_size=n_extenders),
        min_size=n_users, max_size=n_users)))
    deaf = draw(st.lists(st.booleans(), min_size=n_users,
                         max_size=n_users))
    wifi[np.array(deaf)] = 0.0
    dead = draw(st.sets(st.integers(0, n_extenders - 1)))
    sc = fail_extenders(
        Scenario(wifi_rates=wifi, plc_rates=np.full(n_extenders, 50.0)),
        sorted(dead), allow_all_failed=True)
    assignment = draw(st.lists(st.integers(UNASSIGNED, n_extenders - 1),
                               min_size=n_users, max_size=n_users))
    return sc, np.array(assignment, dtype=int)


class TestUsabilityProperties:
    @given(case=orphan_cases())
    @settings(max_examples=max_examples(300), deadline=None)
    def test_reassociate_orphans_matches_per_user_loop(self, case):
        sc, assignment = case
        before = assignment.copy()
        out = reassociate_orphans(sc, assignment)
        expected = reassociate_orphans_per_user(sc, assignment)
        assert out.dtype == expected.dtype
        assert out.tobytes() == expected.tobytes()
        assert np.array_equal(assignment, before)

    @given(case=orphan_cases(rates=_ANY))
    @settings(max_examples=max_examples(300), deadline=None)
    def test_servable_leaves_no_attached_user_validation_rejects(
            self, case):
        sc, assignment = case
        kept = servable(sc, assignment)
        validate_assignment(sc, kept, require_complete=False)
        # Users are only ever detached, never moved.
        assert np.all((kept == assignment) | (kept == UNASSIGNED))
        # A user on a usable link keeps it.
        attached = np.flatnonzero(assignment != UNASSIGNED)
        usable = sc.wifi_rates[attached, assignment[attached]] \
            > MIN_USABLE_RATE
        assert np.array_equal(kept[attached] != UNASSIGNED, usable)
