"""The decode events of the exchange, stated once in a table, and decided on unit rows.

Each signal's outage follows one decode chain. The relay decodes the uplink
superposition by SIC: the stronger signal ``x_l`` first (``strong``), then
the weaker ``x_t`` after cancelling it (``weak``), with the residual gain
under ipSIC. The opposite pair's near user ``k`` decodes ``x_t`` first
(``cross``), then its own ``x_l`` after cancelling it (``own``, with the
residual under ipSIC); the far user ``r`` decodes ``x_t`` with ``x_l``'s share
as interference (``far``). ``x_l`` needs the strong, cross and own decodes,
``x_t`` the strong, weak, cross and far decodes.

Every event reads ``rho·X / (rho·Y + 1) > gamma``. ``X`` is one unit row
times a coefficient, ``Y`` a non-negative linear form of unit rows that for
the user decodes includes ``X``'s own row, and ``gamma`` the decoded
signal's SINR threshold. :func:`event_table` lists, per (signal, SIC mode),
each event's slot, ``X``'s row and coefficient, ``Y``'s (row, coefficient)
pairs and ``gamma``, on the unit-row layout of ``model.UNIT_ROWS``, with the
variances, power splits and varpi1/varpi2 folded into the coefficients. The
residual row enters only under ipSIC; under pSIC it is left out, not added
as zero. The table is built from the ``SystemConfig`` alone, and ``rho``
enters only when an event is evaluated.

:func:`event_sinr` evaluates an event's SINR. It rounds once in ``X``'s
product, at most three times in ``Y``'s products and twice in its sums, then
once each in ``rho·Y``, ``+1``, ``rho·X`` and the division: at most eight
roundings, all on positive terms. The denominator is bounded below by the
unit noise term, so no division guard is needed.

:class:`EventDecisions` decides the same events without SINRs, which the
Monte Carlo engine uses. Multiplied out, an event is ``X > Z`` with
``Z = gamma·(Y + 1/rho)``, which overflows at no SNR. ``X`` reads one row
``u``; solved for it, the event is ``u > R·tau``, where ``R`` is ``1/rho``
plus the terms of ``Y`` in other rows and ``tau`` is a scalar fixed once per
call. The user-side ``cross`` and ``far`` decodes and the pSIC ``own``
decode are thresholds on a single row, the ipSIC ``own`` decode has two
terms and the relay decodes three or four.

A draw counts as decided only outside a guard band: the event holds for
sure where ``X - Z > k·(X + Z)`` and fails for sure where
``Z - X > k·(X + Z)``, with ``k = _GUARD = 64 eps``. The band is built from
the unfused magnitudes ``X`` and ``Z``, never from ``|X - Z|`` or a fused
coefficient such as ``b_t - gamma_t·(b_l + varpi2)``, which cancels when a
split barely supports its rate. Both paths read the table's coefficients.
The SINR evaluation's eight roundings make its decision exact wherever
``|X - Z| > 8 eps·X``; the linear forms, the fused coefficients included,
are within about ``5 eps·(X + Z)``. Outside the band both paths therefore
decide alike. Draws inside it, a share of order ``k`` per event, are decided
again by :func:`event_sinr`, so the outcomes are the SINR evaluation's by
construction, whatever the band. This holds while no product overflows or
underflows, which the domain (``model.DOMAIN``) rules out.
"""

from __future__ import annotations

import math
import operator
import sys
from functools import reduce
from typing import NamedTuple

import numpy as np

from .model import DOWNLINK, GROUP_ONE, GROUP_TWO, SIC_MODES, UPLINK, Grid, SystemConfig, sinr_threshold

# Half-width of the band of draws left to the SINR evaluation, as a fraction
# of an event's unfused magnitudes X + Z; eight times the rounding of
# either path.
_GUARD = 64 * sys.float_info.epsilon


class Event(NamedTuple):
    """One decode event ``rho·X / (rho·Y + 1) > gamma`` on one slot's unit rows.

    ``X = x·u[row]`` and ``Y = sum(c·u[i] for i, c in y)``; row numbers follow
    ``model.UNIT_ROWS``' layout.
    """

    slot: int
    row: int
    x: float
    y: tuple[tuple[int, float], ...]
    gamma: float


def event_table(config: SystemConfig) -> dict[tuple[str, str], tuple[Event, ...]]:
    """The decode chain of every (signal, SIC mode): ``x_l`` (strong, cross, own), ``x_t`` (strong, weak, cross, far).

    Within a slot the events are in decode order, so each slot's last event
    decodes the signal itself: its relay stage and its destination stage.
    """
    a, b, omega, v1, v2 = config.a, config.b, config.omega, config.varpi1, config.varpi2
    gamma = [sinr_threshold(rate) for rate in config.rates]
    table = {}
    for mode in SIC_MODES:
        width = 5 if mode == "ipSIC" else 4  # g1..g4, then the residual gain under ipSIC
        up, down = UPLINK * width, DOWNLINK * width
        residual_up, residual_down = ((up + 4, config.omega_i),), ((down + 4, config.omega_i),)
        if mode == "pSIC":
            residual_up = residual_down = ()
        for roles in (GROUP_ONE, GROUP_TWO):
            l, t, k, r = roles.l - 1, roles.t - 1, roles.k - 1, roles.r - 1
            leak = ((up + k, v1 * a[k] * omega[k]), (up + r, v1 * a[r] * omega[r]))
            strong = Event(UPLINK, up + l, a[l] * omega[l], leak + ((up + t, a[t] * omega[t]),), gamma[l])
            weak = Event(UPLINK, up + t, a[t] * omega[t], leak + residual_up, gamma[t])
            cross = Event(DOWNLINK, down + k, b[t] * omega[k], ((down + k, (b[l] + v2) * omega[k]),), gamma[t])
            own = Event(DOWNLINK, down + k, b[l] * omega[k], ((down + k, v2 * omega[k]),) + residual_down, gamma[l])
            far = Event(DOWNLINK, down + r, b[t] * omega[r], ((down + r, (b[l] + v2) * omega[r]),), gamma[t])
            table[(f"x{roles.l}", mode)] = (strong, cross, own)
            table[(f"x{roles.t}", mode)] = (strong, weak, cross, far)
    return table


def event_sinr(event: Event, rho: float, rows: list) -> Grid:
    """``rho·X / (rho·Y + 1)`` of ``event`` on unit rows indexed by row number; only the rows it reads are needed."""
    y = sum(c * rows[i] for i, c in event.y)
    return rho * (event.x * rows[event.row]) / (rho * y + 1.0)


def _over(num: float, den: float) -> float:
    """``num / den`` for a positive ``den``, else infinity: a cut that no draw passes."""
    return num / den if den > 0.0 else math.inf


def _cuts(x: float, y: float, gamma: float, scale: float) -> tuple[float, float]:
    """(sure, possible) multipliers of the event ``x·u > gamma·(y·u + R)`` on unit row ``u``.

    ``X = x·u`` and ``Z = gamma·(y·u + R)`` are the event's unfused,
    non-negative magnitudes and ``scale = (1 - k) / (1 + k)`` for the guard
    ``k``. The event holds for sure where ``scale·X > Z``, that is
    ``X - Z > k·(X + Z)``, which is ``u > R·sure``; it can hold only where
    ``X > scale·Z``, which is ``u > R·possible``.
    """
    return _over(gamma, scale * x - gamma * y), _over(scale * gamma, x - scale * gamma * y)


class EventDecisions:
    """The table's events for the given (signal, SIC mode) keys, decided from rho-free cuts on the unit rows.

    Each distinct event is decided once per block, however many keys share
    it: ``x_l``'s strong decode, for one, serves ``x_t`` and both modes. The
    thresholds and the guard band are folded into scalar cuts once, at
    construction, and the ``R`` of events whose other-row terms share a
    prefix share its partial sums (see the module docstring).
    """

    def __init__(self, config: SystemConfig, keys: list[tuple[str, str]]):
        table = event_table(config)
        scale = 2.0 / (1.0 + _GUARD) - 1.0  # (1 - guard) / (1 + guard); -1 for an infinite guard
        self.rho, self.inv_rho = config.rho, 1.0 / config.rho
        self.slots = []
        for slot in (UPLINK, DOWNLINK):
            events = list(dict.fromkeys(event for key in keys for event in table[key] if event.slot == slot))
            sums = {(): 0}  # a prefix of other-row terms -> its partial sum's index
            steps = []  # (index of the partial sum it extends, row, coefficient)
            cuts = []
            for event in events:
                rest = tuple(term for term in event.y if term[0] != event.row)
                for n in range(1, len(rest) + 1):
                    if rest[:n] not in sums:
                        sums[rest[:n]] = len(steps) + 1
                        steps.append((sums[rest[:n - 1]], *rest[n - 1]))
                own = sum(c for i, c in event.y if i == event.row)
                cuts.append((event.row, sums[rest], *_cuts(event.x, own, event.gamma, scale)))
            members = {key: [events.index(event) for event in table[key] if event.slot == slot] for key in keys}
            self.slots.append((events, steps, cuts, members))

    def decide(self, slot: int, rows: list) -> dict[tuple[str, str], np.ndarray]:
        """Success of each key's events on ``slot`` on a block of unit rows indexed by row number.

        Draws where an event's sure and possible masks differ are decided
        again by :func:`event_sinr`, on just those draws.
        """
        events, steps, cuts, members = self.slots[slot]
        partial = [self.inv_rho]
        for start, i, c in steps:
            partial.append(partial[start] + c * rows[i])
        held = []
        undecided = None
        for i, rest, sure, possible in cuts:
            u, r = rows[i], partial[rest]
            ok = u > r * sure
            held.append(ok)
            if undecided is None:
                undecided = ok ^ (u > r * possible)
            else:
                undecided |= ok ^ (u > r * possible)
        if undecided.any():
            open_draws = np.flatnonzero(undecided)
            sub = [None if row is None else row[open_draws] for row in rows]
            for event, ok in zip(events, held):
                ok[open_draws] = event_sinr(event, self.rho, sub) > event.gamma
        return {key: reduce(operator.and_, (held[i] for i in index)) for key, index in members.items()}
