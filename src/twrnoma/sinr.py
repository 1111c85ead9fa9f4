"""Instantaneous SINRs of the decode stages and the decode events they decide.

Pure arithmetic on the sample's power gains; every formula broadcasts, so a
:class:`~twrnoma.model.ChannelSample` holding arrays yields arrays of SINRs.
The relay stage reads the uplink (multiple-access) slot and the user stage
the downlink (broadcast) slot, so each slot is evaluated only for the stage
that decodes on it. The residual gain of imperfect cancellation enters only
under ``ipSIC``; under ``pSIC`` the term is left out, not added as zero. All
denominators contain the unit noise term, so they are bounded below by 1 and
no division guards are needed.

The same decode events are also decided without SINRs, by
:class:`EventDecisions`, which the Monte Carlo engine uses. Every event reads
``rho·X / (rho·Y + 1) > gamma``, where ``X`` and ``Y`` are non-negative
linear forms of one slot's unit rows, with the variances, power splits and
varpi1/varpi2 in their coefficients. Multiplied out, it is ``X > Z`` with
``Z = gamma·(Y + 1/rho)``, which overflows at no SNR. ``X`` reads one row
``u``; solved for it, the event is ``u > R·tau``, where ``R`` is ``1/rho``
plus the terms of ``Y`` in other rows and ``tau`` is a scalar fixed once per
call. The user-side ``cross`` and ``far`` decodes and the pSIC ``own``
decode are thresholds on a single row, the ipSIC ``own`` decode has two
terms and the relay decodes three to five.

A draw counts as decided only outside a guard band: the event holds for
sure where ``X - Z > k·(X + Z)`` and fails for sure where
``Z - X > k·(X + Z)``, with ``k = _GUARD = 64 eps``. The band is built from
the unfused magnitudes ``X`` and ``Z``, never from ``|X - Z|`` or a fused
coefficient such as ``b_t - gamma_t·(b_l + varpi2)``, which cancels when a
split barely supports its rate. The SINR path (:func:`relay_sinrs`,
:func:`user_sinrs`) rounds at most seven times in its numerator or its
denominator, all on positive terms, and once in the division, so its
decision is exact wherever ``|X - Z| > 6 eps·X``. The linear forms, the
fused coefficients included, are within about ``5 eps·(X + Z)``. Outside
the band both paths therefore decide alike. Draws inside it, a share of
order ``k`` per event, are decided again by the SINR path
(:func:`relay_events`, :func:`user_events`), so the outcomes are the SINR
path's by construction, whatever the band. This holds while no product
overflows or underflows. Where ``rho·g`` overflows (3080 dB) the SINR path
yields NaN, a failed decode, and only the linear forms are right.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .model import DOWNLINK, UPLINK, ChannelSample, Gain, PairRoles, SystemConfig, slot_sample

# (roles, x_l threshold, x_t threshold) of one role group
Group = tuple[PairRoles, float, float]
# Half-width of the band of draws left to the SINR path, as a fraction of an
# event's unfused magnitudes X + Z; over ten times the rounding of either path.
_GUARD = 64 * sys.float_info.epsilon


def relay_sinrs(
    config: SystemConfig, roles: PairRoles, uplink: ChannelSample, sic_modes: tuple[str, ...]
) -> tuple[Gain, dict[str, Gain]]:
    """The relay's two decodes on the uplink slot: ``(strong, {mode: weak})``.

    ``strong``: the stronger uplink signal ``x_l`` against the weaker one plus
    cross-pair leakage; no SIC mode affects it. ``weak``: the weaker signal
    ``x_t`` after cancelling ``x_l``, per SIC mode, with the residual gain
    ``uplink.gI`` under ipSIC.
    """
    rho = config.rho
    a_l, a_t = config.a[roles.l - 1], config.a[roles.t - 1]
    a_k, a_r = config.a[roles.k - 1], config.a[roles.r - 1]
    g_l, g_t = uplink.gain(roles.l), uplink.gain(roles.t)
    g_k, g_r = uplink.gain(roles.k), uplink.gain(roles.r)

    cross = rho * config.varpi1 * (g_k * a_k + g_r * a_r)
    signal_t = rho * g_t * a_t
    strong = rho * g_l * a_l / (signal_t + cross + 1.0)
    weak = {
        mode: signal_t / (rho * uplink.gI + cross + 1.0 if mode == "ipSIC" else cross + 1.0)
        for mode in sic_modes
    }
    return strong, weak


def user_sinrs(
    config: SystemConfig, roles: PairRoles, downlink: ChannelSample, sic_mode: str
) -> tuple[Gain, Gain, Gain]:
    """The opposite pair's decodes on the downlink slot: ``(cross, own, far)``.

    ``cross``: the near receiver ``k`` decoding the far user's signal ``x_t``
    before cancellation. ``own``: ``k`` decoding its own signal ``x_l`` after
    cancellation, with the residual gain ``downlink.gI`` under ipSIC. ``far``:
    the far receiver ``r`` decoding ``x_t`` with ``x_l``'s share as interference.
    """
    rho = config.rho
    b_l, b_t = config.b[roles.l - 1], config.b[roles.t - 1]
    g_k, g_r = downlink.gain(roles.k), downlink.gain(roles.r)

    rho_k = rho * g_k
    share_l = rho_k * b_l
    leak_k = rho * config.varpi2 * g_k
    cross = rho_k * b_t / (share_l + leak_k + 1.0)
    own = share_l / (rho * downlink.gI + leak_k + 1.0 if sic_mode == "ipSIC" else leak_k + 1.0)
    rho_r = rho * g_r
    far = rho_r * b_t / (rho_r * b_l + rho * config.varpi2 * g_r + 1.0)
    return cross, own, far


def relay_events(
    config: SystemConfig, groups: list[Group], sic_modes: tuple[str, ...], rows: list
) -> dict[tuple[str, str], np.ndarray]:
    """Relay-side success of each (signal, SIC mode) on the uplink unit rows, by the SINR path.

    ``x_l`` needs the relay's first decode, ``x_t`` both. The uplink gains,
    and so the first decode, are the same in every mode.
    """
    uplink = slot_sample(config, rows, "ipSIC" if "ipSIC" in sic_modes else "pSIC", UPLINK)
    ok = {}
    for roles, g_l, g_t in groups:
        strong, weak = relay_sinrs(config, roles, uplink, sic_modes)
        relay_l = strong > g_l
        for mode in sic_modes:
            ok[(f"x{roles.l}", mode)] = relay_l
            ok[(f"x{roles.t}", mode)] = relay_l & (weak[mode] > g_t)
    return ok


def user_events(
    config: SystemConfig, groups: list[Group], sic_modes: tuple[str, ...], rows: list
) -> dict[tuple[str, str], np.ndarray]:
    """User-side success of each (signal, SIC mode) on the downlink unit rows, by the SINR path.

    Both signals need the opposite pair's near user to decode ``x_t`` first;
    ``x_l`` then needs that user's own decode, ``x_t`` the far user's.
    """
    ok = {}
    for mode in sic_modes:
        downlink = slot_sample(config, rows, mode, DOWNLINK)
        for roles, g_l, g_t in groups:
            cross, own, far = user_sinrs(config, roles, downlink, mode)
            cross_t = cross > g_t
            ok[(f"x{roles.l}", mode)] = cross_t & (own > g_l)
            ok[(f"x{roles.t}", mode)] = cross_t & (far > g_t)
    return ok


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


def _settle(bounds: list, fallback, rows: list) -> dict[tuple[str, str], np.ndarray]:
    """Success mask per key from ``(keys, sure, possible)`` bounds on one block.

    Draws where a key's sure and possible masks differ are decided again by
    ``fallback``, the SINR path, on just those draws.
    """
    undecided = bounds[0][1] ^ bounds[0][2]
    for _, sure, possible in bounds[1:]:
        undecided |= sure ^ possible
    if undecided.any():
        open_draws = np.flatnonzero(undecided)
        exact = fallback([None if row is None else row[open_draws] for row in rows])
        for keys, sure, _ in bounds:
            sure[open_draws] = exact[keys[0]]
    return {key: sure for keys, sure, _ in bounds for key in keys}


class EventDecisions:
    """Every decode event of the given role groups and modes, decided from rho-free linear forms of the unit rows.

    The variances, power splits, varpi1/varpi2, the thresholds and the guard
    band are folded into scalar cuts once, at construction (see the module
    docstring). :meth:`relay` and :meth:`user` return the same masks as
    :func:`relay_events` and :func:`user_events` on the same rows.
    """

    def __init__(self, config: SystemConfig, groups: list[Group], sic_modes: tuple[str, ...]):
        self.config, self.groups, self.sic_modes = config, groups, sic_modes
        scale = 2.0 / (1.0 + _GUARD) - 1.0  # (1 - guard) / (1 + guard); -1 for an infinite guard
        a, b, omega = config.a, config.b, config.omega
        v2 = config.varpi2
        self.inv_rho = 1.0 / config.rho
        self.omega_i = config.omega_i
        self.varpi1 = config.varpi1
        self.uplink_weight = [a_i * om_i for a_i, om_i in zip(a, omega)]
        self.relay_cuts = []
        self.user_cuts = []
        for roles, g_l, g_t in groups:
            l, t, k, r = roles.l - 1, roles.t - 1, roles.k - 1, roles.r - 1
            keys_l = tuple((f"x{roles.l}", mode) for mode in sic_modes)
            keys_t = tuple((f"x{roles.t}", mode) for mode in sic_modes)
            strong = _cuts(a[l] * omega[l], 0.0, g_l, scale)
            self.relay_cuts.append((roles, keys_l, keys_t, strong, _cuts(a[t] * omega[t], 0.0, g_t, scale)))
            cross = _cuts(b[t] * omega[k], (b[l] + v2) * omega[k], g_t, scale)
            far = _cuts(b[t] * omega[r], (b[l] + v2) * omega[r], g_t, scale)
            self.user_cuts.append((
                roles,
                keys_l,
                keys_t,
                tuple(cut * self.inv_rho for cut in cross),
                _cuts(b[l] * omega[k], v2 * omega[k], g_l, scale),
                tuple(cut * self.inv_rho for cut in far),
            ))

    def relay(self, rows: list) -> dict[tuple[str, str], np.ndarray]:
        """Relay-side success of each (signal, SIC mode) on a block of the uplink rows 0-4.

        ``x_l`` needs ``a_l·g_l > gamma_l·(a_t·g_t + varpi1·(a_k·g_k + a_r·g_r) + 1/rho)``;
        ``x_t`` also ``a_t·g_t > gamma_t·(gI + varpi1·(...) + 1/rho)``, with
        ``gI`` under ipSIC only.
        """
        load = [w * row for w, row in zip(self.uplink_weight, rows)]
        residual = self.omega_i * rows[4] if "ipSIC" in self.sic_modes else None
        bounds = []
        for roles, keys_l, keys_t, strong, weak in self.relay_cuts:
            leak = (load[roles.k - 1] + load[roles.r - 1]) * self.varpi1 + self.inv_rho
            interference = load[roles.t - 1] + leak
            u_l, u_t = rows[roles.l - 1], rows[roles.t - 1]
            l_sure, l_possible = u_l > interference * strong[0], u_l > interference * strong[1]
            bounds.append((keys_l, l_sure, l_possible))
            for key, mode in zip(keys_t, self.sic_modes):
                rest = leak + residual if mode == "ipSIC" else leak
                bounds.append(((key,), l_sure & (u_t > rest * weak[0]), l_possible & (u_t > rest * weak[1])))
        return _settle(bounds, lambda sub: relay_events(self.config, self.groups, self.sic_modes, sub), rows)

    def user(self, rows: list) -> dict[tuple[str, str], np.ndarray]:
        """User-side success of each (signal, SIC mode) on a block of the downlink rows.

        ``cross`` and ``far`` are single-row cuts. ``own`` needs
        ``b_l·g_k > gamma_l·(varpi2·g_k + gI + 1/rho)``, with ``gI`` under
        ipSIC only, so under pSIC it is a single-row cut too.
        """
        bounds = []
        for m, mode in enumerate(self.sic_modes):
            first = 5 if mode == "ipSIC" else 4  # the downlink slot's g1 row
            rest = self.omega_i * rows[first + 4] + self.inv_rho if mode == "ipSIC" else self.inv_rho
            for roles, keys_l, keys_t, cross, own, far in self.user_cuts:
                u_k, u_r = rows[first + roles.k - 1], rows[first + roles.r - 1]
                c_sure, c_possible = u_k > cross[0], u_k > cross[1]
                bounds.append((
                    keys_l[m:m + 1],
                    u_k > np.maximum(rest * own[0], cross[0]),
                    u_k > np.maximum(rest * own[1], cross[1]),
                ))
                bounds.append((keys_t[m:m + 1], c_sure & (u_r > far[0]), c_possible & (u_r > far[1])))
        return _settle(bounds, lambda sub: user_events(self.config, self.groups, self.sic_modes, sub), rows)
