"""Instantaneous SINRs of the decode stages for one fading realization.

Pure arithmetic on the sample's power gains; every formula broadcasts, so a
:class:`~twrnoma.model.ChannelSample` holding arrays yields arrays of SINRs.
The relay stage reads the uplink (multiple-access) slot and the user stage
the downlink (broadcast) slot, so each slot is evaluated only for the stage
that decodes on it. The residual gain of imperfect cancellation enters only
under ``ipSIC``; under ``pSIC`` the term is left out, not added as zero. All
denominators contain the unit noise term, so they are bounded below by 1 and
no division guards are needed.
"""

from __future__ import annotations

from .model import ChannelSample, Gain, PairRoles, SystemConfig


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
