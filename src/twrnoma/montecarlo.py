"""Seeded Monte Carlo estimation of outage probabilities and ergodic rates.

Estimates are built from the raw decoding events, never from the derived
formulas, so they validate the analysis module independently. Each trial
realizes the two transmission slots as independent fading blocks: the relay
decode events are evaluated on the multiple-access block, the user decode
events on the broadcast block. One engine, :func:`mc_outage`, counts the
failures of both signals of a role group on the same draws, as the two
signals share the relay's first decode and the opposite pair's receivers.
Trials are partitioned into fixed-size chunks on disjoint substreams with
integer event counts merged at the end, so a given seed yields identical
results for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .model import PairRoles, RandomStream, SystemConfig, sample_channel_block, sinr_threshold
from .sinr import SinrSet, compute_sinrs

CHUNK_SIZE = 1 << 17
DEFAULT_TRIALS = 10**6  # reference iteration count for the numerical presets
_MIN_TRIALS = 1000
_WILSON_Z = 1.959963984540054  # 95% two-sided normal quantile


def wilson_interval(successes: int, trials: int, z: float = _WILSON_Z) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion; valid near 0 and 1."""
    if trials <= 0:
        return (0.0, 1.0)
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2.0 * trials)) / denom
    margin = (z / denom) * math.sqrt(p_hat * (1.0 - p_hat) / trials + z * z / (4.0 * trials * trials))
    # the interval must contain the point estimate despite rounding at 0 and 1
    low = min(max(0.0, center - margin), p_hat)
    high = max(min(1.0, center + margin), p_hat)
    return (low, high)


@dataclass(frozen=True)
class OutageEstimate:
    """A simulated outage probability with its 95% confidence interval."""

    p_hat: float
    trials: int
    ci_low: float
    ci_high: float
    seed: int
    signal: str
    mode: str
    roles: PairRoles


@dataclass(frozen=True)
class ErgodicRateEstimate:
    """Mean end-to-end achievable rates (BPCU) for the pair's two signals."""

    rates: dict[str, float]
    trials: int
    seed: int


def _chunks(trials: int) -> list[tuple[int, int]]:
    """(substream index, size) of every chunk of a run of ``trials`` draws."""
    if trials < _MIN_TRIALS:
        raise ConfigError(f"at least {_MIN_TRIALS} trials are required, got {trials}")
    bounds = []
    index = 0
    done = 0
    while done < trials:
        size = min(CHUNK_SIZE, trials - done)
        bounds.append((index, size))
        done += size
        index += 1
    return bounds


def _slot_sinrs(
    config: SystemConfig, roles: PairRoles, stream: RandomStream, size: int
) -> tuple[SinrSet, SinrSet]:
    """SINRs of one chunk's two slots: the multiple-access block, then the broadcast block."""
    uplink = compute_sinrs(config, roles, sample_channel_block(stream, config, size))
    downlink = compute_sinrs(config, roles, sample_channel_block(stream, config, size))
    return uplink, downlink


def mc_outage(
    config: SystemConfig,
    roles: PairRoles,
    trials: int = DEFAULT_TRIALS,
    seed: int = 1,
    workers: int = 1,
) -> dict[str, OutageEstimate]:
    """Simulated outage of the pair's two signals, keyed by signal, from the same draws.

    ``x_l`` needs the relay's first decode and, at the opposite pair's near
    user, the decode of ``x_t`` and then its own; ``x_t`` needs both relay
    decodes, that near user's first decode and the far user's decode.
    """
    bounds = _chunks(trials)
    g_l = sinr_threshold(config.rates[roles.l - 1])
    g_t = sinr_threshold(config.rates[roles.t - 1])
    root = RandomStream(seed)

    def failures(bound: tuple[int, int]) -> tuple[int, int]:
        index, size = bound
        uplink, downlink = _slot_sinrs(config, roles, root.substream(index), size)
        relay_l = uplink.relay_strong > g_l
        cross_t = downlink.user_cross > g_t
        ok_l = relay_l & cross_t & (downlink.user_own > g_l)
        ok_t = relay_l & (uplink.relay_weak > g_t) & cross_t & (downlink.far_user > g_t)
        return size - int(ok_l.sum()), size - int(ok_t.sum())

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(failures, bounds))
    else:
        counts = [failures(bound) for bound in bounds]
    fails = {f"x{roles.l}": sum(c[0] for c in counts), f"x{roles.t}": sum(c[1] for c in counts)}
    estimates = {}
    for signal, n in fails.items():
        lo, hi = wilson_interval(n, trials)
        estimates[signal] = OutageEstimate(n / trials, trials, lo, hi, seed, signal, config.sic_mode, roles)
    return estimates


def mc_ergodic_rates(
    config: SystemConfig, roles: PairRoles, trials: int = DEFAULT_TRIALS, seed: int = 1
) -> ErgodicRateEstimate:
    """Mean end-to-end achievable rates of the pair's signals.

    Each signal's rate per draw is 0.5 * log2(1 + min of its two decode
    stages), the relay stage on the multiple-access block and its destination
    stage on the broadcast block; the half accounts for the two-slot
    exchange. The relay-side interference makes these rates saturate at high
    SNR, which is the ceiling the delay-limited throughput runs into.
    """
    root = RandomStream(seed)
    sum_l = []
    sum_t = []
    for index, size in _chunks(trials):
        uplink, downlink = _slot_sinrs(config, roles, root.substream(index), size)
        chain_l = np.minimum(uplink.relay_strong, downlink.user_own)
        chain_t = np.minimum(uplink.relay_weak, downlink.far_user)
        sum_l.append(float(np.log2(1.0 + chain_l).sum()))
        sum_t.append(float(np.log2(1.0 + chain_t).sum()))
    rates = {
        f"x{roles.l}": 0.5 * math.fsum(sum_l) / trials,
        f"x{roles.t}": 0.5 * math.fsum(sum_t) / trials,
    }
    return ErgodicRateEstimate(rates, trials, seed)
