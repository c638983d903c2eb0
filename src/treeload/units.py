"""Unit conversions.

Everything inside the package is kept in SI base units: bits, bits/s,
cycles, cycles/s (Hz), watts, joules, seconds.  Files and CLI flags may
speak Gbit / Gbps / GHz / dBm; these helpers convert at the boundary.
"""

import math
import sys

GIGA = 1e9
# the bound of every Gbit, Gbps or GHz input: its SI value stays finite
GIGA_MAX = sys.float_info.max / GIGA

# default cycles-per-bit workload density: 1e6 cycles per Gbit
DEFAULT_CYCLES_PER_GBIT = 1e6
DEFAULT_B = DEFAULT_CYCLES_PER_GBIT / GIGA


def ghz_to_hz(v: float) -> float:
    return v * GIGA


def hz_to_ghz(v: float) -> float:
    return v / GIGA


def gbps_to_bps(v: float) -> float:
    return v * GIGA


def bps_to_gbps(v: float) -> float:
    return v / GIGA


def gbit_to_bits(v: float) -> float:
    return v * GIGA


def bits_to_gbit(v: float) -> float:
    return v / GIGA


def dbm_to_watts(v: float) -> float:
    # 30 dBm is exactly 1 W
    return 10.0 ** ((v - 30.0) / 10.0)


def watts_to_dbm(v: float) -> float:
    if v <= 0.0:
        raise ValueError(f"power must be positive to express in dBm, got {v}")
    return 30.0 + 10.0 * math.log10(v)


def cycles_per_gbit_to_si(v: float) -> float:
    """Workload density in cycles/Gbit to cycles/bit."""
    return v / GIGA
