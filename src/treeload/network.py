"""Network model: servers, directed link rates, random generation, JSON I/O.

The master is always node 0.  A physical (undirected) link is stored as two
directed entries so the two directions can in principle carry different
rates; the random generator emits symmetric ones.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import GenerationError, ParameterError, _store_checked
from .units import (
    bps_to_gbps,
    dbm_to_watts,
    gbps_to_bps,
    ghz_to_hz,
    hz_to_ghz,
    watts_to_dbm,
)

MASTER_ID = 0
# generate_network draws this many networks before giving up
RETRY_BUDGET = 100
# every generated server's radio transmit power, W (30 dBm)
GEN_TX_POWER = 1.0


@dataclass(frozen=True)
class ServerParams:
    """Per-server physical parameters, SI units.

    cpu_freq: clock rate in cycles/s.
    tx_power: radio transmit power in watts.
    switched_cap: effective switched-capacitance coefficient; computation
        energy is switched_cap * cycles * cpu_freq**2.
    """

    id: int
    cpu_freq: float
    tx_power: float
    switched_cap: float

    def __post_init__(self):
        if type(self.id) is not int or self.id < 0:  # also refuses true and false
            raise ParameterError(f"server id must be an integer >= 0, got {self.id!r}")
        if not self.cpu_freq > 0.0:
            raise ParameterError(f"server {self.id}: cpu_freq must be > 0")
        if self.tx_power < 0.0:
            raise ParameterError(f"server {self.id}: tx_power must be >= 0")
        if self.switched_cap < 0.0:
            raise ParameterError(f"server {self.id}: switched_cap must be >= 0")


@dataclass(frozen=True)
class NetworkGraph:
    """Directed link-rate graph over a set of servers; node 0 is the master."""

    servers: tuple[ServerParams, ...]
    links: dict[tuple[int, int], float]

    def __post_init__(self):
        ids = [s.id for s in self.servers]
        if ids != list(range(len(ids))):
            raise ParameterError(f"server ids must be 0..N, got {ids}")
        if not ids:
            raise ParameterError("network needs at least the master server")
        n = len(ids)
        for (i, j), rate in self.links.items():
            if not (type(i) is int and type(j) is int and 0 <= i < n and 0 <= j < n):
                raise ParameterError(f"link ({i!r}, {j!r}): i and j must be server ids")
            if i == j:
                raise ParameterError(f"self-link on node {i}")
            if not rate > 0.0:
                raise ParameterError(f"link ({i}, {j}): rate must be > 0, got {rate}")

    def __len__(self) -> int:
        return len(self.servers)

    def rate(self, i: int, j: int) -> float:
        try:
            return self.links[(i, j)]
        except KeyError:
            raise ParameterError(f"no link ({i}, {j}) in network") from None

    def master_reaches_all(self) -> bool:
        seen = {MASTER_ID}
        frontier = [MASTER_ID]
        while frontier:
            u = frontier.pop()
            for a, v in self.links:
                if a == u and v not in seen:
                    seen.add(v)
                    frontier.append(v)
        return len(seen) == len(self)


@dataclass(frozen=True)
class GenParams:
    """Random-network recipe (Erdos-Renyi links, uniform parameter draws);
    every generated server transmits at GEN_TX_POWER."""

    node_count: int
    edge_prob: float
    rng_seed: int
    freq_range_ghz: tuple[float, float] = (1.0, 10.0)
    rate_range_gbps: tuple[float, float] = (10.0, 100.0)
    gamma: float = 1e-2

    def __post_init__(self):
        _store_checked(self, int, node_count=(1, math.inf), rng_seed=(0, math.inf))
        if not 0.0 <= self.edge_prob <= 1.0:
            raise ParameterError("edge_prob must be in [0, 1]")
        lo, hi = self.freq_range_ghz
        if not (0.0 < lo <= hi):
            raise ParameterError("freq_range_ghz must satisfy 0 < lo <= hi")
        lo, hi = self.rate_range_gbps
        if not (0.0 < lo <= hi):
            raise ParameterError("rate_range_gbps must satisfy 0 < lo <= hi")
        if self.gamma < 0.0:
            raise ParameterError("gamma must be >= 0")


def generate_network(params: GenParams) -> NetworkGraph:
    """Sample a connected random network; same params give the same network.

    Edges are sampled per unordered pair, both directions get the same rate.
    Disconnected draws are resampled from the same stream; when the retry
    budget runs out the seed is reported in the error.
    """
    rng = np.random.default_rng(params.rng_seed)
    n = params.node_count
    f_lo, f_hi = params.freq_range_ghz
    r_lo, r_hi = params.rate_range_gbps

    for _ in range(RETRY_BUDGET):
        servers = tuple(
            ServerParams(
                id=i,
                cpu_freq=ghz_to_hz(float(rng.uniform(f_lo, f_hi))),
                tx_power=GEN_TX_POWER,
                switched_cap=params.gamma,
            )
            for i in range(n)
        )
        links: dict[tuple[int, int], float] = {}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < params.edge_prob:
                    rate = gbps_to_bps(float(rng.uniform(r_lo, r_hi)))
                    links[(i, j)] = rate
                    links[(j, i)] = rate
        net = NetworkGraph(servers=servers, links=links)
        if net.master_reaches_all():
            return net
    raise GenerationError(
        f"no connected network within {RETRY_BUDGET} draws "
        f"(seed={params.rng_seed}, n={n}, edge_prob={params.edge_prob})"
    )


# --- JSON document form -------------------------------------------------
#
# {
#   "units": {"cpu_freq": "ghz", "rate": "gbps", "tx_power": "dbm"},
#   "servers": [{"id": 0, "cpu_freq_ghz": 2.0, "tx_power_dbm": 30.0, "gamma": 1e-2}, ...],
#   "links": [{"i": 0, "j": 1, "rate_gbps": 10.0}, ...]
# }
#
# The units block is optional metadata; the field names already carry the
# units and are the only accepted spelling.

_EXPECTED_UNITS = {"cpu_freq": "ghz", "rate": "gbps", "tx_power": "dbm"}


def network_to_doc(net: NetworkGraph) -> dict:
    return {
        "units": dict(_EXPECTED_UNITS),
        "servers": [
            {
                "id": s.id,
                "cpu_freq_ghz": hz_to_ghz(s.cpu_freq),
                "tx_power_dbm": watts_to_dbm(s.tx_power) if s.tx_power > 0 else -math.inf,
                "gamma": s.switched_cap,
            }
            for s in net.servers
        ],
        "links": [
            {"i": i, "j": j, "rate_gbps": bps_to_gbps(rate)}
            for (i, j), rate in sorted(net.links.items())
        ],
    }


def _number(entry: dict, key: str) -> float:
    """entry[key] as a float; strings, true and false are refused."""
    v = entry[key]
    if type(v) not in (int, float):
        raise ParameterError(f"network document: {key} must be a number, got {v!r}")
    return float(v)


def network_from_doc(doc: dict) -> NetworkGraph:
    """Parse the document form; one of the wrong shape raises ParameterError."""
    try:
        units = doc.get("units", {})
        for key, expected in _EXPECTED_UNITS.items():
            declared = units.get(key, expected)
            if declared != expected:
                raise ParameterError(f"unsupported unit for {key}: {declared!r}")
        servers = tuple(
            ServerParams(
                id=s["id"],
                cpu_freq=ghz_to_hz(_number(s, "cpu_freq_ghz")),
                tx_power=dbm_to_watts(_number(s, "tx_power_dbm")),
                switched_cap=_number(s, "gamma"),
            )
            for s in sorted(doc["servers"], key=lambda s: s["id"])
        )
        links = {
            (e["i"], e["j"]): gbps_to_bps(_number(e, "rate_gbps"))
            for e in doc["links"]
        }
    except KeyError as missing:
        raise ParameterError(f"network document missing key {missing}") from None
    except (AttributeError, TypeError) as exc:  # a part of the wrong type
        raise ParameterError(f"network document: wrong type: {exc}") from None
    return NetworkGraph(servers=servers, links=links)


def save_network(net: NetworkGraph, path) -> None:
    with open(path, "w") as fh:
        json.dump(network_to_doc(net), fh, indent=2)
        fh.write("\n")


def load_network(path) -> NetworkGraph:
    """Read a network file; malformed content raises ParameterError naming it."""
    with open(path) as fh:
        try:
            return network_from_doc(json.load(fh))
        except ValueError as exc:  # bad JSON, undecodable bytes, ParameterError
            raise ParameterError(f"{path}: not a network file: {exc}") from None
