"""Network model: servers, directed link rates, random generation, JSON I/O,
and `rewrite`, the one file writer of the package.

A server's id is its position in `NetworkGraph.servers`; the master is
always node 0.  A physical (undirected) link is stored as two directed
entries so the two directions can in principle carry different rates; the
random generator emits symmetric ones.
"""

from __future__ import annotations

import io
import json
import math
import os
import stat
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, TextIO

import numpy as np

from .errors import GenerationError, ParameterError, checked
from .units import (
    GIGA_MAX,
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

    cpu_freq: float
    tx_power: float
    switched_cap: float

    def __post_init__(self):
        checked("cpu_freq", self.cpu_freq, open_lo=True)
        checked("tx_power", self.tx_power)
        checked("switched_cap", self.switched_cap)


@dataclass(frozen=True)
class NetworkGraph:
    """Directed link-rate graph; a server's id is its position in
    `servers`, and node 0 is the master.  One pass checks the links in
    order: each link's two ends (integer ids, so True is refused and 1.0
    becomes 1), then its self-link, then its rate, which is kept as given."""

    servers: tuple[ServerParams, ...]
    links: dict[tuple[int, int], float]

    def __post_init__(self):
        if not self.servers:
            raise ParameterError("network needs at least the master server")
        top = len(self.servers) - 1
        links = {}
        for (i, j), rate in self.links.items():
            # an end that is refused leaves i and j as the link gave them
            try:
                i, j = (checked("end", e, int, 0, top) for e in (i, j))
                if i != j:
                    checked("rate", rate, open_lo=True)
            except ParameterError as exc:
                raise ParameterError(f"link ({i!r}, {j!r}) {exc}") from None
            if i == j:
                raise ParameterError(f"self-link on node {i}")
            links[i, j] = rate
        object.__setattr__(self, "links", links)

    def __len__(self) -> int:
        return len(self.servers)

    def master_reaches_all(self) -> bool:
        out: list[list[int]] = [[] for _ in self.servers]
        for a, v in self.links:
            out[a].append(v)
        seen = {MASTER_ID}
        frontier = [MASTER_ID]
        while frontier:
            for v in out[frontier.pop()]:
                if v not in seen:
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
        for name, kind, lo, hi in (
            ("node_count", int, 1, math.inf), ("edge_prob", float, 0, 1),
            ("rng_seed", int, 0, math.inf), ("gamma", float, 0, math.inf),
        ):
            v = checked(name, getattr(self, name), kind, lo, hi)
            object.__setattr__(self, name, v)
        for name in ("freq_range_ghz", "rate_range_gbps"):
            pair = getattr(self, name)
            if not isinstance(pair, (tuple, list)) or len(pair) != 2:
                raise ParameterError(f"{name} must be [lo, hi], got {pair!r}")
            lo = checked(f"{name} lo", pair[0], open_lo=True)
            hi = checked(f"{name} hi", pair[1], float, lo)
            object.__setattr__(self, name, (lo, hi))


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
_DBM_MAX = math.floor(watts_to_dbm(sys.float_info.max))


def network_to_doc(net: NetworkGraph) -> dict:
    return {
        "units": dict(_EXPECTED_UNITS),
        "servers": [
            {
                "id": i,
                "cpu_freq_ghz": hz_to_ghz(s.cpu_freq),
                "tx_power_dbm": watts_to_dbm(s.tx_power) if s.tx_power > 0 else -math.inf,
                "gamma": s.switched_cap,
            }
            for i, s in enumerate(net.servers)
        ],
        "links": [
            {"i": i, "j": j, "rate_gbps": bps_to_gbps(rate)}
            for (i, j), rate in sorted(net.links.items())
        ],
    }


def _dbm_watts(dbm) -> float:
    """A tx_power_dbm entry in watts; -Infinity, which network_to_doc writes
    for a silent radio, is 0 W."""
    if dbm == -math.inf:
        return 0.0
    return dbm_to_watts(checked("tx_power_dbm", dbm, float, -math.inf, _DBM_MAX))


def network_from_doc(doc: dict) -> NetworkGraph:
    """Parse the document form; one of the wrong shape raises ParameterError.

    Server ids must be 0..N-1, in any order.  Each number is checked in the
    file's units, with bounds that keep its SI value finite, and then again
    in SI units by the constructors.
    """
    try:
        units = doc.get("units", {})
        for key, expected in _EXPECTED_UNITS.items():
            declared = units.get(key, expected)
            if declared != expected:
                raise ParameterError(f"unsupported unit for {key}: {declared!r}")
        rows = sorted(doc["servers"], key=lambda s: s["id"])
        ids = [checked("server id", s["id"], int) for s in rows]
        if ids != list(range(len(ids))):
            raise ParameterError(f"server ids must be 0..N, got {ids}")
        servers = tuple(
            ServerParams(
                cpu_freq=ghz_to_hz(
                    checked("cpu_freq_ghz", s["cpu_freq_ghz"], float, 0, GIGA_MAX, True)
                ),
                tx_power=_dbm_watts(s["tx_power_dbm"]),
                switched_cap=checked("gamma", s["gamma"]),
            )
            for s in rows
        )
        links = {
            (e["i"], e["j"]): gbps_to_bps(
                checked("rate_gbps", e["rate_gbps"], float, 0, GIGA_MAX, True)
            )
            for e in doc["links"]
        }
    except KeyError as missing:
        raise ParameterError(f"network document missing key {missing}") from None
    except (AttributeError, TypeError) as exc:  # a part of the wrong type
        raise ParameterError(f"network document: wrong type: {exc}") from None
    return NetworkGraph(servers=servers, links=links)


def save_network(net: NetworkGraph, path) -> None:
    write_json(path, network_to_doc(net))


def load_network(path) -> NetworkGraph:
    """Read a network file; malformed content raises ParameterError naming it."""
    with open(path, "rb") as fh:
        return parse_network(path, fh.read())


def parse_network(path, content: bytes) -> NetworkGraph:
    """The network in `content`, the bytes of file `path`, decoded as
    ``open(path)`` decodes them; malformed content raises ParameterError
    naming `path`."""
    try:
        return network_from_doc(json.load(io.TextIOWrapper(io.BytesIO(content))))
    except ValueError as exc:  # bad JSON, undecodable bytes, ParameterError
        raise ParameterError(f"{path}: not a network file: {exc}") from None


# --- file writing ----------------------------------------------------------


def _no_truncate(path, flags: int) -> int:
    """`open`'s opener for mode "w" without its O_TRUNC."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


@contextmanager
def rewrite(path, newline: str | None = None) -> Iterator[TextIO]:
    """Open a text file for writing like ``open(path, "w", newline=newline)``,
    but write over the old bytes in place and cut the file at the final
    position on exit instead of truncating it to zero first.

    On ext4 (``auto_da_alloc``, its default) closing a file that was
    truncated to zero starts writeback of the new data, so a caller that
    rewrites the same file on every request pays a flush each time; cutting
    the file to its written length does not. The bytes of a successful
    write, the encoding, the newline handling, the mode of a new file
    (0o666 less the umask) and the following of symlinks are those of
    ``open(path, "w")``. A write that raises leaves what that leaves too:
    the file is cut where the write stopped, so it holds the partial new
    bytes and none of the old ones. Only a regular file is cut; /dev/null,
    a FIFO or another special file is written as it is.

    Nothing is atomic or synced. Readers can see a rewrite in progress, and
    after a crash in the middle of one the file can hold old bytes after
    the new ones, where ``open(path, "w")`` could have left it empty. A
    caller that needs the file to survive a crash must fsync it.
    """
    with open(path, "w", newline=newline, opener=_no_truncate) as fh:
        try:
            yield fh
        finally:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()


def write_json(path, doc) -> None:
    """Write `doc` as JSON indented by 2, and a newline, through `rewrite`
    in one write; a `doc` that does not encode leaves the file untouched."""
    text = json.dumps(doc, indent=2) + "\n"
    with rewrite(path) as fh:
        fh.write(text)
