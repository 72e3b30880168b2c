"""Workload harness: run one workload under one configuration.

Configurations mirror the paper's two experiment batches:

* :func:`run_local` -- PASSv2 vs vanilla ext3 on one machine;
* :func:`run_nfs`   -- PA-NFS vs NFS (client machine + server machine
  over a simulated LAN).

A result carries the simulated elapsed time, the bytes of file data the
workload left on disk (the Table 3 'Ext3' column), and -- when
provenance was on -- the provenance database and index sizes.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.kernel.clock import SimClock, Stopwatch
from repro.kernel.params import SimParams
from repro.system import BootConfig, System


@dataclass
class WorkloadResult:
    """Outcome of one workload run under one configuration."""

    workload: str
    config: str                     # 'ext3', 'passv2', 'nfs', 'pa-nfs'
    elapsed: float                  # simulated seconds
    data_bytes: int                 # file bytes on the measured volume
    bytes_written: int = 0          # cumulative data written (Table 3 base)
    provenance_bytes: int = 0       # database size (Table 3 col 2)
    index_bytes: int = 0            # index size (Table 3 col 3 delta)
    stats: dict = field(default_factory=dict)
    breakdown: dict = field(default_factory=dict)
    #: Real seconds ``workload.run`` took (``run_local`` only): what the
    #: simulator itself costs, beside the simulated ``elapsed``.
    wall_s: float = 0.0

    @property
    def provenance_total(self) -> int:
        return self.provenance_bytes + self.index_bytes


def overhead_pct(base: WorkloadResult, testable: WorkloadResult) -> float:
    """Relative elapsed-time overhead, in percent."""
    if base.elapsed == 0:
        return 0.0
    return 100.0 * (testable.elapsed - base.elapsed) / base.elapsed


class Workload(abc.ABC):
    """One benchmark workload, sized by a scale factor."""

    name = "workload"

    def __init__(self, scale: float = 1.0, seed: int = 42):
        self.scale = scale
        self.seed = seed

    def setup(self, system: System, root: str) -> None:
        """Unmeasured preparation (e.g. Mercurial's existing checkout --
        the paper 'starts with a vanilla Linux kernel tree')."""

    @abc.abstractmethod
    def run(self, system: System, root: str) -> dict:
        """Execute against ``root`` (a PASS or NFS mount); returns stats."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} scale={self.scale}>"


def run_local(workload: Workload, provenance: bool,
              params: Optional[SimParams] = None) -> WorkloadResult:
    """One machine: PASSv2 (provenance=True) or vanilla ext3."""
    system = System.boot(config=BootConfig(
        params=params, provenance=provenance,
        pass_volumes=("pass",), plain_volumes=()))
    clock = system.kernel.clock
    volume = system.kernel.volume("pass")
    workload.setup(system, "/pass")
    setup_bytes = volume.data_bytes_written
    started = time.perf_counter()
    with Stopwatch(clock) as watch:
        stats = workload.run(system, "/pass")
    result = WorkloadResult(
        workload=workload.name,
        config="passv2" if provenance else "ext3",
        elapsed=watch.elapsed,
        wall_s=time.perf_counter() - started,
        data_bytes=volume.used_bytes(),
        bytes_written=volume.data_bytes_written - setup_bytes,
        stats=stats or {},
        breakdown=clock.breakdown(),
    )
    if provenance:
        system.sync()
        sizes = system.tier.sizes("pass")
        result.provenance_bytes = sizes["database"]
        result.index_bytes = sizes["indexes"]
    return result


def run_nfs(workload: Workload, provenance: bool,
            params: Optional[SimParams] = None) -> WorkloadResult:
    """Client + server over the simulated LAN: PA-NFS or plain NFS."""
    from repro.nfs import NFSClient, NFSServer, Network

    clock = SimClock()
    shared = BootConfig(params=params, provenance=provenance, clock=clock)
    server_sys = System.boot(config=shared, hostname="server",
                             pass_volumes=("export",), plain_volumes=())
    server = NFSServer(server_sys, "export")
    client_sys = System.boot(config=shared, hostname="client",
                             pass_volumes=("local",) if provenance else (),
                             plain_volumes=("scratch",))
    network = Network(clock, client_sys.kernel.params.net,
                      obs=client_sys.obs)
    client = NFSClient(client_sys, server, network, mountpoint="/nfs")
    workload.setup(client_sys, "/nfs")
    setup_bytes = server.volume.data_bytes_written
    with Stopwatch(clock) as watch:
        stats = workload.run(client_sys, "/nfs")
    result = WorkloadResult(
        workload=workload.name,
        config="pa-nfs" if provenance else "nfs",
        elapsed=watch.elapsed,
        data_bytes=server.volume.used_bytes(),
        bytes_written=server.volume.data_bytes_written - setup_bytes,
        stats=stats or {},
        breakdown=clock.breakdown(),
    )
    if provenance:
        client.sync()
        server_sys.sync()
        sizes = server_sys.tier.sizes("export")
        result.provenance_bytes = sizes["database"]
        result.index_bytes = sizes["indexes"]
    result.stats["network_calls"] = network.calls
    return result
