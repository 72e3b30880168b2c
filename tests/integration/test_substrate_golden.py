"""Simulated statistics are golden: a change that only speeds up the
simulator must leave every one of them identical.

Three of the paper's workloads at a small scale on a machine whose page
cache holds 1,024 pages (256 for the compile, whose working set is 521)
so that the cache fills, evicts and misses even at this size, with and
without provenance.  Pinned per run: the simulated clock per charge
category, the page cache's hits / misses / evictions / resident pages,
and the disk's seek classes and byte totals.  Floats compare with
``==``: the cost model is deterministic and the same additions happen
in the same order.

Provenance of the values: recorded by running this file as a script
(``PYTHONPATH=src python tests/integration/test_substrate_golden.py``)
on commit a85cb17 -- the parent of the run-granular page cache, with
the per-page ``OrderedDict`` cache, the per-block ``Inode.blocks`` walk
and the per-block ``Volume._charge_read`` loop -- before any edit under
``src/``.  Re-record only for a change that *means* to move the model,
and say so in the commit.
"""

import json

import pytest

from repro.kernel.params import CacheParams, SimParams
from repro.system import BootConfig, System
from repro.workloads import (
    CompileWorkload,
    MercurialWorkload,
    PostmarkWorkload,
)

SCALE = 0.1
#: Workload name -> (class, page-cache capacity in pages).
WORKLOADS = {PostmarkWorkload.name: (PostmarkWorkload, 1024),
             CompileWorkload.name: (CompileWorkload, 256),
             MercurialWorkload.name: (MercurialWorkload, 1024)}
DISK_STATS = ("seeks", "short_seeks", "sequential_accesses",
              "bytes_read", "bytes_written")

GOLDEN = {
    "Linux Compile/ext3": {
        "clock": {
            "disk_write": 0.10526263333333313,
            "syscall_cpu": 0.001363299999999999,
            "user_cpu": 1.1600000000000006,
        },
        "cache": {
            "hits": 288,
            "misses": 0,
            "evictions": 265,
            "pages": 256,
        },
        "disk": {
            "seeks": 1,
            "short_seeks": 74,
            "sequential_accesses": 69,
            "bytes_read": 0,
            "bytes_written": 2003558,
        },
    },
    "Linux Compile/passv2": {
        "clock": {
            "disk_write": 0.293718666666667,
            "provenance_cpu": 0.004564799999999986,
            "syscall_cpu": 0.001363299999999999,
            "stack_copy": 0.0014807999999999985,
            "user_cpu": 1.1600000000000006,
            "disk_read": 0.0033557333333333332,
        },
        "cache": {
            "hits": 274,
            "misses": 14,
            "evictions": 318,
            "pages": 217,
        },
        "disk": {
            "seeks": 1,
            "short_seeks": 147,
            "sequential_accesses": 67,
            "bytes_read": 57344,
            "bytes_written": 2030920,
        },
    },
    "Mercurial Activity/ext3": {
        "clock": {
            "disk_write": 2.006925333333356,
            "syscall_cpu": 0.003063800000000021,
            "disk_read": 0.5583427999999999,
            "user_cpu": 0.7200000000000003,
        },
        "cache": {
            "hits": 73,
            "misses": 1683,
            "evictions": 17857,
            "pages": 1024,
        },
        "disk": {
            "seeks": 71,
            "short_seeks": 468,
            "sequential_accesses": 334,
            "bytes_read": 6893568,
            "bytes_written": 70584320,
        },
    },
    "Mercurial Activity/passv2": {
        "clock": {
            "disk_write": 2.4669067999999954,
            "provenance_cpu": 0.011959200000000062,
            "syscall_cpu": 0.003063800000000021,
            "stack_copy": 0.045369600000000176,
            "disk_read": 0.5583427999999999,
            "user_cpu": 0.7200000000000003,
        },
        "cache": {
            "hits": 73,
            "misses": 1683,
            "evictions": 18011,
            "pages": 870,
        },
        "disk": {
            "seeks": 71,
            "short_seeks": 886,
            "sequential_accesses": 334,
            "bytes_read": 6893568,
            "bytes_written": 70679208,
        },
    },
    "Postmark/ext3": {
        "clock": {
            "disk_write": 2.740809316666624,
            "syscall_cpu": 0.0028905999999999806,
            "disk_read": 0.6604435999999999,
        },
        "cache": {
            "hits": 506,
            "misses": 3921,
            "evictions": 26013,
            "pages": 1024,
        },
        "disk": {
            "seeks": 87,
            "short_seeks": 571,
            "sequential_accesses": 166,
            "bytes_read": 16060416,
            "bytes_written": 94469359,
        },
    },
    "Postmark/passv2": {
        "clock": {
            "disk_write": 3.0636709166666187,
            "provenance_cpu": 0.00596879999999993,
            "syscall_cpu": 0.0028905999999999806,
            "stack_copy": 0.06601439999999993,
            "disk_read": 0.6604435999999999,
        },
        "cache": {
            "hits": 506,
            "misses": 3921,
            "evictions": 26168,
            "pages": 870,
        },
        "disk": {
            "seeks": 87,
            "short_seeks": 811,
            "sequential_accesses": 166,
            "bytes_read": 16060416,
            "bytes_written": 94521055,
        },
    },
}


def measure(name: str, provenance: bool) -> dict:
    """Run one workload as ``run_local`` does and read the substrate."""
    workload_cls, cache_pages = WORKLOADS[name]
    params = SimParams(cache=CacheParams(capacity_pages=cache_pages))
    system = System.boot(config=BootConfig(
        params=params, provenance=provenance,
        pass_volumes=("pass",), plain_volumes=()))
    workload = workload_cls(scale=SCALE)
    workload.setup(system, "/pass")
    workload.run(system, "/pass")
    kernel = system.kernel
    cache, disk = kernel.cache, kernel.disk
    return {
        "clock": kernel.clock.breakdown(),
        "cache": {"hits": cache.hits, "misses": cache.misses,
                  "evictions": cache.evictions, "pages": len(cache)},
        "disk": {stat: getattr(disk, stat) for stat in DISK_STATS},
    }


def case_id(name: str, provenance: bool) -> str:
    return f"{name}/{'passv2' if provenance else 'ext3'}"


@pytest.mark.parametrize("provenance", (False, True),
                         ids=("ext3", "passv2"))
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_simulated_statistics_match_the_recording(name, provenance):
    measured = measure(name, provenance)
    golden = GOLDEN[case_id(name, provenance)]
    for section in ("cache", "disk", "clock"):
        assert measured[section] == golden[section], section


def test_the_recording_exercises_the_cache():
    """The pins would prove little on a cache that never fills."""
    for case, golden in GOLDEN.items():
        cache = golden["cache"]
        assert cache["evictions"] > 0, case
        assert cache["hits"] > 0, case
    assert GOLDEN["Postmark/passv2"]["cache"]["misses"] > 0
    assert GOLDEN["Mercurial Activity/ext3"]["cache"]["misses"] > 0


if __name__ == "__main__":
    print(json.dumps(
        {case_id(name, provenance): measure(name, provenance)
         for name in sorted(WORKLOADS) for provenance in (False, True)},
        indent=4))
