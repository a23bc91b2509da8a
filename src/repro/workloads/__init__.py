"""Workload models: the benchmarks the paper evaluates with."""

from repro.workloads.base import Workload
from repro.workloads.fio import BLOCK_BYTES, IODEPTH, FioReader, spawn_fio_fleet
from repro.workloads.memcached import (
    CLIENT_INSTANCES,
    KEY_BYTES,
    VALUE_BYTES,
    MemcachedServer,
)
from repro.workloads.netperf import RequestResponse, TcpStream
from repro.workloads.pagerank import PageRank
from repro.workloads.pktgen import Pktgen
from repro.workloads.stream_bench import (
    StreamPair,
    StreamThread,
    spawn_stream_pairs,
)

__all__ = [
    "BLOCK_BYTES",
    "CLIENT_INSTANCES",
    "FioReader",
    "IODEPTH",
    "KEY_BYTES",
    "MemcachedServer",
    "PageRank",
    "Pktgen",
    "RequestResponse",
    "StreamPair",
    "StreamThread",
    "TcpStream",
    "VALUE_BYTES",
    "Workload",
    "spawn_fio_fleet",
    "spawn_stream_pairs",
]
