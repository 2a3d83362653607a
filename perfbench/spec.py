"""The benchmark's definition: workloads, metrics and bounds.

BENCHMARK.json at the repository root is generated from this file
(`python3 perfbench/run.py --write-spec`). Per-layer metrics also record
here which end-to-end metric each one should move and on which workloads;
`python3 perfbench/run.py --describe` prints that map.
"""

WORKLOADS = [
    {
        "name": "paper_tokyo",
        "why": "Paper 7.1 query (plain |S|=2-5, distinct trees) on the "
        "527k-vertex Tokyo-like graph, no index: core BSSR does all the "
        "work, retrieval, caches and service stay idle",
    },
    {
        "name": "mixed_tail",
        "why": "bench_hotpath predicate mix (|S| 1-4, or/and/not, "
        "destinations) on 2.5k-vertex grid/cluster/smallworld with "
        "CH+buckets: the slow-query tail and the retrieval backends",
    },
    {
        "name": "serve_hubs",
        "why": "QueryService at defaults, 3 workers, 4 in flight, hub "
        "starts/destinations, Zipf rounds over 768 distinct queries: result "
        "cache, dest-tail LRU and shared cache read and write",
    },
]

# bound = share of the parent's median by which the metric may worsen.
END_TO_END = [
    {"name": "throughput_qps", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "goodput_1s_qps", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "latency_p99_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "sum_min_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.2},
]

ENGINE = ["paper_tokyo", "mixed_tail"]
SERVE = ["serve_hubs"]
INDEXED = ["mixed_tail", "serve_hubs"]
ALL = ["paper_tokyo", "mixed_tail", "serve_hubs"]


def _layer(name, unit, better, moves, on):
    return {"name": name, "unit": unit, "better": better, "moves": moves,
            "on": on}


# moves: the end-to-end metrics the layer metric should move; on: the
# workloads where it does. A traced run must measure every metric of its
# workload; run.py reports 0 for the others. The retrieval counters must
# read 0 on paper_tokyo: the run checks it.
PER_LAYER = [
    _layer("graph.settled_per_query", "count", "lower",
           ["throughput_qps", "sum_min_s"], ["paper_tokyo"]),
    _layer("graph.settles_per_s", "1/s", "higher",
           ["throughput_qps", "sum_min_s"], ["paper_tokyo"]),
    _layer("index.ch_build_s", "s", "lower", ["setup_s"], INDEXED),
    _layer("index.ch_mb", "MB", "lower", ["peak_rss_mb"], INDEXED),
    _layer("index.oracle_table_ms", "ms", "lower", ["latency_p99_ms"],
           ["mixed_tail"]),
    _layer("retrieval.bucket_build_s", "s", "lower", ["setup_s"], INDEXED),
    _layer("retrieval.bucket_mb", "MB", "lower", ["peak_rss_mb"], INDEXED),
    _layer("retrieval.bucket_runs_per_query", "count", "lower",
           ["latency_p99_ms"], INDEXED),
    _layer("retrieval.resume_runs_per_query", "count", "lower",
           ["latency_p99_ms"], INDEXED),
    _layer("retrieval.candidates_per_run", "count", "lower",
           ["latency_p99_ms"], INDEXED),
    # Self time of the library's `retrieval` trace phase, which also wraps
    # the classic settle loop: non-zero on paper_tokyo too.
    _layer("retrieval.ms", "ms", "lower", ["latency_p99_ms", "sum_min_s"],
           ENGINE),
    _layer("core.enqueued_per_query", "count", "lower", ["sum_min_s"], ENGINE),
    _layer("core.dequeued_per_query", "count", "lower", ["sum_min_s"], ENGINE),
    _layer("core.peak_queue", "count", "lower", ["sum_min_s"], ENGINE),
    _layer("core.cand_examined_per_query", "count", "lower", ["sum_min_s"],
           ENGINE),
    _layer("core.cand_pruned_ratio", "ratio", "higher", ["sum_min_s"], ENGINE),
    _layer("core.simd_skipped_per_query", "count", "higher", ["sum_min_s"],
           ENGINE),
    _layer("core.dom_pruned_per_query", "count", "higher", ["sum_min_s"],
           ENGINE),
    _layer("core.expansions_per_query", "count", "lower", ["sum_min_s"],
           ENGINE),
    _layer("core.expansion_cache_hit_ratio", "ratio", "higher", ["sum_min_s"],
           ENGINE),
    _layer("core.empty_time_share", "ratio", "lower",
           ["throughput_qps", "latency_p99_ms"], ["mixed_tail"]),
    _layer("core.top5_time_share", "ratio", "lower",
           ["throughput_qps", "latency_p99_ms"], ["mixed_tail"]),
    _layer("core.logical_peak_mb", "MB", "lower", ["peak_rss_mb"], ENGINE),
    _layer("core.nn_init_ms", "ms", "lower", ["sum_min_s"], ENGINE),
    _layer("core.lower_bound_ms", "ms", "lower", ["sum_min_s"], ENGINE),
    _layer("core.dest_tails_ms", "ms", "lower", ["sum_min_s"], ["mixed_tail"]),
    _layer("core.qb_drain_ms", "ms", "lower", ["sum_min_s"], ENGINE),
    _layer("core.expansion_ms", "ms", "lower", ["sum_min_s"], ENGINE),
    _layer("core.skyline_insert_ms", "ms", "lower", ["sum_min_s"], ENGINE),
    _layer("core.plan_ms", "ms", "lower", ["sum_min_s"], ENGINE),
    _layer("cache.fwd_hit_ratio", "ratio", "higher",
           ["throughput_qps", "latency_p99_ms"], SERVE),
    _layer("cache.fwd_evictions", "count", "lower",
           ["throughput_qps", "latency_p99_ms"], SERVE),
    _layer("cache.resume_reuses", "count", "higher",
           ["throughput_qps", "latency_p99_ms"], SERVE),
    _layer("cache.resume_evictions", "count", "lower",
           ["throughput_qps", "latency_p99_ms"], SERVE),
    _layer("cache.resident_mb", "MB", "lower", ["peak_rss_mb"], SERVE),
    _layer("service.construct_s", "s", "lower", ["setup_s"], SERVE),
    _layer("service.queue_wait_p50_ms", "ms", "lower", ["latency_p50_ms"],
           SERVE),
    _layer("service.queue_wait_p99_ms", "ms", "lower", ["latency_p99_ms"],
           SERVE),
    _layer("service.execute_ms", "ms", "lower", ["throughput_qps"], SERVE),
    _layer("service.worker_busy_ratio", "ratio", "lower", ["throughput_qps"],
           SERVE),
    _layer("service.result_cache_hit_ratio", "ratio", "higher",
           ["goodput_1s_qps"], SERVE),
    _layer("service.dest_tail_hit_ratio", "ratio", "higher",
           ["goodput_1s_qps"], SERVE),
    _layer("service.batch_mean_size", "count", "higher", ["throughput_qps"],
           SERVE),
    _layer("service.coalesced", "count", "higher", ["throughput_qps"], SERVE),
    _layer("service.rejected", "count", "lower", ["goodput_1s_qps"], SERVE),
    _layer("obs.trace_overhead_ratio", "ratio", "lower", [], ALL),
]

RUN_SECONDS = 20


def benchmark_json():
    """The BENCHMARK.json document, with exactly the keys it must have."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w["name"], "why": w["why"]} for w in WORKLOADS],
        "end_to_end": END_TO_END,
        "per_layer": [{"name": m["name"], "unit": m["unit"],
                       "better": m["better"]} for m in PER_LAYER],
    }
