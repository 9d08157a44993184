#!/usr/bin/env python3
"""Distills google-benchmark JSON files into bench_logs/BENCH_<n>.json.

Keeps the metrics the perf PRs track: per-benchmark wall time, throughput
(items/s) where reported, latency percentiles (p50/p99 counters), the
derived batched-vs-loop speedups from micro_serving, the training
fast-path metrics from micro_train (fused sharded step times across the
thread sweep, speedup over the layer-by-layer graph step, optimizer
kernel throughput), and the int8 quantized-tier metrics from micro_quant
(quantized GEMM speedups, per-tier single-query p50 / batch throughput,
and the fp32-vs-int8 accuracy deltas).

A serve_bench --json report (detected by its top-level "runs" array) may
be passed alongside the google-benchmark files: its closed-loop load
results are embedded under "serving" and distilled into per-rate
qps / p50 / p99 / p999 metrics, the batching speedup over the per-query
(max_batch = 1) configuration, and the p99-vs-SLO verdict at the middle
paced rate, per precision tier.
"""

import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def main(paths):
    out = {"benchmarks": {}, "derived": {}}
    for path in paths:
        doc = load(path)
        name = path.split("/")[-1].removesuffix(".json")
        if "runs" in doc:  # serve_bench closed-loop load report
            out["serving"] = doc
            continue
        entries = []
        for b in doc.get("benchmarks", []):
            if b.get("run_type") == "aggregate":
                continue
            entry = {
                "name": b["name"],
                "real_time": b.get("real_time"),
                "cpu_time": b.get("cpu_time"),
                "time_unit": b.get("time_unit"),
            }
            for key in (
                "items_per_second",
                "p50_us",
                "p99_us",
                "mean_batch",
                "acc_fp32",
                "acc_int8",
                "rel_acc_delta_pct",
                "mean_abs_dprob",
                "max_abs_dprob",
                "hit_rate",
                "pages_per_s",
                "wal_syncs",
                "pool_ratio",
                "success_frac",
            ):
                if key in b:
                    entry[key] = b[key]
            entries.append(entry)
        out["benchmarks"][name] = entries

    serving = {b["name"]: b for b in out["benchmarks"].get("micro_serving", [])}
    for family in ("tfidf", "ccnn", "clstm"):
        loop = serving.get(f"BM_PredictLoop_{family}")
        batch = serving.get(f"BM_PredictBatch_{family}")
        if loop and batch and loop.get("items_per_second"):
            out["derived"][f"batch_speedup_{family}"] = round(
                batch["items_per_second"] / loop["items_per_second"], 3
            )
        single = serving.get(f"BM_PredictSingle_{family}")
        if single:
            out["derived"][f"predict_{family}_p50_us"] = round(
                single.get("p50_us", 0.0), 2
            )
            out["derived"][f"predict_{family}_p99_us"] = round(
                single.get("p99_us", 0.0), 2
            )
    for family in ("ccnn", "clstm"):
        for pct in (0, 50, 90):
            b = serving.get(f"BM_CachedBatch_{family}/{pct}/manual_time")
            if b and b.get("items_per_second"):
                out["derived"][f"cached_batch_{family}_hit{pct}_items_per_s"] = round(
                    b["items_per_second"], 1
                )
    # Serving front end (Server): closed-loop clients through the admission
    # queue + batcher + shard pool, max_batch 1 vs 4 (micro_serving).
    sc_off = serving.get("BM_ServerClosedLoop_ccnn/1/real_time")
    sc_on = serving.get("BM_ServerClosedLoop_ccnn/4/real_time")
    for label, b in (("perquery", sc_off), ("batch4", sc_on)):
        if b and b.get("items_per_second"):
            out["derived"][f"server_closed_loop_{label}_items_per_s"] = round(
                b["items_per_second"], 1
            )
            out["derived"][f"server_closed_loop_{label}_p99_us"] = round(
                b.get("p99_us", 0.0), 2
            )
    if sc_on and sc_off and sc_off.get("items_per_second"):
        out["derived"]["server_closed_loop_mean_batch"] = round(
            sc_on.get("mean_batch", 0.0), 2
        )

    # serve_bench load-generator report: per precision x rate QPS and
    # latency percentiles, the batching speedup over max_batch = 1, and
    # the SLO verdict at the middle paced rate (mirrors serve_bench's own
    # greppable summary lines).
    sb = out.get("serving")
    if sb:
        runs = sb.get("runs", [])
        slo_us = sb.get("config", {}).get("slo_us")
        for r in runs:
            rate = "max" if r["rate_qps"] == 0 else str(int(r["rate_qps"]))
            tag = f"serve_{r['precision']}_rate{rate}_b{r['max_batch']}"
            out["derived"][f"{tag}_qps"] = round(r["qps"], 1)
            out["derived"][f"{tag}_p50_us"] = round(r["p50_us"], 1)
            out["derived"][f"{tag}_p99_us"] = round(r["p99_us"], 1)
            out["derived"][f"{tag}_p999_us"] = round(r["p999_us"], 1)
            if "cache_hits" in r:
                out["derived"][f"{tag}_cache_hit_rate"] = round(
                    r.get("cache_hit_rate", 0.0), 4
                )
                out["derived"][f"{tag}_cache_hits"] = r["cache_hits"]
                out["derived"][f"{tag}_cache_misses"] = r.get(
                    "cache_misses", 0
                )
                out["derived"][f"{tag}_cache_evictions"] = r.get(
                    "cache_evictions", 0
                )
        # PredictionCache + circuit-breaker health across the whole sweep:
        # totals over every run (per-run numbers stay under their rate tag).
        if any("cache_hits" in r for r in runs):
            for key in ("cache_hits", "cache_misses", "cache_evictions"):
                out["derived"][f"serve_total_{key}"] = sum(
                    r.get(key, 0) for r in runs
                )
        if any("breaker_opens" in r for r in runs):
            for key in (
                "breaker_opens",
                "breaker_half_opens",
                "breaker_closes",
            ):
                out["derived"][f"serve_total_{key}"] = sum(
                    r.get(key, 0) for r in runs
                )
        for prec in ("fp32", "int8"):
            mine = [r for r in runs if r["precision"] == prec]
            batched = [r for r in mine if r["max_batch"] != 1]
            perquery = [r for r in mine if r["max_batch"] == 1]
            if batched and perquery and perquery[0]["qps"]:
                best = max(r["qps"] for r in batched)
                out["derived"][f"serve_{prec}_batching_speedup"] = round(
                    best / perquery[0]["qps"], 3
                )
            paced = [r for r in batched if r["rate_qps"] > 0]
            if paced and slo_us:
                mid = paced[len(paced) // 2]
                out["derived"][f"serve_{prec}_slo_p99_us"] = round(
                    mid["p99_us"], 1
                )
                out["derived"][f"serve_{prec}_slo_ok"] = bool(
                    mid["p99_us"] <= slo_us
                )

    train = {b["name"]: b for b in out["benchmarks"].get("micro_train", [])}
    to_ms = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}
    for name, b in train.items():
        if name.startswith("BM_LstmFusedTrainStep/"):
            threads = name.split("/")[1]
            out["derived"][f"lstm_fused_train_step_ms_t{threads}"] = round(
                b["real_time"] * to_ms.get(b.get("time_unit"), 1.0), 3
            )
        if name.startswith(("BM_SgdStep/", "BM_AdamStep/", "BM_AdaMaxStep/")):
            if b.get("items_per_second"):
                key = name.replace("BM_", "").replace("/", "_n").lower()
                out["derived"][f"{key}_gfloats_per_s"] = round(
                    b["items_per_second"] / 1e9, 3
                )
    # Crash-safe training snapshots: absolute save/load cost and the
    # end-to-end overhead of an every-epoch snapshot schedule on a full
    # CnnModel::Fit (acceptance target: saves < 5% of epoch time).
    save = train.get("BM_TrainSnapshotSave")
    if save:
        out["derived"]["snapshot_save_ms"] = round(
            save["real_time"] * to_ms.get(save.get("time_unit"), 1.0), 3
        )
    snap_load = train.get("BM_TrainSnapshotLoad")
    if snap_load:
        out["derived"]["snapshot_load_ms"] = round(
            snap_load["real_time"] * to_ms.get(snap_load.get("time_unit"), 1.0), 3
        )
    fit_off = train.get("BM_CnnFitWithSnapshots/0/min_time:2.000")
    fit_on = train.get("BM_CnnFitWithSnapshots/1/min_time:2.000")
    if fit_off and fit_on and fit_off.get("real_time"):
        out["derived"]["snapshot_overhead_pct"] = round(
            (fit_on["real_time"] - fit_off["real_time"])
            / fit_off["real_time"]
            * 100.0,
            2,
        )
    # Int8 quantized-tier metrics from micro_quant: per-shape quantized GEMM
    # speedup over the fp32 MatMul, single-query latency and batch throughput
    # per precision tier, and the calibration-set accuracy deltas (the
    # acceptance gate: int8 within 2% relative accuracy of fp32).
    quant = {b["name"]: b for b in out["benchmarks"].get("micro_quant", [])}
    for shape in ("1/32/128", "64/32/128", "188/36/32"):
        fp32 = quant.get(f"BM_GemmFp32/{shape}")
        int8 = quant.get(f"BM_GemmInt8/{shape}")
        if fp32 and int8 and int8.get("real_time"):
            key = shape.replace("/", "x")
            out["derived"][f"gemm_int8_speedup_{key}"] = round(
                fp32["real_time"] / int8["real_time"], 3
            )
    for family in ("ccnn", "clstm"):
        fp32 = quant.get(f"BM_PredictSingle_{family}_fp32")
        int8 = quant.get(f"BM_PredictSingle_{family}_int8")
        if fp32 and int8:
            for tier, b in (("fp32", fp32), ("int8", int8)):
                out["derived"][f"predict_{family}_{tier}_p50_us"] = round(
                    b.get("p50_us", 0.0), 2
                )
            if int8.get("p50_us"):
                out["derived"][f"predict_{family}_int8_p50_speedup"] = round(
                    fp32.get("p50_us", 0.0) / int8["p50_us"], 3
                )
        bfp32 = quant.get(f"BM_PredictBatch_{family}_fp32")
        bint8 = quant.get(f"BM_PredictBatch_{family}_int8")
        if bfp32 and bint8 and bfp32.get("items_per_second"):
            out["derived"][f"batch_{family}_fp32_items_per_s"] = round(
                bfp32["items_per_second"], 1
            )
            out["derived"][f"batch_{family}_int8_items_per_s"] = round(
                bint8.get("items_per_second", 0.0), 1
            )
            out["derived"][f"batch_{family}_int8_vs_fp32"] = round(
                bint8.get("items_per_second", 0.0) / bfp32["items_per_second"],
                3,
            )
        acc = quant.get(
            f"BM_Int8AccuracyDelta_{family}/iterations:1"
        ) or quant.get(f"BM_Int8AccuracyDelta_{family}")
        if acc:
            for key in (
                "acc_fp32",
                "acc_int8",
                "rel_acc_delta_pct",
                "mean_abs_dprob",
                "max_abs_dprob",
            ):
                if key in acc:
                    out["derived"][f"{family}_{key}"] = round(acc[key], 5)
    nn_entries = {b["name"]: b for b in out["benchmarks"].get("micro_nn", [])}
    graph = nn_entries.get("BM_LstmSequenceTrainStep")
    fused = train.get("BM_LstmFusedTrainStep/8")
    if graph and fused and fused.get("real_time"):
        # Same workload shape (batch 16, hidden 32, 3 layers, seq 96): the
        # layer-by-layer graph step vs the fused sharded step at 8 threads.
        out["derived"]["fused_vs_graph_train_speedup"] = round(
            (graph["real_time"] * to_ms.get(graph.get("time_unit"), 1.0))
            / (fused["real_time"] * to_ms.get(fused.get("time_unit"), 1.0)),
            3,
        )
    # Disk storage engine (micro_storage): index-vs-seq speedup at selective
    # predicates on the 1M-row disk table (acceptance gate: >= 10x at <= 1%
    # selectivity), buffer-pool behaviour on a heap several times the pool
    # (hit rate, paging rate), raw pool fetch latencies, and end-to-end
    # labeling throughput mem vs disk.
    stor = {b["name"]: b for b in out["benchmarks"].get("micro_storage", [])}
    for permille, tag in ((1, "0p1pct"), (10, "1pct")):
        idx = stor.get(f"BM_IndexScanSelective/{permille}")
        seq = stor.get(f"BM_SeqScanSelective/{permille}")
        if idx and seq and idx.get("real_time"):
            out["derived"][f"index_vs_seq_speedup_{tag}"] = round(
                seq["real_time"] / idx["real_time"], 2
            )
    scan = stor.get("BM_ScanLargerThanPool")
    if scan:
        out["derived"]["scan_gt_pool_ratio"] = round(
            scan.get("pool_ratio", 0.0), 2
        )
        out["derived"]["scan_gt_pool_hit_rate"] = round(
            scan.get("hit_rate", 0.0), 4
        )
        out["derived"]["scan_gt_pool_pages_per_s"] = round(
            scan.get("pages_per_s", 0.0), 1
        )
        if scan.get("items_per_second"):
            out["derived"]["scan_gt_pool_rows_per_s"] = round(
                scan["items_per_second"], 1
            )
    for name, key in (
        ("BM_PoolFetchHot", "pool_fetch_hot_ns"),
        ("BM_PoolFetchCold", "pool_fetch_cold_ns"),
    ):
        b = stor.get(name)
        if b and b.get("real_time") is not None:
            ns = b["real_time"] * {"ns": 1.0, "us": 1e3, "ms": 1e6}.get(
                b.get("time_unit"), 1.0
            )
            out["derived"][key] = round(ns, 1)
    cold = stor.get("BM_PoolFetchCold")
    if cold and cold.get("pages_per_s"):
        out["derived"]["pool_fetch_cold_pages_per_s"] = round(
            cold["pages_per_s"], 1
        )
    # WAL durability (micro_storage): insert throughput across the
    # wal_fsync_every sweep vs the wal-off baseline (acceptance gate: the
    # default group-commit setting, 64, costs <= 25%), and the redo-replay
    # rate of recovery over a log of freshly appended heap tuples.
    wal_base = stor.get("BM_DurableInsert/0")
    if wal_base and wal_base.get("items_per_second"):
        out["derived"]["wal_off_insert_rows_per_s"] = round(
            wal_base["items_per_second"], 1
        )
    for arg in (1, 8, 64, 512):
        b = stor.get(f"BM_DurableInsert/{arg}")
        if b and b.get("items_per_second"):
            out["derived"][f"wal_insert_fsync{arg}_rows_per_s"] = round(
                b["items_per_second"], 1
            )
    wal_def = stor.get("BM_DurableInsert/64")
    if (
        wal_base
        and wal_def
        and wal_def.get("items_per_second")
        and wal_base.get("items_per_second")
    ):
        out["derived"]["wal_insert_overhead_pct"] = round(
            (wal_base["items_per_second"] / wal_def["items_per_second"] - 1.0)
            * 100.0,
            2,
        )
    for arg in (2000, 20000):
        b = stor.get(f"BM_WalRecovery/{arg}")
        if b and b.get("items_per_second"):
            out["derived"][f"wal_recovery_{arg}_rows_per_s"] = round(
                b["items_per_second"], 1
            )
            if b.get("pages_per_s"):
                out["derived"][f"wal_recovery_{arg}_pages_per_s"] = round(
                    b["pages_per_s"], 1
                )
    lab_mem = stor.get("BM_LabelingThroughput_mem")
    lab_disk = stor.get("BM_LabelingThroughput_disk")
    if lab_mem and lab_disk and lab_disk.get("items_per_second"):
        out["derived"]["labeling_mem_queries_per_s"] = round(
            lab_mem.get("items_per_second", 0.0), 2
        )
        out["derived"]["labeling_disk_queries_per_s"] = round(
            lab_disk["items_per_second"], 2
        )
        out["derived"]["labeling_mem_vs_disk"] = round(
            lab_mem.get("items_per_second", 0.0)
            / lab_disk["items_per_second"],
            2,
        )
        out["derived"]["labeling_disk_hit_rate"] = round(
            lab_disk.get("hit_rate", 0.0), 4
        )
        out["derived"]["labeling_disk_pool_ratio"] = round(
            lab_disk.get("pool_ratio", 0.0), 2
        )
    json.dump(out, sys.stdout, indent=2)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
