// label_disk: the labeling path on the disk engine. Each pass loads the SDSS
// catalog with SQLFACIL_STORAGE=disk and SQLFACIL_DURABILITY=wal (default
// group commit) into per-table buffer pools smaller than the big heaps,
// then labels a fixed list of unique statements with
// workload::QueryLabeler. Loading writes through the WAL, the heap and the
// B+ trees; labeling reads through the buffer pool.
//
// throughput_qps is the statements per second of the median pass (the wait
// from catalog to labels). Set-up (repeated,
// reported as a median) generates the statements, builds the same catalog
// on the mem backend and labels every statement there; every disk label
// must equal its mem label. The catalog is the same database for every
// seed; the seed draws the statements. (A catalog drawn per seed moved the
// label cost of one statement set by up to 25% between seeds.)
#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_util.h"
#include "span_recorder.h"
#include "sqlfacil/engine/catalog.h"
#include "sqlfacil/engine/table.h"
#include "sqlfacil/serving/loadgen.h"
#include "sqlfacil/util/env.h"
#include "sqlfacil/util/random.h"
#include "sqlfacil/workload/labeler.h"
#include "sqlfacil/workload/sdss_catalog.h"
#include "workloads.h"

namespace perfbench {
namespace {

using sqlfacil::engine::Table;
using sqlfacil::workload::QueryLabeler;
using sqlfacil::workload::QueryLabels;

// Seed of the catalog's generator, fixed across runs.
constexpr uint64_t kCatalogSeed = 5;

struct Sizes {
  size_t statements = 1000;
  double catalog_scale = 0.125;
  int passes = 8;
  int setups = 5;
};

Sizes SizesFor(int seconds) {
  Sizes s;
  s.passes = std::max(1, seconds * 4 / 5);
  return s;
}

std::vector<std::string> UniqueStatements(size_t n, uint64_t seed) {
  std::unordered_set<std::string> seen;
  std::vector<std::string> out;
  for (uint64_t chunk = 0; out.size() < n; ++chunk) {
    for (std::string& s : sqlfacil::serving::BuildSessionTrace(
             4 * n, 0.0, sqlfacil::MixSeed(seed, 200 + chunk))) {
      if (out.size() == n) break;
      if (seen.insert(s).second) out.push_back(std::move(s));
    }
  }
  return out;
}

// Table constructors read the backend from SQLFACIL_STORAGE (and the disk
// settings from the other SQLFACIL_* knobs), so the backend is switched
// through the environment around the build.
sqlfacil::engine::Catalog BuildCatalog(double scale, const char* storage) {
  setenv("SQLFACIL_STORAGE", storage, 1);
  sqlfacil::Rng rng(kCatalogSeed);
  sqlfacil::workload::SdssCatalogConfig config;
  config.scale = scale;  // multiplies every default row count
  sqlfacil::engine::Catalog catalog =
      sqlfacil::workload::BuildSdssCatalog(config, &rng);
  setenv("SQLFACIL_STORAGE", "mem", 1);
  return catalog;
}

// Storage counters summed over every table of the catalog.
Table::StorageStats SumStorageStats(const sqlfacil::engine::Catalog& catalog) {
  Table::StorageStats sum;
  for (const std::string& name : catalog.TableNames()) {
    const Table::StorageStats s = catalog.FindTable(name)->GetStorageStats();
    sum.pool_hits += s.pool_hits;
    sum.pool_misses += s.pool_misses;
    sum.pool_evictions += s.pool_evictions;
    sum.pages_read += s.pages_read;
    sum.pages_written += s.pages_written;
    sum.pool_pages += s.pool_pages;
    sum.heap_pages += s.heap_pages;
    sum.wal_records += s.wal_records;
    sum.wal_bytes += s.wal_bytes;
    sum.wal_syncs += s.wal_syncs;
  }
  return sum;
}

struct Pass {
  double load_s = 0.0;
  double label_s = 0.0;
  std::vector<double> label_us;
  uint64_t mislabeled = 0;
  size_t largest_heap_pages = 0;
  Table::StorageStats loaded;  // after the load
  Table::StorageStats done;    // after labeling
};

// One load + label pass with its table files under `dir`, which it removes.
Pass RunPass(const Sizes& sizes, const std::vector<std::string>& statements,
             const std::vector<QueryLabels>& expected,
             const std::string& dir) {
  Pass pass;
  std::filesystem::create_directories(dir);
  setenv("SQLFACIL_DATA_DIR", dir.c_str(), 1);
  {
    const Clock::time_point l0 = Clock::now();
    sqlfacil::engine::Catalog disk;
    {
      ScopedSpan span("storage.load");
      disk = BuildCatalog(sizes.catalog_scale, "disk");
    }
    const Clock::time_point l1 = Clock::now();
    pass.load_s = SecondsBetween(l0, l1);
    pass.loaded = SumStorageStats(disk);
    for (const std::string& name : disk.TableNames()) {
      pass.largest_heap_pages =
          std::max(pass.largest_heap_pages,
                   disk.FindTable(name)->GetStorageStats().heap_pages);
    }

    const QueryLabeler labeler(&disk, {});
    pass.label_us.reserve(statements.size());
    {
      ScopedSpan phase("bench.label_phase");
      for (size_t i = 0; i < statements.size(); ++i) {
        ScopedSpan span("engine.label");
        const int64_t t0 = NowNs();
        const QueryLabels got = labeler.Label(statements[i]);
        pass.label_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
        if (got.error_class != expected[i].error_class ||
            got.answer_size != expected[i].answer_size) {
          ++pass.mislabeled;
        }
      }
    }
    pass.label_s = SecondsBetween(l1, Clock::now());
    pass.done = SumStorageStats(disk);
  }  // closes the tables (clean-shutdown checkpoint) before the files go
  std::filesystem::remove_all(dir);
  return pass;
}

}  // namespace

Result RunLabelDisk(const RunOptions& options) {
  Result result;
  const Sizes sizes = SizesFor(options.seconds);
  const std::string data_dir = sqlfacil::GetDataDirFromEnv();

  std::vector<double> setup_s;
  std::vector<std::string> statements;
  std::vector<QueryLabels> expected;
  for (int i = 0; i < sizes.setups; ++i) {
    const Clock::time_point t0 = Clock::now();
    statements = UniqueStatements(sizes.statements, options.seed);
    const sqlfacil::engine::Catalog mem =
        BuildCatalog(sizes.catalog_scale, "mem");
    const QueryLabeler labeler(&mem, {});
    expected.clear();
    for (const std::string& s : statements) expected.push_back(labeler.Label(s));
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
  }

  auto pass_dir = [&](int p) {
    return data_dir + "/label_disk-pass" + std::to_string(p);
  };
  double untraced_s = 0.0;
  if (options.trace) {
    const Pass p =
        RunPass(sizes, statements, expected, pass_dir(sizes.passes));
    untraced_s = p.load_s + p.label_s;
    tracing::SetEnabled(true);
  }
  const double cpu0 = ProcessCpuSeconds();
  std::vector<Pass> passes;
  for (int p = 0; p < sizes.passes; ++p) {
    passes.push_back(
        RunPass(sizes, statements, expected, pass_dir(p)));
  }
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  tracing::SetEnabled(false);
  setenv("SQLFACIL_DATA_DIR", data_dir.c_str(), 1);

  std::vector<double> pass_s, load_s, label_s, label_us;
  for (const Pass& p : passes) {
    result.attempted += statements.size();
    result.failed += p.mislabeled;
    pass_s.push_back(p.load_s + p.label_s);
    load_s.push_back(p.load_s);
    label_s.push_back(p.label_s);
    label_us.insert(label_us.end(), p.label_us.begin(), p.label_us.end());
  }
  if (result.failed > 0) {
    result.CheckFailed(std::to_string(result.failed) + " of " +
                       std::to_string(result.attempted) +
                       " disk labels differ from the mem labels");
  }
  const double median_s = Median(pass_s);
  result.Set("setup_s", Median(setup_s), "s");
  result.Set("throughput_qps",
             static_cast<double>(statements.size()) / median_s, "1/s");
  result.Set("peak_rss_mb", PeakRssMiB(), "MiB");

  result.Set("storage.load_s", Median(load_s), "s");
  result.Set("engine.label_s", Median(label_s), "s");
  result.Set("engine.label_us_p50", Percentile(label_us, 50.0), "us");
  result.Set("engine.label_us_p99", Percentile(label_us, 99.0), "us");
  // Storage counters of the last pass: the load's writes, the label
  // phase's reads.
  const Pass& last = passes.back();
  const uint64_t hits = last.done.pool_hits - last.loaded.pool_hits;
  const uint64_t misses = last.done.pool_misses - last.loaded.pool_misses;
  result.Set("storage.pool_hit_rate",
             hits + misses == 0 ? 0.0
                                : static_cast<double>(hits) /
                                      static_cast<double>(hits + misses),
             "ratio");
  result.Set("storage.pool_misses", static_cast<double>(misses), "count");
  result.Set("storage.pool_evictions",
             static_cast<double>(last.done.pool_evictions -
                                 last.loaded.pool_evictions),
             "count");
  result.Set("storage.pages_read",
             static_cast<double>(last.done.pages_read -
                                 last.loaded.pages_read),
             "count");
  result.Set("storage.heap_pages", static_cast<double>(last.done.heap_pages),
             "count");
  result.Set("storage.pages_written",
             static_cast<double>(last.loaded.pages_written), "count");
  result.Set("storage.wal_records",
             static_cast<double>(last.loaded.wal_records), "count");
  result.Set("storage.wal_bytes", static_cast<double>(last.loaded.wal_bytes),
             "bytes");
  result.Set("storage.wal_syncs", static_cast<double>(last.loaded.wal_syncs),
             "count");

  SetCpuMetrics(&result, cpu_s, result.attempted);
  if (options.trace) {
    result.Set("trace.overhead_pct",
               (median_s - untraced_s) / untraced_s * 100.0, "%");
    ReportTrace(options, result.attempted, &result);
  }
  result.notes.push_back(
      "throughput_qps: median of " + std::to_string(passes.size()) +
      " load + label passes of " + std::to_string(statements.size()) +
      " unique statements (pass seconds: " + FormatList(pass_s, 3) +
      "; load: " + FormatList(load_s, 3) +
      "; label: " + FormatList(label_s, 3) + ")");
  result.notes.push_back("engine.label_us_p50/p99: " +
                         std::to_string(label_us.size()) + " Label calls");
  result.notes.push_back(
      "catalog scale " + FormatList({sizes.catalog_scale}, 3) + ": " +
      std::to_string(last.done.heap_pages) + " heap pages, largest table " +
      std::to_string(last.largest_heap_pages) + "; " +
      std::to_string(last.done.pool_pages) + " pool pages in all");
  result.notes.push_back("setup_s: median of " +
                         std::to_string(sizes.setups) + " set-ups (s: " +
                         FormatList(setup_s, 3) + ")");
  return result;
}

}  // namespace perfbench
