#pragma once

/// Machine-readable bench records for the CI perf trajectory.
///
/// Each bench appends one Record per (workload, threads) cell and writes one
/// JSON array per process; the bench-smoke CI job concatenates the arrays
/// with `jq -s add` into the BENCH_pr.json artifact. Keep the schema stable:
/// downstream tooling diffs these files across commits.
///
/// Field conventions: `updates_per_sec` is 0 for static (non-update)
/// workloads; `rebuild_ms` is the whole-run wall clock in milliseconds
/// (dominated by Theorem 6.2 rebuilds on the rebuild-heavy workloads, and
/// exactly the boost wall time for static boosts); `read_p50_us` /
/// `read_p99_us` are snapshot-read latency percentiles in microseconds and
/// are 0 for benches without a read side (only the matching service bench
/// populates them); `coord_bytes` / `coord_rounds` are the coordinator
/// message ledger (CommStats, replay_core.hpp) — bytes and rounds that would
/// cross the shard boundary over the whole run — and are 0 for one-shard
/// engines and benches that record no ledger; `ns_per_probe`
/// is the mean wall-clock cost of one oracle probe kernel call in
/// nanoseconds (0 for benches without a probe microbench — only the
/// probe-kernel bench populates it). Names must not contain characters
/// needing JSON escapes.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

namespace bmf::benchjson {

struct Record {
  std::string bench;
  std::string workload;
  int threads = 1;
  double updates_per_sec = 0.0;
  double rebuild_ms = 0.0;
  std::int64_t rebuilds = 0;
  bool identical = true;
  double read_p50_us = 0.0;
  double read_p99_us = 0.0;
  std::int64_t coord_bytes = 0;
  std::int64_t coord_rounds = 0;
  double ns_per_probe = 0.0;
};

class Writer {
 public:
  void add(Record r) { records_.push_back(std::move(r)); }

  /// Writes all records as one JSON array; returns false on IO failure.
  [[nodiscard]] bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::fprintf(f,
                   "  {\"bench\": \"%s\", \"workload\": \"%s\", \"threads\": %d, "
                   "\"updates_per_sec\": %.1f, \"rebuild_ms\": %.3f, "
                   "\"rebuilds\": %lld, \"identical\": %s, "
                   "\"read_p50_us\": %.3f, \"read_p99_us\": %.3f, "
                   "\"coord_bytes\": %lld, \"coord_rounds\": %lld, "
                   "\"ns_per_probe\": %.3f}%s\n",
                   r.bench.c_str(), r.workload.c_str(), r.threads,
                   r.updates_per_sec, r.rebuild_ms,
                   static_cast<long long>(r.rebuilds),
                   r.identical ? "true" : "false", r.read_p50_us, r.read_p99_us,
                   static_cast<long long>(r.coord_bytes),
                   static_cast<long long>(r.coord_rounds), r.ns_per_probe,
                   i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
  }

  [[nodiscard]] bool all_identical() const {
    for (const Record& r : records_)
      if (!r.identical) return false;
    return true;
  }

 private:
  std::vector<Record> records_;
};

/// Shared minimal CLI: `--quick` shrinks workloads for the CI smoke job,
/// `--json <path>` writes the record array there.
struct BenchArgs {
  bool quick = false;
  std::string json_path;
};

inline BenchArgs parse_args(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--quick") {
      args.quick = true;
    } else if (a == "--json" && i + 1 < argc) {
      args.json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--json <path>]\n", argv[0]);
      std::exit(2);
    }
  }
  return args;
}

}  // namespace bmf::benchjson
