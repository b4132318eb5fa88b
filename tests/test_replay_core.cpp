/// Unified suite for the dynamic engine's replay core (DynamicMatcher):
///
///  * ReplayCoreDifferential — the fuzz/differential harness: one composite
///    update stream per seed (every dyn_* workload shape plus the mixed-churn
///    shape) driven through the sequential apply loop, the owning engine's
///    loop and `apply_batch` at several batch sizes
///    (tests/differential_util.hpp), asserting matchings, rebuild positions,
///    weak-call counts and words_touched agree;
///  * ReplayCoreGoldenTrace — byte-exact golden records (seed, stream
///    digest, rebuild positions, final matching hash) for six canonical
///    workloads, computed through both oracles, so a silent replay-core
///    behavior change fails even if every path drifts together (regenerate
///    with BMF_UPDATE_GOLDEN=1);
///  * ReplayCoreValidation — a rejected `apply` leaves every counter, the
///    rebuild schedule, the graph and the ledger untouched;
///  * ReplayCoreConfig — invariant tests for the one engine config (0 shards,
///    shards > n, negative threads, ...);
///  * ReplayCoreLedger — the partition cost model behind `comm_stats()`:
///    a hand-checked case, pinned golden values, batch-size independence
///    and monotonicity.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "differential_util.hpp"
#include "dynamic/dynamic_matcher.hpp"
#include "dynamic/replay_core.hpp"
#include "dynamic/weak_oracle.hpp"
#include "util/rng.hpp"
#include "workloads/dyn_workload.hpp"

namespace bmf {
namespace {

using testdiff::RunResult;

// ---------------------------------------------------------------------------
// Differential fuzz over one composite stream per seed.
// ---------------------------------------------------------------------------

/// One stream that visits every workload shape back to back. Segments after
/// the first start from a non-empty graph, so duplicate insertions and
/// absent-edge deletions appear naturally — valid no-op updates that every
/// batch slicing must count identically.
std::vector<EdgeUpdate> composite_stream(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<EdgeUpdate> ups;
  const auto append = [&](std::vector<EdgeUpdate> seg) {
    ups.insert(ups.end(), seg.begin(), seg.end());
  };
  append(dyn_random_updates(48, 70, 0.7, rng));
  append(dyn_sliding_window(48, 30, 55, rng));
  append(dyn_churn_planted(48, 55, rng));
  append(dyn_planted_teardown(12, 3, rng));  // vertices [0, 27)
  append(dyn_shard_partitioned(48, 4, 60, 0.6, 0.7, rng));
  append(dyn_mixed_churn(48, 70, rng));
  ups.push_back(EdgeUpdate::none());
  return ups;
}

class ReplayCoreDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReplayCoreDifferential, CompositeStreamAllEnginesAllGridPoints) {
  const auto ups = composite_stream(GetParam());
  DynamicMatcherConfig cfg;
  cfg.eps = 0.5;
  cfg.seed = GetParam();
  testdiff::expect_batches_equal_sequential(48, ups, cfg, {7, 64});
}

TEST_P(ReplayCoreDifferential, MixedChurnFixedCadence) {
  // The new shape on its own, with a fixed rebuild cadence so rebuilds
  // fire inside batches and teardown runs throughout the stream.
  Rng rng(GetParam() + 40);
  const auto ups = dyn_mixed_churn(40, 320, rng);
  DynamicMatcherConfig cfg;
  cfg.eps = 0.25;
  cfg.seed = GetParam();
  cfg.rebuild_every = 14;
  testdiff::expect_batches_equal_sequential(40, ups, cfg, {64}, /*min_rebuilds=*/5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplayCoreDifferential,
                         ::testing::Values(1u, 2u, 3u));

TEST(ReplayCoreStats, RebuildStatsFoldAcrossSerialAndBatchedPaths) {
  // rebuild_stats() folds every boost the engine ran — from the serial loop
  // and from apply_batch alike — and is part of the bit-identity contract,
  // read here through the abstract ReplayEngine surface. At one shard the
  // comm ledger stays identically zero on both paths.
  Rng rng(31);
  const auto ups = dyn_mixed_churn(40, 320, rng);
  DynamicMatcherConfig cfg;
  cfg.eps = 0.25;
  cfg.seed = 31;
  cfg.rebuild_every = 14;
  DynamicMatcher serial(40, cfg), batched(40, cfg);
  for (const EdgeUpdate& up : ups) serial.apply(up);
  for (const auto& batch : slice_updates(ups, 64)) batched.apply_batch(batch);
  for (const ReplayEngine* engine : {static_cast<const ReplayEngine*>(&serial),
                                     static_cast<const ReplayEngine*>(&batched)}) {
    const RebuildStats& got = engine->rebuild_stats();
    EXPECT_EQ(got.rebuilds, engine->rebuilds());
    EXPECT_EQ(got.weak_calls, engine->weak_calls());
    EXPECT_GT(got.rebuilds, 0);
    EXPECT_LE(got.certified, got.rebuilds);
    EXPECT_EQ(engine->comm_stats(), CommStats{});
  }
  EXPECT_EQ(batched.rebuild_stats(), serial.rebuild_stats());
}

TEST(ReplayCoreDifferential, MixedChurnStreamIsValid) {
  Rng rng(21);
  const auto ups = dyn_mixed_churn(32, 400, rng);
  ASSERT_EQ(ups.size(), 400u);
  DynGraph g(32);
  std::int64_t inserts = 0, deletions = 0;
  for (const EdgeUpdate& up : ups) {
    if (up.insert) {
      EXPECT_TRUE(g.insert(up.u, up.v));
      ++inserts;
    } else {
      EXPECT_TRUE(g.erase(up.u, up.v));
      ++deletions;
    }
  }
  // All four phases ran: the stream both grows and churns.
  EXPECT_GT(inserts, 100);
  EXPECT_GT(deletions, 100);
}

// ---------------------------------------------------------------------------
// Golden-trace regression: byte-exact records for canonical workloads.
// ---------------------------------------------------------------------------

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t value) {
  for (int b = 0; b < 8; ++b) {
    h ^= (value >> (8 * b)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;

std::uint64_t stream_digest(std::span<const EdgeUpdate> ups) {
  std::uint64_t h = kFnvOffset;
  for (const EdgeUpdate& up : ups) {
    h = fnv1a(h, static_cast<std::uint64_t>(up.u));
    h = fnv1a(h, static_cast<std::uint64_t>(up.v));
    h = fnv1a(h, up.insert ? 1 : 0);
  }
  return h;
}

std::uint64_t int_list_digest(std::span<const std::int64_t> xs) {
  std::uint64_t h = kFnvOffset;
  for (const std::int64_t x : xs) h = fnv1a(h, static_cast<std::uint64_t>(x));
  return h;
}

std::uint64_t mates_digest(std::span<const Vertex> mates) {
  std::uint64_t h = kFnvOffset;
  for (const Vertex m : mates) h = fnv1a(h, static_cast<std::uint64_t>(m));
  return h;
}

struct GoldenCase {
  const char* name;
  std::uint64_t seed;
  Vertex n;
  double eps;
  std::int64_t rebuild_every;
  std::vector<EdgeUpdate> ups;
};

std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> cases;
  {
    Rng rng(11);
    cases.push_back({"random_mixed", 11, 40, 0.5, 0,
                     dyn_random_updates(40, 300, 0.7, rng)});
  }
  {
    Rng rng(12);
    cases.push_back({"deletion_heavy", 12, 40, 1.0, 0,
                     dyn_random_updates(40, 300, 0.45, rng)});
  }
  {
    Rng rng(13);
    cases.push_back({"sliding_window", 13, 40, 0.5, 0,
                     dyn_sliding_window(40, 50, 250, rng)});
  }
  {
    Rng rng(14);
    cases.push_back(
        {"churn_planted", 14, 40, 0.5, 0, dyn_churn_planted(40, 250, rng)});
  }
  {
    Rng rng(15);
    cases.push_back({"planted_teardown", 15, 2 * 14 + 3, 1.0, 0,
                     dyn_planted_teardown(14, 3, rng)});
  }
  {
    Rng rng(16);
    cases.push_back(
        {"mixed_churn", 16, 48, 0.25, 16, dyn_mixed_churn(48, 300, rng)});
  }
  return cases;
}

std::string trace_line(const GoldenCase& c, const RunResult& r) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%s seed=%llu stream=%016llx updates=%lld rebuilds=%lld "
                "positions=%016llx matching=%016llx size=%lld weak_calls=%lld",
                c.name, static_cast<unsigned long long>(c.seed),
                static_cast<unsigned long long>(stream_digest(c.ups)),
                static_cast<long long>(r.updates),
                static_cast<long long>(r.rebuilds),
                static_cast<unsigned long long>(
                    int_list_digest(r.rebuild_positions)),
                static_cast<unsigned long long>(mates_digest(r.mates)),
                static_cast<long long>(r.matching_size),
                static_cast<long long>(r.weak_calls));
  return buf;
}

std::string golden_path() {
  return std::string(BMF_TEST_DATA_DIR) + "/golden/dynamic_traces.txt";
}

TEST(ReplayCoreGoldenTrace, CanonicalWorkloadsMatchRecordedTraces) {
  // Each line is computed twice: on an engine that borrows a
  // MatrixWeakOracle, and on the owning engine, whose AdjacencyWeakOracle
  // reads the engine's own graph. Both must reproduce the recorded file.
  std::vector<std::string> lines, owning_lines;
  for (const GoldenCase& c : golden_cases()) {
    DynamicMatcherConfig cfg;
    cfg.eps = c.eps;
    cfg.seed = c.seed;
    cfg.rebuild_every = c.rebuild_every;
    lines.push_back(trace_line(c, testdiff::run_sequential(c.n, c.ups, cfg)));
    owning_lines.push_back(trace_line(c, testdiff::run_owning(c.n, c.ups, cfg)));
  }

  // NOLINTNEXTLINE(concurrency-mt-unsafe) -- read-only env probe before any
  // thread exists; regeneration mode is a single-threaded dev invocation.
  if (std::getenv("BMF_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path(), std::ios::trunc);
    ASSERT_TRUE(out.is_open()) << "cannot write " << golden_path();
    for (const std::string& line : lines) out << line << "\n";
    GTEST_SKIP() << "golden file regenerated at " << golden_path();
  }

  std::ifstream in(golden_path());
  ASSERT_TRUE(in.is_open())
      << "missing " << golden_path()
      << " — regenerate with BMF_UPDATE_GOLDEN=1 ./bmf_tests "
         "--gtest_filter='*GoldenTrace*'";
  std::vector<std::string> want;
  for (std::string line; std::getline(in, line);)
    if (!line.empty()) want.push_back(line);
  ASSERT_EQ(want.size(), lines.size()) << "golden file is stale";
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i], want[i])
        << "golden trace drifted — if the change is intentional, regenerate "
           "with BMF_UPDATE_GOLDEN=1 and justify the diff in the PR";
    EXPECT_EQ(owning_lines[i], want[i]) << "owning engine";
  }
}

// ---------------------------------------------------------------------------
// Update validation: a rejected apply() leaves no trace.
// ---------------------------------------------------------------------------

TEST(ReplayCoreValidation, RejectedApplyChangesNothing) {
  constexpr Vertex n = 8;
  const std::vector<EdgeUpdate> valid{EdgeUpdate::ins(0, 1), EdgeUpdate::ins(2, 3),
                                      EdgeUpdate::ins(1, 2)};
  const std::vector<EdgeUpdate> bad{EdgeUpdate::ins(3, 3),    // self-loop
                                    EdgeUpdate::ins(0, n),    // v >= n
                                    EdgeUpdate::del(2, -3)};  // v < 0
  DynamicMatcherConfig cfg;
  cfg.eps = 0.5;
  cfg.rebuild_every = 2;
  MatrixWeakOracle oracle(n);
  DynamicMatcher borrowed(n, oracle, cfg);
  cfg.shards = 2;  // a live ledger must not move either
  DynamicMatcher owned(n, cfg);

  for (ReplayEngine* engine : {static_cast<ReplayEngine*>(&borrowed),
                               static_cast<ReplayEngine*>(&owned)}) {
    const char* name = engine == &borrowed ? "borrowed oracle" : "2 shards";
    for (const EdgeUpdate& up : valid) engine->apply(up);
    for (const EdgeUpdate& up : bad) {
      const std::int64_t updates = engine->updates();
      const std::vector<std::int64_t> positions = engine->rebuild_positions();
      const std::int64_t edges = engine->snapshot().num_edges();
      const CommStats comm = engine->comm_stats();
      EXPECT_THROW(engine->apply(up), std::invalid_argument)
          << name << " (" << up.u << ", " << up.v << ")";
      EXPECT_EQ(engine->updates(), updates) << name;
      EXPECT_EQ(engine->rebuild_positions(), positions) << name;
      EXPECT_EQ(engine->snapshot().num_edges(), edges) << name;
      EXPECT_EQ(engine->comm_stats(), comm) << name;
    }
    // The rebuild schedule did not move: the next valid update is the 4th,
    // so with a budget of 2 it fires the second rebuild exactly there.
    engine->apply(EdgeUpdate::ins(4, 5));
    EXPECT_EQ(engine->rebuild_positions(), (std::vector<std::int64_t>{2, 4}))
        << name;
  }
}

// ---------------------------------------------------------------------------
// The one engine config: one struct, one validation.
// ---------------------------------------------------------------------------

TEST(ReplayCoreConfig, InvalidKnobsAreRejectedAtConstruction) {
  MatrixWeakOracle oracle(8);
  {
    DynamicMatcherConfig cfg;
    cfg.eps = 0.0;
    EXPECT_THROW(DynamicMatcher(8, oracle, cfg), std::invalid_argument);
    cfg.eps = 1.5;
    EXPECT_THROW(DynamicMatcher(8, oracle, cfg), std::invalid_argument);
  }
  {
    DynamicMatcherConfig cfg;
    cfg.threads = -1;
    EXPECT_THROW(DynamicMatcher(8, oracle, cfg), std::invalid_argument);
  }
  {
    DynamicMatcherConfig cfg;
    cfg.rebuild_every = -5;
    EXPECT_THROW(DynamicMatcher(8, oracle, cfg), std::invalid_argument);
  }
  {
    DynamicMatcherConfig cfg;
    cfg.shards = 0;
    EXPECT_THROW(DynamicMatcher(8, cfg), std::invalid_argument);
  }
  {
    DynamicMatcherConfig cfg;
    cfg.threads = -2;
    EXPECT_THROW(DynamicMatcher(8, cfg), std::invalid_argument);
  }
  {
    DynamicMatcherConfig cfg;
    cfg.eps = -0.25;
    EXPECT_THROW(DynamicMatcher(8, cfg), std::invalid_argument);
  }
  // Rebuilds run at eps/2, so their l_max + 1 = ceil(6/eps) + 1 must fit an
  // int: eps = 2e-9 passes the core bound but not the rebuild's.
  for (const double eps : {1e-12, 2e-9}) {
    DynamicMatcherConfig cfg;
    cfg.eps = eps;
    EXPECT_THROW(DynamicMatcher(8, cfg), std::invalid_argument) << "eps=" << eps;
    EXPECT_THROW(DynamicMatcher(8, oracle, cfg), std::invalid_argument)
        << "eps=" << eps;
  }
}

TEST(ReplayCoreConfig, MoreShardsThanVerticesIsLegalAndBitIdentical) {
  Rng rng(9);
  // Deletion-biased: n = 6 has only 15 possible edges, and the generator
  // spins if the live set saturates.
  const auto ups = dyn_random_updates(6, 120, 0.45, rng);
  DynamicMatcherConfig cfg;
  cfg.eps = 0.5;
  cfg.seed = 9;
  const RunResult want = testdiff::run_sequential(6, ups, cfg);
  // The threads knob is validated but read by nothing: this cell keeps it
  // honest for as long as it exists.
  cfg.threads = 8;
  for (const int shards : {8, 16}) {
    cfg.shards = shards;
    EXPECT_EQ(testdiff::run_batched(6, ups, cfg, 32), want) << "shards=" << shards;
  }
}

// ---------------------------------------------------------------------------
// The partition cost model behind comm_stats().
// ---------------------------------------------------------------------------

/// The ledger of `ups` applied one at a time at `shards`.
CommStats ledger_of(Vertex n, std::span<const EdgeUpdate> ups,
                    DynamicMatcherConfig cfg, int shards) {
  cfg.shards = shards;
  DynamicMatcher dm(n, cfg);
  for (const EdgeUpdate& up : ups) dm.apply(up);
  return dm.comm_stats();
}

TEST(ReplayCoreLedger, HandCheckedToggleCharges) {
  // No rebuild fires (budget 100), so only the update side charges: each of
  // the three toggles routes two 12-byte copies in one round. The duplicate
  // insert and the empty update toggle nothing and cost nothing.
  const std::vector<EdgeUpdate> ups{EdgeUpdate::ins(0, 1), EdgeUpdate::ins(0, 1),
                                    EdgeUpdate::ins(2, 3), EdgeUpdate::del(0, 1),
                                    EdgeUpdate::none()};
  DynamicMatcherConfig cfg;
  cfg.rebuild_every = 100;
  EXPECT_EQ(ledger_of(4, ups, cfg, 1), CommStats{});
  for (const int shards : {2, 5})
    EXPECT_EQ(ledger_of(4, ups, cfg, shards), (CommStats{72, 3, 0, 0}))
        << "shards=" << shards;
}

TEST(ReplayCoreLedger, CommLedgerGoldenValues) {
  // Exact ledger values for one fixed stream, recorded once and pinned so a
  // change to where the ledger is charged cannot silently change what it
  // charges. Every toggle routes (360 rounds of 24 bytes); the rebuild side
  // folds 30 snapshot distributions, the sweep gathers and the oracle's
  // query gathers. The charge rule does not depend on the shard count once
  // a boundary exists, so shards 2 and 4 agree.
  Rng rng(31);
  const auto ups = dyn_mixed_churn(48, 360, rng);
  const CommStats sharded{8640, 360, 198144, 9080};
  for (const int shards : {1, 2, 4}) {
    DynamicMatcherConfig cfg;
    cfg.eps = 0.25;
    cfg.seed = 31;
    cfg.rebuild_every = 12;
    cfg.shards = shards;
    DynamicMatcher dm(48, cfg);
    for (const EdgeUpdate& up : ups) dm.apply(up);
    ASSERT_EQ(dm.rebuilds(), 30) << "shards=" << shards;
    const CommStats want = shards == 1 ? CommStats{} : sharded;
    const CommStats got = dm.comm_stats();
    EXPECT_EQ(got.batch_bytes, want.batch_bytes) << "shards=" << shards;
    EXPECT_EQ(got.batch_rounds, want.batch_rounds) << "shards=" << shards;
    EXPECT_EQ(got.rebuild_bytes, want.rebuild_bytes) << "shards=" << shards;
    EXPECT_EQ(got.rebuild_rounds, want.rebuild_rounds) << "shards=" << shards;
  }
}

TEST(ReplayCoreLedger, CommLedgerIndependentOfBatchSize) {
  // The update path charges one routing round of two directed copies per
  // toggled update, whatever batch it arrives in, so every batch slicing
  // reproduces the serial apply loop's ledger exactly.
  Rng rng(24);
  const auto ups = dyn_shard_partitioned(48, 4, 380, 0.7, 0.7, rng);
  for (const int shards : {2, 4}) {
    DynamicMatcherConfig cfg;
    cfg.eps = 0.25;
    cfg.seed = 24;
    cfg.rebuild_every = 40;  // room for multi-update batches between rebuilds
    cfg.shards = shards;
    DynamicMatcher serial(48, cfg);
    for (const EdgeUpdate& up : ups) serial.apply(up);
    const CommStats want = serial.comm_stats();
    EXPECT_GT(serial.rebuilds(), 0);
    EXPECT_GT(want.batch_rounds, 0);
    EXPECT_EQ(want.batch_bytes, want.batch_rounds * 24);
    for (const std::int64_t batch_size : {7, 64}) {
      DynamicMatcher batched(48, cfg);
      for (const auto& batch : slice_updates(ups, batch_size))
        batched.apply_batch(batch);
      EXPECT_EQ(batched.comm_stats(), want)
          << "shards=" << shards << " batch=" << batch_size;
    }
  }
}

TEST(ReplayCoreLedger, CommLedgerMonotoneMidStream) {
  Rng rng(21);
  const auto ups = dyn_shard_partitioned(48, 4, 380, 0.7, 0.7, rng);
  DynamicMatcherConfig cfg;
  cfg.eps = 0.25;
  cfg.seed = 21;
  cfg.shards = 4;
  DynamicMatcher dm(48, cfg);
  CommStats last;
  for (const auto& batch : slice_updates(ups, 32)) {
    dm.apply_batch(batch);
    const CommStats comm = dm.comm_stats();
    EXPECT_GE(comm.batch_bytes, last.batch_bytes);
    EXPECT_GE(comm.batch_rounds, last.batch_rounds);
    EXPECT_GE(comm.rebuild_bytes, last.rebuild_bytes);
    EXPECT_GE(comm.rebuild_rounds, last.rebuild_rounds);
    last = comm;
  }
  // Real shards moved real bytes on both sides of the ledger: updates routed
  // copies and every rebuild distributed its snapshot.
  EXPECT_GT(last.batch_bytes, 0);
  EXPECT_GT(last.batch_rounds, 0);
  EXPECT_GT(last.rebuild_bytes, 0);
  EXPECT_GE(last.rebuild_rounds, dm.rebuilds());
  EXPECT_EQ(last.coord_bytes(), last.batch_bytes + last.rebuild_bytes);
  EXPECT_EQ(last.coord_rounds(), last.batch_rounds + last.rebuild_rounds);
}

}  // namespace
}  // namespace bmf
