/// MatchingService acceptance suite:
///
///  * ServiceQueue — the bounded MPSC ingest queue's push/drain/close
///    semantics in isolation.
///  * ServiceConfigValidation — ServiceConfig rides the shared
///    validate_core_config path and rejects its own knobs the same way.
///  * ServiceIngest — every submit entry point rejects an invalid update on
///    the caller's thread, before it is counted or enqueued.
///  * ServiceView — the MatchingView read API over live engine views and
///    exported snapshots, exercised through the abstract ReplayEngine
///    surface.
///  * ServiceBasic — end-to-end golden runs: whatever the service coalesces,
///    the published matching equals the sequential engine's.
///  * ServiceMultiReaderStress — concurrent readers against a live writer;
///    every observed snapshot must equal the golden sequential matching at
///    its update count, with staleness <= max_lag. Runs under TSan in CI.
///  * ServiceWriterStall — the SSP writer-side gate: publication provably
///    waits for lagging readers, and close() overrides the stall.
///  * ServiceFailure — an engine that throws on the writer thread fails the
///    service observably instead of aborting the process.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <exception>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dynamic/dynamic_matcher.hpp"
#include "dynamic/replay_engine.hpp"
#include "dynamic/weak_oracle.hpp"
#include "service/matching_service.hpp"
#include "differential_util.hpp"
#include "util/bounded_queue.hpp"
#include "util/rng.hpp"
#include "workloads/dyn_workload.hpp"

namespace bmf {
namespace {

// ------------------------------------------------------------- ServiceQueue

TEST(ServiceQueue, DrainsInArrivalOrderAndReportsBacklog) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.push(i));
  EXPECT_EQ(q.size(), 5u);

  std::vector<int> out;
  std::size_t backlog = 0;
  EXPECT_EQ(q.drain(out, 3, &backlog), 3u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(backlog, 5u);  // depth observed at the drain, not what was taken
  EXPECT_EQ(q.drain(out, 100, &backlog), 2u);
  EXPECT_EQ(out, (std::vector<int>{3, 4}));
  EXPECT_EQ(backlog, 2u);
}

TEST(ServiceQueue, TryPushRefusesWhenFull) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));
  std::vector<int> out;
  EXPECT_EQ(q.drain(out, 100), 2u);
  EXPECT_TRUE(q.try_push(3));
}

TEST(ServiceQueue, CloseServesBacklogThenSignalsShutdown) {
  BoundedQueue<int> q(8);
  EXPECT_TRUE(q.push(7));
  q.close();
  EXPECT_FALSE(q.push(8));
  EXPECT_FALSE(q.try_push(9));
  std::vector<int> out;
  EXPECT_EQ(q.drain(out, 100), 1u);  // accepted items survive close
  EXPECT_EQ(out, std::vector<int>{7});
  EXPECT_EQ(q.drain(out, 100), 0u);  // then 0 forever
  EXPECT_EQ(q.drain(out, 100), 0u);
}

TEST(ServiceQueue, PushBlocksUntilDrainFreesSpace) {
  BoundedQueue<int> q(1);
  EXPECT_TRUE(q.push(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.push(2));  // blocks: capacity 1 and slot taken
    pushed.store(true, std::memory_order_release);
  });
  std::vector<int> out, all;
  while (all.size() < 2) {
    (void)q.drain(out, 1);
    all.insert(all.end(), out.begin(), out.end());
  }
  producer.join();
  EXPECT_TRUE(pushed.load(std::memory_order_acquire));
  EXPECT_EQ(all, (std::vector<int>{1, 2}));
}

TEST(ServiceQueue, PushAllKeepsOrderAcrossCapacityWaits) {
  BoundedQueue<int> q(2);
  const std::vector<int> items{1, 2, 3, 4, 5};
  std::thread producer([&] { EXPECT_TRUE(q.push_all(items)); });
  std::vector<int> out, all;
  while (all.size() < items.size()) {
    (void)q.drain(out, 2);
    all.insert(all.end(), out.begin(), out.end());
  }
  producer.join();
  EXPECT_EQ(all, items);
}

TEST(ServiceQueue, CloseWakesBlockedProducer) {
  BoundedQueue<int> q(1);
  EXPECT_TRUE(q.push(1));
  std::thread producer([&] { EXPECT_FALSE(q.push(2)); });
  q.close();
  producer.join();
}

TEST(ServiceQueue, PushAllWakesAnAlreadyWaitingConsumer) {
  // Regression guard for the push_all notify rework (the annotation pass
  // moved signalling out of the lock): when the whole batch fits without a
  // capacity wait, the single post-unlock notify is the only wakeup a
  // blocked consumer gets — it must arrive.
  BoundedQueue<int> q(8);
  std::vector<int> out;
  std::thread consumer([&] { EXPECT_EQ(q.drain(out, 8), 3u); });
  // No rendezvous needed: whether the consumer is already parked in the wait
  // or arrives after the push, it must see the batch.
  const std::vector<int> items{1, 2, 3};
  EXPECT_TRUE(q.push_all(items));
  consumer.join();
  EXPECT_EQ(out, items);
}

TEST(ServiceQueue, PushAllMidwayCloseKeepsQueuedItemsConsumable) {
  BoundedQueue<int> q(2);
  const std::vector<int> items{1, 2, 3, 4, 5};
  std::thread producer([&] {
    EXPECT_FALSE(q.push_all(items));  // closed before the batch fits
  });
  std::vector<int> out, all;
  (void)q.drain(out, 1);  // free one slot so the producer makes progress
  all.insert(all.end(), out.begin(), out.end());
  q.close();
  producer.join();
  // Whatever was accepted before the close stays consumable, in order.
  while (q.drain(out, 8) > 0) all.insert(all.end(), out.begin(), out.end());
  ASSERT_LE(all.size(), items.size());
  ASSERT_GE(all.size(), 1u);
  for (std::size_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i], items[i]);
}

// -------------------------------------------------- ServiceConfigValidation

TEST(ServiceConfigValidation, RejectsServiceKnobs) {
  {
    ServiceConfig cfg;
    cfg.max_lag = 0;
    EXPECT_THROW(MatchingService(8, cfg), std::invalid_argument);
  }
  {
    ServiceConfig cfg;
    cfg.queue_capacity = 0;
    EXPECT_THROW(MatchingService(8, cfg), std::invalid_argument);
  }
  {
    ServiceConfig cfg;
    cfg.coalesce_max = -1;
    EXPECT_THROW(MatchingService(8, cfg), std::invalid_argument);
  }
}

TEST(ServiceConfigValidation, InheritedCoreKnobsGoThroughSharedPath) {
  // The service folds into validate_core_config: core and shard knobs are
  // rejected by the same gate as the engine itself.
  {
    ServiceConfig cfg;
    cfg.eps = 0.0;
    EXPECT_THROW(MatchingService(8, cfg), std::invalid_argument);
  }
  {
    ServiceConfig cfg;
    cfg.shards = 0;
    EXPECT_THROW(MatchingService(8, cfg), std::invalid_argument);
  }
  {
    ServiceConfig cfg;
    cfg.threads = -1;
    EXPECT_THROW(validate_service_config(cfg, "test"), std::invalid_argument);
  }
}

TEST(ServiceConfigValidation, BorrowedEngineCtorValidatesToo) {
  DynamicMatcher engine(8, DynamicMatcherConfig{});
  ServiceConfig cfg;
  cfg.max_lag = 0;
  EXPECT_THROW(MatchingService(engine, cfg), std::invalid_argument);
}

TEST(ServiceConfigValidation, DefaultsAreValid) {
  EXPECT_NO_THROW(validate_service_config(ServiceConfig{}, "test"));
}

// ------------------------------------------------------------ ServiceIngest

TEST(ServiceIngest, InvalidUpdatesAreRejectedOnTheCallersThread) {
  constexpr Vertex n = 8;
  MatchingService svc(n, ServiceConfig{});
  const std::vector<EdgeUpdate> bad{EdgeUpdate::ins(3, 3),    // self-loop
                                    EdgeUpdate::ins(0, n),    // v >= n
                                    EdgeUpdate::del(2, -3)};  // v < 0
  for (const EdgeUpdate& up : bad) {
    EXPECT_THROW(svc.submit(up), std::invalid_argument);
    EXPECT_THROW(svc.try_submit(up), std::invalid_argument);
    // The whole span is checked before any of it is enqueued, so the valid
    // head of this batch must not commit either.
    const std::vector<EdgeUpdate> batch{EdgeUpdate::ins(4, 5), up};
    EXPECT_THROW(svc.submit_batch(batch), std::invalid_argument);
  }

  // The service is still healthy: valid updates (empty ones included)
  // commit through every entry point, and flush() and close() return.
  EXPECT_TRUE(svc.submit(EdgeUpdate::ins(0, 1)));
  EXPECT_TRUE(svc.try_submit(EdgeUpdate::none()));
  const std::vector<EdgeUpdate> ok{EdgeUpdate::ins(2, 3), EdgeUpdate::none()};
  EXPECT_TRUE(svc.submit_batch(ok));
  svc.flush();
  EXPECT_EQ(svc.stats().updates_committed, 4);
  EXPECT_EQ(svc.latest()->updates_applied(), 4);
  EXPECT_EQ(svc.latest()->size(), 2);  // {0,1} and {2,3}; {4,5} never landed
  svc.close();
  EXPECT_EQ(svc.engine().updates(), 4);
}

// -------------------------------------------------------------- ServiceView

// Generic code sees only the abstract engine.
testdiff::RunResult drive_via_engine(ReplayEngine& engine,
                                     std::span<const EdgeUpdate> ups) {
  for (const EdgeUpdate& up : ups) engine.apply(up);
  testdiff::RunResult r;
  const LiveEngineView view = engine.view();
  for (Vertex v = 0; v < view.num_vertices(); ++v)
    r.mates.push_back(view.mate_of(v));
  r.matching_size = view.size();
  r.updates = engine.updates();
  r.rebuilds = engine.rebuilds();
  r.rebuild_positions = engine.rebuild_positions();
  r.weak_calls = engine.weak_calls();
  return r;
}

TEST(ServiceView, EngineSurfaceNeedsNoFacadeCasts) {
  const Vertex n = 40;
  Rng rng(3);
  const auto ups = dyn_random_updates(n, 300, 0.7, rng);

  MatrixWeakOracle oracle(n);
  DynamicMatcher borrowed(n, oracle, DynamicMatcherConfig{});
  DynamicMatcherConfig cfg;
  cfg.shards = 3;
  DynamicMatcher owned(n, cfg);

  const testdiff::RunResult a = drive_via_engine(borrowed, ups);
  const testdiff::RunResult b = drive_via_engine(owned, ups);
  // Everything the replay contract pins must agree even when driven purely
  // through the abstract surface.
  EXPECT_EQ(a.mates, b.mates);
  EXPECT_EQ(a.matching_size, b.matching_size);
  EXPECT_EQ(a.rebuild_positions, b.rebuild_positions);
  EXPECT_EQ(a.weak_calls, b.weak_calls);
  EXPECT_GE(a.rebuilds, 1);
}

TEST(ServiceView, LiveViewTracksTheEngine) {
  const Vertex n = 10;
  MatrixWeakOracle oracle(n);
  DynamicMatcher dm(n, oracle, DynamicMatcherConfig{});
  const LiveEngineView view = dm.view();
  EXPECT_EQ(view.size(), 0);
  EXPECT_FALSE(view.is_matched(0));

  dm.insert(0, 1);
  EXPECT_EQ(view.size(), dm.matching().size());
  EXPECT_EQ(view.mate_of(0), dm.matching().mate(0));
  EXPECT_EQ(view.epoch(), dm.updates());
  EXPECT_TRUE(view.is_matched(0) == (dm.matching().mate(0) != kNoVertex));
}

TEST(ServiceView, ExportedSnapshotIsImmutableAndComparable) {
  const Vertex n = 10;
  MatrixWeakOracle oracle(n);
  DynamicMatcher dm(n, oracle, DynamicMatcherConfig{});
  dm.insert(0, 1);
  dm.insert(2, 3);
  const MatchingSnapshot s1 = dm.export_snapshot(dm.updates());
  const MatchingSnapshot s2 = dm.export_snapshot(dm.updates());
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(s1.num_vertices(), n);
  EXPECT_EQ(s1.updates_applied(), 2);

  dm.erase(0, 1);  // the snapshot must not move with the engine
  EXPECT_EQ(s1.size(), 2);
  EXPECT_EQ(s1.mate_of(0), Vertex{1});
  EXPECT_NE(dm.matching().mate(0), Vertex{1});
}

// ------------------------------------------------------------- ServiceBasic

std::uint64_t mates_digest(std::span<const Vertex> mates) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (const Vertex v : mates) {
    h ^= static_cast<std::uint64_t>(v) + 0x9e3779b97f4a7c15ull;
    h *= 1099511628211ull;
  }
  return h;
}

/// Golden prefix trajectory: digest + size of the sequential engine's
/// matching after every prefix of the update stream. Because apply_batch is
/// bit-identical to the apply loop at any batch boundaries, a service
/// snapshot with updates_applied() == u must reproduce entry u exactly —
/// however the arrivals coalesced.
struct GoldenTrajectory {
  std::vector<std::uint64_t> digest;
  std::vector<std::int64_t> size;
};

GoldenTrajectory golden_trajectory(Vertex n, std::span<const EdgeUpdate> ups,
                                   const DynamicMatcherConfig& cfg) {
  MatrixWeakOracle oracle(n);
  DynamicMatcher dm(n, oracle, cfg);
  GoldenTrajectory g;
  const auto record = [&] {
    g.digest.push_back(mates_digest(dm.export_snapshot(0).mates()));
    g.size.push_back(dm.matching().size());
  };
  record();
  for (const EdgeUpdate& up : ups) {
    dm.apply(up);
    record();
  }
  return g;
}

TEST(ServiceBasic, EpochZeroIsPublishedBeforeAnySubmit) {
  ServiceConfig cfg;
  MatchingService svc(16, cfg);
  const auto snap = svc.latest();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->epoch(), 0);
  EXPECT_EQ(snap->size(), 0);
  EXPECT_EQ(svc.current_epoch(), 0);

  const SnapshotReader reader(svc);
  EXPECT_EQ(reader.size(), 0);
  EXPECT_FALSE(reader.is_matched(3));
  EXPECT_EQ(reader.last_staleness(), 0);
}

TEST(ServiceBasic, CommittedMatchingEqualsSequentialGolden) {
  const Vertex n = 40;
  Rng rng(11);
  const auto ups = dyn_random_updates(n, 400, 0.7, rng);
  DynamicMatcherConfig gcfg;
  const testdiff::RunResult want = testdiff::run_sequential(n, ups, gcfg);

  ServiceConfig cfg;
  cfg.shards = 2;
  cfg.threads = 2;
  cfg.coalesce_max = 32;
  MatchingService svc(n, cfg);
  EXPECT_TRUE(svc.submit_batch(ups));
  svc.flush();

  const auto snap = svc.latest();
  EXPECT_EQ(snap->updates_applied(), static_cast<std::int64_t>(ups.size()));
  EXPECT_EQ(std::vector<Vertex>(snap->mates().begin(), snap->mates().end()),
            want.mates);
  EXPECT_EQ(snap->size(), want.matching_size);
  EXPECT_EQ(snap->epoch(), svc.current_epoch());

  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.updates_committed, static_cast<std::int64_t>(ups.size()));
  EXPECT_GE(st.epochs, static_cast<std::int64_t>(ups.size()) / 32);
  EXPECT_EQ(st.rebuilds, want.rebuilds);

  svc.close();
  // After close the engine is quiescent and must agree with the snapshot.
  EXPECT_EQ(svc.engine().matching().size(), want.matching_size);
  EXPECT_EQ(svc.engine().rebuild_positions(), want.rebuild_positions);
}

TEST(ServiceBasic, BorrowedEngineIsServedInPlace) {
  const Vertex n = 30;
  Rng rng(5);
  const auto ups = dyn_random_updates(n, 200, 0.75, rng);
  const testdiff::RunResult want =
      testdiff::run_sequential(n, ups, DynamicMatcherConfig{});

  DynamicMatcherConfig ecfg;
  ecfg.shards = 2;
  DynamicMatcher engine(n, ecfg);
  {
    ServiceConfig cfg;
    cfg.coalesce_max = 16;
    MatchingService svc(engine, cfg);
    EXPECT_TRUE(svc.submit_batch(ups));
    svc.flush();
    EXPECT_EQ(svc.latest()->size(), want.matching_size);
  }  // destructor closes and joins
  EXPECT_EQ(engine.updates(), static_cast<std::int64_t>(ups.size()));
  const testdiff::RunResult got = testdiff::collect(engine);
  EXPECT_EQ(got.mates, want.mates);
  EXPECT_EQ(got.rebuild_positions, want.rebuild_positions);
}

TEST(ServiceBasic, SubmitFailsAfterCloseAndCloseIsIdempotent) {
  MatchingService svc(8, ServiceConfig{});
  EXPECT_TRUE(svc.submit({0, 1, true}));
  svc.flush();
  svc.close();
  svc.close();
  EXPECT_FALSE(svc.submit({1, 2, true}));
  EXPECT_FALSE(svc.try_submit({1, 2, true}));
  const std::vector<EdgeUpdate> more{{2, 3, true}};
  EXPECT_FALSE(svc.submit_batch(more));
  svc.flush();  // nothing pending; must not hang
  EXPECT_EQ(svc.stats().updates_committed, 1);
}

TEST(ServiceBasic, RefusedConcurrentSubmitsDoNotStrandFlush) {
  // Regression: flush() captures submitted_ as its target; a concurrent
  // submit in its count-then-push window whose push is then refused (queue
  // closed) rolls the counter back, and the old predicate (committed_ >=
  // target alone) could wait for a count that will never commit. The fixed
  // predicate also releases once committed_ catches submitted_, and both
  // refusal paths notify — so flush must always return here no matter how
  // the submits interleave with the captures. A regression shows up as this
  // test hanging into the ctest timeout.
  MatchingService svc(8, ServiceConfig{});
  EXPECT_TRUE(svc.submit({0, 1, true}));
  svc.flush();
  svc.close();

  constexpr int kIters = 200;
  std::thread submitter([&] {
    for (int i = 0; i < kIters; ++i) EXPECT_FALSE(svc.submit({1, 2, true}));
  });
  std::thread trier([&] {
    for (int i = 0; i < kIters; ++i) EXPECT_FALSE(svc.try_submit({2, 3, true}));
  });
  for (int i = 0; i < kIters; ++i) svc.flush();
  submitter.join();
  trier.join();
  svc.flush();
  EXPECT_EQ(svc.stats().updates_committed, 1);
}

// -------------------------------------------------- ServiceMultiReaderStress

// gtest assertions are not thread-safe: readers record violations as strings
// and the main thread asserts after joining.
TEST(ServiceMultiReaderStress, EverySnapshotMatchesGoldenAtItsUpdateCount) {
  const Vertex n = 48;
  Rng rng(17);
  const auto ups = dyn_random_updates(n, 500, 0.7, rng);
  DynamicMatcherConfig gcfg;
  const GoldenTrajectory golden = golden_trajectory(n, ups, gcfg);

  ServiceConfig cfg;
  cfg.shards = 2;
  cfg.threads = 2;
  cfg.max_lag = 3;
  cfg.queue_capacity = 64;
  cfg.coalesce_max = 16;
  MatchingService svc(n, cfg);

  constexpr int kReaders = 4;
  std::atomic<bool> stop{false};
  std::vector<std::vector<std::string>> violations(kReaders);
  std::vector<std::int64_t> reads(kReaders, 0);
  std::vector<std::thread> threads;
  threads.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      SnapshotReader reader(svc);
      auto& errs = violations[static_cast<std::size_t>(t)];
      while (!stop.load(std::memory_order_acquire)) {
        const auto snap = reader.snapshot();
        const auto u = static_cast<std::size_t>(snap->updates_applied());
        if (u >= golden.digest.size()) {
          errs.push_back("updates_applied out of range: " + std::to_string(u));
          break;
        }
        if (mates_digest(snap->mates()) != golden.digest[u])
          errs.push_back("mates diverge from golden at u=" + std::to_string(u));
        if (snap->size() != golden.size[u])
          errs.push_back("size diverges from golden at u=" + std::to_string(u));
        if (reader.last_staleness() > cfg.max_lag)
          errs.push_back("staleness " + std::to_string(reader.last_staleness()) +
                         " exceeds max_lag");
        ++reads[static_cast<std::size_t>(t)];
      }
    });
  }

  // Single producer: golden prefixes assume submission order == stream order.
  for (const EdgeUpdate& up : ups) ASSERT_TRUE(svc.submit(up));
  svc.flush();
  stop.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();

  for (int t = 0; t < kReaders; ++t) {
    const auto& errs = violations[static_cast<std::size_t>(t)];
    EXPECT_TRUE(errs.empty()) << "reader " << t << ": " << errs.front()
                              << " (+" << errs.size() - 1 << " more)";
    EXPECT_GE(reads[static_cast<std::size_t>(t)], 1);
  }

  const auto fin = svc.latest();
  EXPECT_EQ(fin->updates_applied(), static_cast<std::int64_t>(ups.size()));
  EXPECT_EQ(mates_digest(fin->mates()), golden.digest.back());

  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.updates_committed, static_cast<std::int64_t>(ups.size()));
  ASSERT_EQ(st.staleness_hist.size(), static_cast<std::size_t>(cfg.max_lag) + 2);
  // The refresh rule makes reads beyond max_lag impossible: the overflow
  // bucket is structurally empty.
  EXPECT_EQ(st.staleness_hist.back(), 0);
  std::int64_t histed = 0;
  for (const std::int64_t c : st.staleness_hist) histed += c;
  EXPECT_EQ(histed, st.reads);
  EXPECT_GE(st.reads, kReaders);
}

// ------------------------------------------------------- ServiceWriterStall

TEST(ServiceWriterStall, PublicationWaitsForLaggingReader) {
  ServiceConfig cfg;
  cfg.max_lag = 1;
  cfg.coalesce_max = 1;  // one update per epoch, so the gate is per-update
  cfg.queue_capacity = 1;
  cfg.stall_writer = true;
  MatchingService svc(8, cfg);
  SnapshotReader reader(svc);  // registered, deliberately not reading yet

  // Epoch 1 may publish against observed = 0 (staleness exactly max_lag);
  // epoch 2 must stall until the reader observes >= 1. With no reads yet the
  // writer provably blocks in the gate, so polling writer_stalled() is a
  // deterministic rendezvous — no sleeps.
  EXPECT_TRUE(svc.submit({0, 1, true}));
  EXPECT_TRUE(svc.submit({2, 3, true}));
  EXPECT_TRUE(svc.submit({4, 5, true}));
  while (!svc.writer_stalled()) std::this_thread::yield();
  EXPECT_EQ(svc.current_epoch(), 1);

  // Reading advances the SSP clock and releases the writer epoch by epoch.
  while (svc.current_epoch() < 3) (void)reader.size();
  svc.flush();
  EXPECT_EQ(svc.current_epoch(), 3);
  EXPECT_EQ(svc.stats().updates_committed, 3);
  EXPECT_GE(svc.stats().writer_stalls, 1);
  EXPECT_EQ(reader.size(), 3);
}

TEST(ServiceWriterStall, CloseOverridesTheStall) {
  ServiceConfig cfg;
  cfg.max_lag = 1;
  cfg.coalesce_max = 1;
  cfg.stall_writer = true;
  MatchingService svc(8, cfg);
  SnapshotReader reader(svc);  // never reads: the writer would stall forever

  EXPECT_TRUE(svc.submit({0, 1, true}));
  EXPECT_TRUE(svc.submit({2, 3, true}));
  EXPECT_TRUE(svc.submit({4, 5, true}));
  svc.close();  // must lift the gate, drain everything, and join
  EXPECT_EQ(svc.current_epoch(), 3);
  EXPECT_EQ(svc.latest()->size(), 3);
}

TEST(ServiceWriterStall, DepartingReaderReleasesTheWriter) {
  ServiceConfig cfg;
  cfg.max_lag = 1;
  cfg.coalesce_max = 1;
  cfg.stall_writer = true;
  MatchingService svc(8, cfg);
  {
    SnapshotReader lagging(svc);
    EXPECT_TRUE(svc.submit({0, 1, true}));
    EXPECT_TRUE(svc.submit({2, 3, true}));
    EXPECT_LE(svc.current_epoch(), 1);
  }  // deregistration wakes the stalled writer
  svc.flush();
  EXPECT_EQ(svc.current_epoch(), 2);
}

// ---------------------------------------------------------- ServiceFailure

/// Fault injection: forwards to a real engine, except that the `fail_at`-th
/// apply_batch applies the first update of its batch and then throws, like
/// a rebuild that runs out of memory mid-batch.
class FailingEngine final : public ReplayEngine {
 public:
  FailingEngine(Vertex n, int fail_at)
      : inner_(n, DynamicMatcherConfig{}), fail_at_(fail_at) {}

  void apply(const EdgeUpdate& update) override { inner_.apply(update); }
  void apply_batch(std::span<const EdgeUpdate> batch) override {
    if (++batches_ == fail_at_) {
      inner_.apply(batch.front());
      throw std::runtime_error("injected engine failure");
    }
    inner_.apply_batch(batch);
  }
  [[nodiscard]] Vertex num_vertices() const override { return inner_.num_vertices(); }
  [[nodiscard]] const Matching& matching() const override { return inner_.matching(); }
  [[nodiscard]] Graph snapshot() const override { return inner_.snapshot(); }
  [[nodiscard]] MatchingSnapshot export_snapshot(std::int64_t epoch) const override {
    return inner_.export_snapshot(epoch);
  }
  [[nodiscard]] std::int64_t updates() const override { return inner_.updates(); }
  [[nodiscard]] std::int64_t rebuilds() const override { return inner_.rebuilds(); }
  [[nodiscard]] std::int64_t weak_calls() const override { return inner_.weak_calls(); }
  [[nodiscard]] const std::vector<std::int64_t>& rebuild_positions() const override {
    return inner_.rebuild_positions();
  }
  [[nodiscard]] const RebuildStats& rebuild_stats() const override {
    return inner_.rebuild_stats();
  }
  [[nodiscard]] CommStats comm_stats() const override { return inner_.comm_stats(); }

 private:
  DynamicMatcher inner_;
  int fail_at_;
  int batches_ = 0;
};

TEST(ServiceFailure, EngineExceptionFailsTheServiceWithoutAborting) {
  FailingEngine engine(8, /*fail_at=*/2);
  {
    MatchingService svc(engine, ServiceConfig{});
    EXPECT_TRUE(svc.submit(EdgeUpdate::ins(0, 1)));
    svc.flush();  // the first batch commits as epoch 1
    EXPECT_EQ(svc.error(), nullptr);
    ASSERT_EQ(svc.current_epoch(), 1);

    // The second batch throws on the writer thread: flush stops waiting for
    // a commit that cannot come and rethrows the engine's exception.
    EXPECT_TRUE(svc.submit(EdgeUpdate::ins(2, 3)));
    EXPECT_THROW(svc.flush(), std::runtime_error);
    const std::exception_ptr error = svc.error();
    ASSERT_NE(error, nullptr);
    EXPECT_THROW(std::rethrow_exception(error), std::runtime_error);

    // Intake is closed, as after close(), and flush keeps reporting.
    EXPECT_FALSE(svc.submit(EdgeUpdate::ins(4, 5)));
    EXPECT_FALSE(svc.try_submit(EdgeUpdate::ins(4, 5)));
    const std::vector<EdgeUpdate> more{EdgeUpdate::ins(6, 7)};
    EXPECT_FALSE(svc.submit_batch(more));
    EXPECT_THROW(svc.flush(), std::runtime_error);

    // Nothing from the failed batch was published: epoch 1 stays latest.
    EXPECT_EQ(svc.current_epoch(), 1);
    EXPECT_EQ(svc.latest()->updates_applied(), 1);
    EXPECT_EQ(svc.latest()->size(), 1);
    EXPECT_EQ(svc.stats().updates_committed, 1);
    EXPECT_NO_THROW(svc.close());
    EXPECT_NO_THROW(svc.close());
  }  // the destructor completes too
  // apply_batch's guarantee: a throw past validation leaves the batch partly
  // applied in the engine.
  EXPECT_EQ(engine.updates(), 2);
}

}  // namespace
}  // namespace bmf
