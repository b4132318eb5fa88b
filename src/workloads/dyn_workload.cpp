#include "workloads/dyn_workload.hpp"

#include <algorithm>
#include <deque>
#include <unordered_set>
#include <vector>

#include "util/assert.hpp"

namespace bmf {
namespace {

Edge random_fresh_edge(Vertex n, const std::unordered_set<std::uint64_t>& live,
                       Rng& rng) {
  for (;;) {
    const auto u = static_cast<Vertex>(rng.next_below(static_cast<std::uint64_t>(n)));
    const auto v = static_cast<Vertex>(rng.next_below(static_cast<std::uint64_t>(n)));
    if (u == v) continue;
    if (!live.contains(edge_key(u, v))) return {std::min(u, v), std::max(u, v)};
  }
}

}  // namespace

std::vector<EdgeUpdate> dyn_planted_teardown(Vertex pairs, Vertex hubs, Rng& rng) {
  BMF_REQUIRE(pairs >= 1 && hubs >= 1, "dyn_planted_teardown: bad parameters");
  std::vector<EdgeUpdate> ups;
  const Vertex hub_base = 2 * pairs;
  for (Vertex i = 0; i < pairs; ++i) ups.push_back(EdgeUpdate::ins(2 * i, 2 * i + 1));
  for (Vertex i = 0; i < pairs; ++i) {
    ups.push_back(EdgeUpdate::ins(2 * i, hub_base + (i % hubs)));
    ups.push_back(EdgeUpdate::ins(2 * i + 1, hub_base + ((i + 1) % hubs)));
  }
  std::vector<Vertex> order(static_cast<std::size_t>(pairs));
  for (Vertex i = 0; i < pairs; ++i) order[static_cast<std::size_t>(i)] = i;
  rng.shuffle(order);
  for (const Vertex j : order) ups.push_back(EdgeUpdate::del(2 * j, 2 * j + 1));
  return ups;
}

std::vector<EdgeUpdate> dyn_random_updates(Vertex n, std::int64_t count,
                                           double insert_prob, Rng& rng) {
  BMF_REQUIRE(n >= 2 && count >= 0, "dyn_random_updates: bad parameters");
  std::vector<EdgeUpdate> updates;
  updates.reserve(static_cast<std::size_t>(count));
  std::unordered_set<std::uint64_t> live;
  std::vector<Edge> live_list;
  while (static_cast<std::int64_t>(updates.size()) < count) {
    const bool do_insert = live_list.empty() || rng.next_bool(insert_prob);
    if (do_insert) {
      const Edge e = random_fresh_edge(n, live, rng);
      live.insert(edge_key(e.u, e.v));
      live_list.push_back(e);
      updates.push_back(EdgeUpdate::ins(e.u, e.v));
    } else {
      const std::size_t i =
          static_cast<std::size_t>(rng.next_below(live_list.size()));
      const Edge e = live_list[i];
      live_list[i] = live_list.back();
      live_list.pop_back();
      live.erase(edge_key(e.u, e.v));
      updates.push_back(EdgeUpdate::del(e.u, e.v));
    }
  }
  return updates;
}

std::vector<EdgeUpdate> dyn_sliding_window(Vertex n, std::int64_t window,
                                           std::int64_t count, Rng& rng) {
  BMF_REQUIRE(n >= 2 && window >= 1 && count >= 0,
              "dyn_sliding_window: bad parameters");
  std::vector<EdgeUpdate> updates;
  std::unordered_set<std::uint64_t> live;
  std::deque<Edge> fifo;
  while (static_cast<std::int64_t>(updates.size()) < count) {
    if (static_cast<std::int64_t>(fifo.size()) >= window) {
      const Edge e = fifo.front();
      fifo.pop_front();
      live.erase(edge_key(e.u, e.v));
      updates.push_back(EdgeUpdate::del(e.u, e.v));
      if (static_cast<std::int64_t>(updates.size()) >= count) break;
    }
    const Edge e = random_fresh_edge(n, live, rng);
    live.insert(edge_key(e.u, e.v));
    fifo.push_back(e);
    updates.push_back(EdgeUpdate::ins(e.u, e.v));
  }
  return updates;
}

std::vector<EdgeUpdate> dyn_churn_planted(Vertex n, std::int64_t count, Rng& rng) {
  BMF_REQUIRE(n >= 4 && n % 2 == 0 && count >= 0,
              "dyn_churn_planted: need even n >= 4");
  std::vector<EdgeUpdate> updates;
  std::unordered_set<std::uint64_t> live;
  // Plant the perfect matching i <-> i + n/2.
  std::vector<Edge> planted;
  const Vertex half = n / 2;
  for (Vertex i = 0; i < half && static_cast<std::int64_t>(updates.size()) < count;
       ++i) {
    planted.push_back({i, i + half});
    live.insert(edge_key(i, i + half));
    updates.push_back(EdgeUpdate::ins(i, i + half));
  }
  // Churn: delete one planted edge, insert a random replacement pair shift.
  while (static_cast<std::int64_t>(updates.size()) < count) {
    const std::size_t i =
        static_cast<std::size_t>(rng.next_below(planted.size()));
    const Edge old = planted[i];
    live.erase(edge_key(old.u, old.v));
    updates.push_back(EdgeUpdate::del(old.u, old.v));
    if (static_cast<std::int64_t>(updates.size()) >= count) break;
    // Re-plant the same pair through a random intermediate shift: connect
    // old.u to a random partner w and keep churn local.
    Edge fresh = random_fresh_edge(n, live, rng);
    live.insert(edge_key(fresh.u, fresh.v));
    planted[i] = fresh;
    updates.push_back(EdgeUpdate::ins(fresh.u, fresh.v));
  }
  return updates;
}

std::vector<EdgeUpdate> dyn_shard_partitioned(Vertex n, int shards,
                                              std::int64_t count,
                                              double cross_fraction,
                                              double insert_prob, Rng& rng) {
  BMF_REQUIRE(shards >= 1 && n >= 2 * static_cast<Vertex>(shards) && count >= 0 &&
                  cross_fraction >= 0 && cross_fraction <= 1,
              "dyn_shard_partitioned: bad parameters");
  // Contiguous ceil blocks: shard s owns [s * block, (s+1) * block) clipped
  // to n, and the last shard also takes any remainder. The split can leave
  // trailing blocks empty or single-vertex (e.g. n = 9, shards = 4 ->
  // [0,3) [3,6) [6,9) []), so draws go through eligibility lists:
  // intra-shard edges need a block of >= 2 vertices, cross-shard endpoints
  // any non-empty block.
  const Vertex k = static_cast<Vertex>(shards);
  const Vertex block = (n + k - 1) / k;
  const auto begin = [&](int s) { return std::min<Vertex>(n, s * block); };
  const auto size = [&](int s) {
    const Vertex end = s == shards - 1 ? n : std::min<Vertex>(n, (s + 1) * block);
    return end - begin(s);
  };
  std::vector<int> intra_ok, cross_ok;
  for (int s = 0; s < shards; ++s) {
    if (size(s) >= 2) intra_ok.push_back(s);
    if (size(s) >= 1) cross_ok.push_back(s);
  }
  BMF_ASSERT(!intra_ok.empty());  // n >= 2 guarantees block 0 holds two
  const auto draw_in = [&](int s) {
    return begin(s) +
           static_cast<Vertex>(rng.next_below(static_cast<std::uint64_t>(size(s))));
  };

  std::vector<EdgeUpdate> updates;
  updates.reserve(static_cast<std::size_t>(count));
  std::unordered_set<std::uint64_t> live;
  std::vector<Edge> live_list;
  // On tiny graphs an insert-heavy stream can saturate the whole edge set;
  // force deletions at the cap so the generator always terminates.
  const std::int64_t max_edges = static_cast<std::int64_t>(n) * (n - 1) / 2;
  while (static_cast<std::int64_t>(updates.size()) < count) {
    const bool can_insert =
        static_cast<std::int64_t>(live_list.size()) < max_edges;
    const bool do_insert =
        live_list.empty() || (can_insert && rng.next_bool(insert_prob));
    if (do_insert) {
      Edge e{kNoVertex, kNoVertex};
      // A small block can saturate; after a bounded number of draws fall
      // back to a global fresh edge (same idiom as dyn_batched_bursts).
      for (int attempt = 0; attempt < 64; ++attempt) {
        Vertex u, v;
        if (cross_ok.size() >= 2 && rng.next_bool(cross_fraction)) {
          auto i = static_cast<std::size_t>(rng.next_below(cross_ok.size()));
          auto j = static_cast<std::size_t>(rng.next_below(cross_ok.size() - 1));
          if (j >= i) ++j;  // distinct shard, uniform over the rest
          u = draw_in(cross_ok[i]);
          v = draw_in(cross_ok[j]);
        } else {
          const int s = intra_ok[static_cast<std::size_t>(
              rng.next_below(intra_ok.size()))];
          u = draw_in(s);
          v = draw_in(s);
        }
        if (u == v || live.contains(edge_key(u, v))) continue;
        e = {std::min(u, v), std::max(u, v)};
        break;
      }
      if (e.u == kNoVertex) e = random_fresh_edge(n, live, rng);
      live.insert(edge_key(e.u, e.v));
      live_list.push_back(e);
      updates.push_back(EdgeUpdate::ins(e.u, e.v));
    } else {
      const std::size_t i =
          static_cast<std::size_t>(rng.next_below(live_list.size()));
      const Edge e = live_list[i];
      live_list[i] = live_list.back();
      live_list.pop_back();
      live.erase(edge_key(e.u, e.v));
      updates.push_back(EdgeUpdate::del(e.u, e.v));
    }
  }
  return updates;
}

std::vector<EdgeUpdate> dyn_mixed_churn(Vertex n, std::int64_t count, Rng& rng) {
  BMF_REQUIRE(n >= 8 && count >= 0, "dyn_mixed_churn: need n >= 8");
  std::vector<EdgeUpdate> updates;
  updates.reserve(static_cast<std::size_t>(count));
  std::unordered_set<std::uint64_t> live;
  std::vector<Edge> live_list;
  std::deque<Edge> fifo;  // insertion order, for the eviction phase

  const auto emit_insert = [&](Edge e) {
    live.insert(edge_key(e.u, e.v));
    live_list.push_back(e);
    fifo.push_back(e);
    updates.push_back(EdgeUpdate::ins(e.u, e.v));
  };
  const auto forget = [&](Edge e) {
    live.erase(edge_key(e.u, e.v));
    for (std::size_t i = 0; i < live_list.size(); ++i) {
      if (live_list[i].u == e.u && live_list[i].v == e.v) {
        live_list[i] = live_list.back();
        live_list.pop_back();
        break;
      }
    }
    updates.push_back(EdgeUpdate::del(e.u, e.v));
  };

  const std::int64_t phase_len = std::max<std::int64_t>(8, n / 2);
  int phase = 0;
  while (static_cast<std::int64_t>(updates.size()) < count) {
    const std::int64_t phase_end = std::min<std::int64_t>(
        count, static_cast<std::int64_t>(updates.size()) + phase_len);
    switch (phase) {
      case 0:  // insert-heavy burst
        while (static_cast<std::int64_t>(updates.size()) < phase_end)
          emit_insert(random_fresh_edge(n, live, rng));
        break;
      case 1: {  // planted pairs, then a consecutive disjoint teardown
        std::vector<Edge> planted;
        const Vertex pairs = static_cast<Vertex>(
            std::min<std::int64_t>(n / 2, (phase_end - static_cast<std::int64_t>(
                                                           updates.size())) /
                                              2));
        for (Vertex i = 0; i < pairs; ++i) {
          const Edge e{2 * i, 2 * i + 1};
          if (live.contains(edge_key(e.u, e.v))) continue;
          emit_insert(e);
          planted.push_back(e);
        }
        rng.shuffle(planted);
        for (const Edge& e : planted) forget(e);
        break;
      }
      case 2:  // deletion-heavy random mix
        while (static_cast<std::int64_t>(updates.size()) < phase_end) {
          if (!live_list.empty() && rng.next_bool(0.7)) {
            const std::size_t i =
                static_cast<std::size_t>(rng.next_below(live_list.size()));
            forget(live_list[i]);
          } else {
            emit_insert(random_fresh_edge(n, live, rng));
          }
        }
        break;
      default:  // oldest-first eviction sweep
        while (static_cast<std::int64_t>(updates.size()) < phase_end) {
          while (!fifo.empty() && !live.contains(edge_key(fifo.front().u,
                                                          fifo.front().v)))
            fifo.pop_front();
          if (fifo.empty()) {
            emit_insert(random_fresh_edge(n, live, rng));
          } else {
            const Edge e = fifo.front();
            fifo.pop_front();
            forget(e);
          }
        }
        break;
    }
    phase = (phase + 1) % 4;
  }
  updates.resize(static_cast<std::size_t>(count));
  return updates;
}

std::vector<std::vector<EdgeUpdate>> slice_updates(
    std::span<const EdgeUpdate> updates, std::int64_t batch_size) {
  BMF_REQUIRE(batch_size >= 1, "slice_updates: batch_size must be >= 1");
  std::vector<std::vector<EdgeUpdate>> batches;
  for (std::size_t i = 0; i < updates.size();
       i += static_cast<std::size_t>(batch_size)) {
    const std::size_t len =
        std::min(static_cast<std::size_t>(batch_size), updates.size() - i);
    batches.emplace_back(updates.begin() + static_cast<std::ptrdiff_t>(i),
                         updates.begin() + static_cast<std::ptrdiff_t>(i + len));
  }
  return batches;
}

std::vector<std::vector<EdgeUpdate>> dyn_batched_bursts(
    Vertex n, std::int64_t batches, std::int64_t batch_size, double insert_prob,
    double hot_fraction, Rng& rng) {
  BMF_REQUIRE(n >= 4 && batches >= 0 && batch_size >= 1 && hot_fraction >= 0 &&
                  hot_fraction <= 1,
              "dyn_batched_bursts: bad parameters");
  const Vertex hot = std::max<Vertex>(2, n / 16);
  std::unordered_set<std::uint64_t> live;
  std::vector<Edge> live_list;
  std::vector<std::vector<EdgeUpdate>> out;
  out.reserve(static_cast<std::size_t>(batches));
  for (std::int64_t b = 0; b < batches; ++b) {
    std::vector<EdgeUpdate> batch;
    batch.reserve(static_cast<std::size_t>(batch_size));
    while (static_cast<std::int64_t>(batch.size()) < batch_size) {
      const bool do_insert = live_list.empty() || rng.next_bool(insert_prob);
      if (do_insert) {
        Edge e{kNoVertex, kNoVertex};
        if (rng.next_bool(hot_fraction)) {
          // Try a fresh edge inside the hot set; it may be saturated, in
          // which case fall through to a global draw.
          for (int attempt = 0; attempt < 32; ++attempt) {
            const auto u = static_cast<Vertex>(
                rng.next_below(static_cast<std::uint64_t>(hot)));
            const auto v = static_cast<Vertex>(
                rng.next_below(static_cast<std::uint64_t>(hot)));
            if (u == v || live.contains(edge_key(u, v))) continue;
            e = {std::min(u, v), std::max(u, v)};
            break;
          }
        }
        if (e.u == kNoVertex) e = random_fresh_edge(n, live, rng);
        live.insert(edge_key(e.u, e.v));
        live_list.push_back(e);
        batch.push_back(EdgeUpdate::ins(e.u, e.v));
      } else {
        const std::size_t i =
            static_cast<std::size_t>(rng.next_below(live_list.size()));
        const Edge e = live_list[i];
        live_list[i] = live_list.back();
        live_list.pop_back();
        live.erase(edge_key(e.u, e.v));
        batch.push_back(EdgeUpdate::del(e.u, e.v));
      }
    }
    out.push_back(std::move(batch));
  }
  return out;
}

}  // namespace bmf
