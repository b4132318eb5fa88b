#pragma once

/// A Massively Parallel Computation (MPC) simulator (Section 3.4).
///
/// M machines with S words of local memory each, connected as a clique.
/// Computation proceeds in synchronous rounds: each machine consumes the
/// messages delivered to it, computes locally, and emits messages for the
/// next round. The simulator enforces the model's accounting — per-round
/// send+receive volume per machine and resident memory are measured against
/// S, and violations are counted (they fail tests).
///
/// Messages are fixed-size triples of 64-bit words (tag, a, b); this mirrors
/// the word-RAM convention of MPC algorithms and keeps load accounting exact.
///
/// Machines' local computation runs concurrently on the shared thread pool
/// (MpcConfig::threads). Each machine writes to a private outbox; after a
/// barrier the outboxes are merged into next-round inboxes in machine order,
/// which reproduces the serial delivery schedule exactly — simulation results
/// are bit-identical at any thread count. Step callbacks may freely mutate
/// per-machine state but must not write shared state without their own
/// synchronization.

#include <cstdint>
#include <functional>
#include <vector>

#include "util/assert.hpp"

namespace bmf::mpc {

struct Msg {
  std::uint64_t tag = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};
inline constexpr std::int64_t kWordsPerMsg = 3;

struct MpcConfig {
  int machines = 8;
  /// Local memory per machine, in words. 0 disables enforcement.
  std::int64_t memory_words = 0;
  /// Simulation threads for per-machine local computation: 0 = hardware
  /// concurrency, 1 = serial; a larger value is capped at hardware
  /// concurrency. Results are identical either way.
  int threads = 0;
};

class Cluster {
 public:
  explicit Cluster(const MpcConfig& cfg);

  [[nodiscard]] int machines() const { return cfg_.machines; }
  [[nodiscard]] std::int64_t rounds() const { return rounds_; }
  [[nodiscard]] std::int64_t messages_sent() const { return messages_; }
  [[nodiscard]] std::int64_t max_round_load_words() const { return max_load_; }
  [[nodiscard]] std::int64_t violations() const { return violations_; }

  /// Deterministic owner machine of a key (vertex/edge ids are hashed here).
  [[nodiscard]] int owner(std::uint64_t key) const;

  using Inbox = std::vector<Msg>;
  using Sender = std::function<void(int dest, Msg msg)>;

  /// One synchronous round: `step(machine, inbox, send)` runs on every
  /// machine; messages sent become next round's inboxes.
  void superstep(
      const std::function<void(int machine, const Inbox&, const Sender&)>& step);

  /// Charge rounds for an idealized primitive (e.g. O(1)-round sort) without
  /// simulating it message-by-message.
  void charge_rounds(std::int64_t r) { rounds_ += r; }

  /// Record resident memory usage of a machine for enforcement.
  void note_resident_words(int machine, std::int64_t words);

 private:
  MpcConfig cfg_;
  std::int64_t rounds_ = 0;
  std::int64_t messages_ = 0;
  std::int64_t max_load_ = 0;
  std::int64_t violations_ = 0;
  std::vector<Inbox> inboxes_;
};

}  // namespace bmf::mpc
