#pragma once

/// Configuration shared by the phase engine and the framework simulations.
///
/// The paper states its schedules with worst-case constants (144/(h*eps)
/// phases of 72/(h*eps) pass-bundles per scale, 22*c*ln(1/eps) oracle
/// iterations per stage). The engine implements the exact control structure
/// but lets the iteration schedule be adaptive:
///
///  * kUntilEmpty runs oracle iterations until the oracle finds an empty
///    matching. This removes "contaminated" arcs entirely (Section 5.4 notes
///    contamination is an analysis device only, and the dynamic
///    implementation does not mark it).
///  * kPaperBound runs the fixed 22*c*ln(1/eps) iterations of Algorithms 4/5.
///
/// Phases terminate early when a pass-bundle performs no operation (every
/// remaining bundle would be a no-op, so skipping them is an exact
/// simulation). A run finishes with a certificate when a phase completes
/// quiescently with no augmentation found, no structure ever on hold and no
/// truncated oracle loop: by Theorem B.4 the graph then has no augmenting
/// path of length <= l_max = 3/eps, which implies a (1+eps)-approximation.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "util/assert.hpp"

namespace bmf {

enum class IterationMode {
  kUntilEmpty,  ///< iterate oracle calls until it returns an empty matching
  kPaperBound,  ///< run the paper's fixed 22*c*ln(1/eps) iterations
};

struct CoreConfig {
  /// Target approximation slack; the result is a (1+eps)-approximate MCM.
  double eps = 0.25;

  IterationMode iteration_mode = IterationMode::kUntilEmpty;

  /// Stop a scale after this many consecutive phases with zero augmentations.
  int idle_phase_limit = 2;

  /// Hard caps; 0 means "use the paper's scheduled value".
  std::int64_t max_phases_per_scale = 64;
  std::int64_t max_pass_bundles = 0;

  /// Run heavyweight structural invariant checks after every operation batch.
  bool check_invariants = false;

  /// Simulate Algorithm 5 without the label-stage split (the [FMU22]-style
  /// single derived graph over all type-3 arcs). Used by baselines/ablation.
  bool stage_split = true;

  std::uint64_t seed = 1;

  /// Thread-pool fan-out of boost_matching_ensemble's independent
  /// repetitions, the only reader of this field; boost_matching, the CONGEST
  /// simulator and every Theorem 6.2 rebuild are serial and ignore it.
  /// 0 = std::thread::hardware_concurrency(), 1 = serial; a larger value is
  /// capped at hardware concurrency (the pool's size). The ensemble writes
  /// one slot per repetition (util/thread_pool.hpp), so for a fixed `seed`
  /// its result is bit-identical at any thread count.
  int threads = 0;

  /// --- derived quantities (Section 4) ---

  /// True if eps lies in (0, 1] and the label bound l_max + 1 = ceil(3/eps) + 1
  /// fits an int, i.e. eps >= about 1.4e-9. Written so NaN fails too. The phase
  /// engine and every front end reject any other eps before doing work: a
  /// smaller one used to wrap l_max, and the run then certified a matching
  /// below (1+eps)-approximation.
  [[nodiscard]] static bool eps_supported(double eps) {
    return eps > 0.0 && eps <= 1.0 &&
           std::ceil(3.0 / eps) + 1.0 <=
               static_cast<double>(std::numeric_limits<int>::max());
  }

  [[nodiscard]] int ell_max() const {
    BMF_REQUIRE(eps_supported(eps),
                "CoreConfig: eps must be in (0, 1] with ceil(3/eps) + 1 <= INT_MAX");
    return static_cast<int>(std::ceil(3.0 / eps));
  }

  /// Coarsest scale.
  [[nodiscard]] static double first_scale() { return 0.5; }

  /// Finest scale: eps^2 / 64, but never below 1/2^30 for sanity.
  [[nodiscard]] double last_scale() const {
    return std::max(eps * eps / 64.0, 1.0 / (1 << 30));
  }

  /// Structure-size threshold for marking "on hold" at scale h.
  [[nodiscard]] std::int64_t hold_limit(double h) const {
    return static_cast<std::int64_t>(std::ceil(6.0 / h)) + 1;
  }

  /// Paper-scheduled pass-bundles per phase at scale h.
  [[nodiscard]] std::int64_t scheduled_pass_bundles(double h) const {
    return saturating_ceil(72.0 / (h * eps));
  }

  /// Paper-scheduled phases per scale at scale h.
  [[nodiscard]] std::int64_t scheduled_phases(double h) const {
    return saturating_ceil(144.0 / (h * eps));
  }

  /// Paper-scheduled oracle iterations per simulation loop (Algorithms 4, 5)
  /// for a c-approximate oracle, saturated at INT64_MAX.
  [[nodiscard]] std::int64_t scheduled_iterations(double c) const {
    return std::max<std::int64_t>(1, saturating_ceil(22.0 * c * std::log(1.0 / eps)));
  }

  /// Lemma 5.3's oracle calls for the initial matching, floor(2c) + 1 for a
  /// c-approximate oracle, saturated at INT64_MAX.
  [[nodiscard]] static std::int64_t initial_matching_calls(double c) {
    return saturating_ceil(std::floor(2.0 * c) + 1.0);
  }

  [[nodiscard]] std::int64_t pass_bundle_cap(double h) const {
    const std::int64_t scheduled = scheduled_pass_bundles(h);
    return max_pass_bundles > 0 ? std::min(max_pass_bundles, scheduled) : scheduled;
  }

  [[nodiscard]] std::int64_t phase_cap(double h) const {
    const std::int64_t scheduled = scheduled_phases(h);
    return max_phases_per_scale > 0 ? std::min(max_phases_per_scale, scheduled)
                                    : scheduled;
  }

 private:
  /// ceil(x) as an int64, saturated at both ends, with NaN read as INT64_MAX.
  /// At the finest scale the pass-bundle and phase schedules pass INT64_MAX
  /// for eps below about 8.4e-9, and the oracle schedules do for a huge
  /// approximation factor. A driver computes its oracle schedule before the
  /// phase engine rejects a bad eps, which can make x NaN or -inf.
  [[nodiscard]] static std::int64_t saturating_ceil(double x) {
    constexpr double kLimit = 9223372036854775808.0;  // 2^63
    const double c = std::ceil(x);
    if (c < -kLimit) return std::numeric_limits<std::int64_t>::min();
    return c < kLimit ? static_cast<std::int64_t>(c)
                      : std::numeric_limits<std::int64_t>::max();
  }
};

}  // namespace bmf
