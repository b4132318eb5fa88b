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

#include <cmath>
#include <cstdint>

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

  /// Thread-pool fan-out for the parallel loops that take their thread count
  /// from this config: independent boosting repetitions, oracle sampling,
  /// simulator rounds, and the initial matching's free-free edge filter. The
  /// FrameworkDriver's H'/H'_s sweeps (and so every Theorem 6.2 rebuild) are
  /// serial and ignore it. 0 = std::thread::hardware_concurrency(), 1 =
  /// serial. Every parallel path follows the deterministic-merge discipline
  /// of util/thread_pool.hpp, so for a fixed `seed` the results are
  /// bit-identical at any thread count.
  int threads = 0;

  /// --- derived quantities (Section 4) ---

  [[nodiscard]] int ell_max() const {
    BMF_REQUIRE(eps > 0.0 && eps <= 1.0, "CoreConfig: eps must be in (0, 1]");
    return std::max(1, static_cast<int>(std::ceil(3.0 / eps)));
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
    return static_cast<std::int64_t>(std::ceil(72.0 / (h * eps)));
  }

  /// Paper-scheduled phases per scale at scale h.
  [[nodiscard]] std::int64_t scheduled_phases(double h) const {
    return static_cast<std::int64_t>(std::ceil(144.0 / (h * eps)));
  }

  /// Paper-scheduled oracle iterations per simulation loop (Algorithms 4, 5)
  /// for a c-approximate oracle.
  [[nodiscard]] std::int64_t scheduled_iterations(double c) const {
    return std::max<std::int64_t>(
        1, static_cast<std::int64_t>(std::ceil(22.0 * c * std::log(1.0 / eps))));
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
};

}  // namespace bmf
