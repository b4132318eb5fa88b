#pragma once

/// Distributed maximal matching in CONGEST (Israeli-Itai-style handshakes).
///
/// Each iteration (2 rounds): every free vertex proposes to a uniformly
/// random free neighbor; a free vertex that receives proposals accepts
/// exactly one, and a proposal meeting its acceptance forms a matched edge.
/// Matched vertices announce their death in the next iteration's proposal
/// round (piggy-backed). Expected O(log n) iterations to maximality.
///
/// The resulting maximal matching is the 2-approximate A_matching used by the
/// CONGEST instantiation of the framework (Corollary A.2).

#include "core/oracle.hpp"
#include "congest/network.hpp"
#include "util/rng.hpp"

namespace bmf::congest {

struct CongestMatchingResult {
  OracleMatching matching;
  std::int64_t rounds = 0;
  std::int64_t iterations = 0;
};

/// Runs the handshake algorithm on `net`'s graph until no free-free edge
/// remains. Advances the network's round counter. Proposal randomness comes
/// from per-vertex streams split from `rng` up front, so the outcome depends
/// only on the seed.
[[nodiscard]] CongestMatchingResult congest_maximal_matching(Network& net, Rng& rng);

/// A_matching backed by a CONGEST simulation on each derived graph H (the
/// derived graphs are virtual overlay networks; Appendix A routes their
/// messages through representative vertices at poly(1/eps) cost, which the
/// boosted wrapper charges separately). Tracks cumulative simulated rounds.
class CongestMatchingOracle final : public MatchingOracle {
 public:
  explicit CongestMatchingOracle(std::uint64_t seed) : rng_(seed) {}

  [[nodiscard]] double approx_factor() const override { return 2.0; }
  [[nodiscard]] std::int64_t rounds() const { return rounds_; }

 protected:
  OracleMatching find_impl(const OracleGraph& h) override;

 private:
  Rng rng_;
  std::int64_t rounds_ = 0;
};

}  // namespace bmf::congest
