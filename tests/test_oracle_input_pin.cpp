/// Pins what `boost_matching` hands A_matching, not only what comes out of
/// it: a decorator FNV-hashes every graph it is given (n, then each edge in
/// order) into one digest per run and forwards the call to the real oracle.
/// A change to how the stage graph H'_s or the structure graph H' is built
/// that reorders, adds or drops an edge or renumbers a node moves a digest
/// here even where the matching and counters of the static golden record
/// happen to stay put. The witness arcs an answer maps back to never reach
/// the oracle, so each run is replayed through a driver decorator that, after
/// every Extend-Active-Path, hashes each inner vertex with the tail of the
/// arc that attached it: another witness for the same H'_s edge moves that
/// digest. The pins were recorded before H'_s was built from carried
/// right-node lists (structures.hpp).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/framework.hpp"
#include "core/oracle.hpp"
#include "core/phase.hpp"
#include "static_inputs.hpp"

namespace bmf {
namespace {

struct Fnv {
  std::uint64_t digest = 14695981039346656037ull;
  void mix(std::int32_t value) {
    const auto bits = static_cast<std::uint32_t>(value);
    for (int b = 0; b < 4; ++b) {
      digest ^= (bits >> (8 * b)) & 0xffu;
      digest *= 1099511628211ull;
    }
  }
};

/// Hashes each graph it is handed and forwards the call.
class DigestOracle final : public MatchingOracle {
 public:
  explicit DigestOracle(MatchingOracle& inner) : inner_(inner) {}
  [[nodiscard]] double approx_factor() const override { return inner_.approx_factor(); }
  [[nodiscard]] std::uint64_t digest() const { return fnv_.digest; }

 protected:
  OracleMatching find_impl(const OracleGraph& h) override {
    fnv_.mix(h.n);
    for (const auto& [a, b] : h.edges) {
      fnv_.mix(a);
      fnv_.mix(b);
    }
    return inner_.find_matching(h);
  }

 private:
  MatchingOracle& inner_;
  Fnv fnv_;
};

/// Forwards to a driver and, after each Extend-Active-Path, hashes every
/// live structure's inner members, each with the tail of its parent arc:
/// the witness of the overtake that last attached it.
class ArcDigestDriver final : public PassBundleDriver {
 public:
  explicit ArcDigestDriver(PassBundleDriver& inner) : inner_(inner) {}
  [[nodiscard]] std::uint64_t digest() const { return fnv_.digest; }

  void begin_phase(StructureForest& forest) override { inner_.begin_phase(forest); }
  void extend_active_path(StructureForest& forest) override {
    inner_.extend_active_path(forest);
    for (StructureId s = 0; s < forest.num_structures(); ++s) {
      const StructureInfo& si = forest.structure(s);
      if (si.removed) continue;
      for (const Vertex v : si.members) {
        if (!forest.is_inner(v)) continue;
        fnv_.mix(v);
        fnv_.mix(forest.arena().node(forest.omega(v)).pe_u);
      }
    }
  }
  void contract_and_augment(StructureForest& forest) override {
    inner_.contract_and_augment(forest);
  }
  [[nodiscard]] bool exhaustive() const override { return inner_.exhaustive(); }

 private:
  PassBundleDriver& inner_;
  Fnv fnv_;
};

struct Pin {
  const char* run;
  std::int64_t calls;
  std::uint64_t digest;  ///< the graphs handed to the oracle
  std::uint64_t arcs;    ///< the parent arcs of the inner vertices
};

struct Actual {
  std::string run;
  std::int64_t calls;
  std::uint64_t digest;
  std::uint64_t arcs;
};

std::unique_ptr<MatchingOracle> make_oracle(bool random_greedy) {
  if (random_greedy) return std::make_unique<RandomGreedyMatchingOracle>(7);
  return std::make_unique<GreedyMatchingOracle>();
}

Actual pinned_run(const std::string& name, const Graph& g, const CoreConfig& cfg,
                  bool random_greedy) {
  const std::unique_ptr<MatchingOracle> inner = make_oracle(random_greedy);
  DigestOracle oracle(*inner);
  const BoostResult r = boost_matching(g, oracle, cfg);
  EXPECT_TRUE(r.matching.is_valid_in(g)) << name;
  EXPECT_EQ(oracle.calls(), r.total_oracle_calls) << name;

  // The same run, recomposed from boost_matching's parts with the driver
  // decorated, must hand the oracle the same graphs and end the same way.
  const std::unique_ptr<MatchingOracle> replay_inner = make_oracle(random_greedy);
  DigestOracle replay_oracle(*replay_inner);
  Matching m = framework_initial_matching(g, replay_oracle, cfg);
  FrameworkDriver driver(g, replay_oracle, cfg);
  ArcDigestDriver arcs(driver);
  (void)PhaseEngine(g, cfg).run(m, arcs);
  EXPECT_EQ(replay_oracle.digest(), oracle.digest()) << name;
  EXPECT_TRUE(std::ranges::equal(m.mates(), r.matching.mates())) << name;
  return {(random_greedy ? "random_greedy " : "greedy ") + name, oracle.calls(),
          oracle.digest(), arcs.digest()};
}

/// Every run: the static golden record's boost lines (six graphs; eps 1, 0.5
/// and 0.25; kUntilEmpty, kPaperBound and the unsplit ablation), then two
/// G(601, 2404) graphs at the static benchmark's eps 0.5.
std::vector<Actual> actual_runs() {
  std::vector<Actual> out;
  for (const testinputs::NamedGraph& ng : testinputs::golden_graphs()) {
    for (const double eps : {1.0, 0.5, 0.25}) {
      char eps_text[32];
      std::snprintf(eps_text, sizeof eps_text, "%g", eps);
      struct Mode {
        const char* name;
        IterationMode mode;
        bool stage_split;
      };
      for (const Mode mode : {Mode{"until_empty", IterationMode::kUntilEmpty, true},
                              Mode{"paper_bound", IterationMode::kPaperBound, true},
                              Mode{"unsplit", IterationMode::kUntilEmpty, false}}) {
        CoreConfig cfg;
        cfg.eps = eps;
        cfg.iteration_mode = mode.mode;
        cfg.stage_split = mode.stage_split;
        const std::string name = ng.name + " eps=" + eps_text + " " + mode.name;
        for (const bool random_greedy : {false, true})
          out.push_back(pinned_run(name, ng.g, cfg, random_greedy));
      }
    }
  }
  for (const std::uint64_t seed : {1, 2}) {
    const Graph g = testinputs::sparse_odd_random_graph(seed);
    CoreConfig cfg;
    cfg.eps = 0.5;
    const std::string name = "gnm_601x2404_seed" + std::to_string(seed) + " eps=0.5";
    for (const bool random_greedy : {false, true})
      out.push_back(pinned_run(name, g, cfg, random_greedy));
  }
  return out;
}

// clang-format off
constexpr Pin kPins[] = {
    {"greedy odd_cycles_9x7 eps=1 until_empty", 4, 0x965d8b08c3b98df2ull, 0xf00a1620e6c8e71cull},
    {"random_greedy odd_cycles_9x7 eps=1 until_empty", 4, 0x965d8b08c3b98df2ull, 0x0750e324e5d6d715ull},
    {"greedy odd_cycles_9x7 eps=1 paper_bound", 37, 0xefbc7967af30610aull, 0x910039b101bceb25ull},
    {"random_greedy odd_cycles_9x7 eps=1 paper_bound", 37, 0xefbc7967af30610aull, 0x5f4c1c60ef59b976ull},
    {"greedy odd_cycles_9x7 eps=1 unsplit", 4, 0x965d8b08c3b98df2ull, 0xf00a1620e6c8e71cull},
    {"random_greedy odd_cycles_9x7 eps=1 unsplit", 4, 0x965d8b08c3b98df2ull, 0x0750e324e5d6d715ull},
    {"greedy odd_cycles_9x7 eps=0.5 until_empty", 4, 0x965d8b08c3b98df2ull, 0xf00a1620e6c8e71cull},
    {"random_greedy odd_cycles_9x7 eps=0.5 until_empty", 4, 0x965d8b08c3b98df2ull, 0x0750e324e5d6d715ull},
    {"greedy odd_cycles_9x7 eps=0.5 paper_bound", 49, 0xf0a3124fb347954aull, 0x7a03fb590f008325ull},
    {"random_greedy odd_cycles_9x7 eps=0.5 paper_bound", 49, 0xf0a3124fb347954aull, 0x9ef2cd60a4ec0181ull},
    {"greedy odd_cycles_9x7 eps=0.5 unsplit", 4, 0x965d8b08c3b98df2ull, 0xf00a1620e6c8e71cull},
    {"random_greedy odd_cycles_9x7 eps=0.5 unsplit", 4, 0x965d8b08c3b98df2ull, 0x0750e324e5d6d715ull},
    {"greedy odd_cycles_9x7 eps=0.25 until_empty", 4, 0x965d8b08c3b98df2ull, 0xf00a1620e6c8e71cull},
    {"random_greedy odd_cycles_9x7 eps=0.25 until_empty", 4, 0x965d8b08c3b98df2ull, 0x0750e324e5d6d715ull},
    {"greedy odd_cycles_9x7 eps=0.25 paper_bound", 61, 0x83ef3b6f97b0798aull, 0xd0949ececb4c1b25ull},
    {"random_greedy odd_cycles_9x7 eps=0.25 paper_bound", 61, 0x83ef3b6f97b0798aull, 0xacabb980374dc5b4ull},
    {"greedy odd_cycles_9x7 eps=0.25 unsplit", 4, 0x965d8b08c3b98df2ull, 0xf00a1620e6c8e71cull},
    {"random_greedy odd_cycles_9x7 eps=0.25 unsplit", 4, 0x965d8b08c3b98df2ull, 0x0750e324e5d6d715ull},
    {"greedy chains_7x6 eps=1 until_empty", 5, 0x4498cc0f22aa13d5ull, 0xf66626520296d3bbull},
    {"random_greedy chains_7x6 eps=1 until_empty", 10, 0xc0376ce476920796ull, 0x79895257efc1c6a3ull},
    {"greedy chains_7x6 eps=1 paper_bound", 5, 0x4498cc0f22aa13d5ull, 0xf66626520296d3bbull},
    {"random_greedy chains_7x6 eps=1 paper_bound", 9, 0xe18f7bfa240b7215ull, 0xa7a4f44974cab772ull},
    {"greedy chains_7x6 eps=1 unsplit", 5, 0x4498cc0f22aa13d5ull, 0xf66626520296d3bbull},
    {"random_greedy chains_7x6 eps=1 unsplit", 9, 0x38399cc4894c914aull, 0x79895257efc1c6a3ull},
    {"greedy chains_7x6 eps=0.5 until_empty", 5, 0x4498cc0f22aa13d5ull, 0xf66626520296d3bbull},
    {"random_greedy chains_7x6 eps=0.5 until_empty", 10, 0xc0376ce476920796ull, 0x79895257efc1c6a3ull},
    {"greedy chains_7x6 eps=0.5 paper_bound", 5, 0x4498cc0f22aa13d5ull, 0xf66626520296d3bbull},
    {"random_greedy chains_7x6 eps=0.5 paper_bound", 10, 0xc0376ce476920796ull, 0x79895257efc1c6a3ull},
    {"greedy chains_7x6 eps=0.5 unsplit", 5, 0x4498cc0f22aa13d5ull, 0xf66626520296d3bbull},
    {"random_greedy chains_7x6 eps=0.5 unsplit", 9, 0x9a228acadcc105bdull, 0x24a40a833a92ca37ull},
    {"greedy chains_7x6 eps=0.25 until_empty", 5, 0x4498cc0f22aa13d5ull, 0xf66626520296d3bbull},
    {"random_greedy chains_7x6 eps=0.25 until_empty", 10, 0xc0376ce476920796ull, 0x79895257efc1c6a3ull},
    {"greedy chains_7x6 eps=0.25 paper_bound", 5, 0x4498cc0f22aa13d5ull, 0xf66626520296d3bbull},
    {"random_greedy chains_7x6 eps=0.25 paper_bound", 10, 0xc0376ce476920796ull, 0x79895257efc1c6a3ull},
    {"greedy chains_7x6 eps=0.25 unsplit", 5, 0x4498cc0f22aa13d5ull, 0xf66626520296d3bbull},
    {"random_greedy chains_7x6 eps=0.25 unsplit", 9, 0x9a228acadcc105bdull, 0x24a40a833a92ca37ull},
    {"greedy gnm_121x484 eps=1 until_empty", 257, 0xd094ddc059141b9full, 0xaae61593a98d05bfull},
    {"random_greedy gnm_121x484 eps=1 until_empty", 250, 0xc8610b902f8e6d13ull, 0x29baeaddf549a2f4ull},
    {"greedy gnm_121x484 eps=1 paper_bound", 443, 0xbc48b19f4e9f90c9ull, 0xb27af6c1e869020full},
    {"random_greedy gnm_121x484 eps=1 paper_bound", 430, 0x26affcd14811ebbaull, 0xd50b415da9a24d56ull},
    {"greedy gnm_121x484 eps=1 unsplit", 257, 0xd094ddc059141b9full, 0xaae61593a98d05bfull},
    {"random_greedy gnm_121x484 eps=1 unsplit", 250, 0xc8610b902f8e6d13ull, 0x29baeaddf549a2f4ull},
    {"greedy gnm_121x484 eps=0.5 until_empty", 249, 0x79b2a9cf1a044a16ull, 0x4e7f328b598f0b5cull},
    {"random_greedy gnm_121x484 eps=0.5 until_empty", 250, 0xbc45033ba4219580ull, 0x0360b77ff63fa1ddull},
    {"greedy gnm_121x484 eps=0.5 paper_bound", 669, 0x60171ef6f1246300ull, 0xe71c1125a52bc95aull},
    {"random_greedy gnm_121x484 eps=0.5 paper_bound", 671, 0xf1b27ca93683a186ull, 0xf7f47444046448dfull},
    {"greedy gnm_121x484 eps=0.5 unsplit", 249, 0x79b2a9cf1a044a16ull, 0x4e7f328b598f0b5cull},
    {"random_greedy gnm_121x484 eps=0.5 unsplit", 250, 0xbc45033ba4219580ull, 0x0360b77ff63fa1ddull},
    {"greedy gnm_121x484 eps=0.25 until_empty", 249, 0x79b2a9cf1a044a16ull, 0x4e7f328b598f0b5cull},
    {"random_greedy gnm_121x484 eps=0.25 until_empty", 249, 0x54c60e567106a683ull, 0x650ab82803d91be6ull},
    {"greedy gnm_121x484 eps=0.25 paper_bound", 909, 0xa28ee851e3cd9e40ull, 0xe506346bc1e273daull},
    {"random_greedy gnm_121x484 eps=0.25 paper_bound", 909, 0x0301c1d985a3425cull, 0x5d18356c1e18e737ull},
    {"greedy gnm_121x484 eps=0.25 unsplit", 249, 0x79b2a9cf1a044a16ull, 0x4e7f328b598f0b5cull},
    {"random_greedy gnm_121x484 eps=0.25 unsplit", 249, 0x54c60e567106a683ull, 0x650ab82803d91be6ull},
    {"greedy gnm_121x242 eps=1 until_empty", 284, 0x2fd78a560e93215dull, 0xed91fafb5465344aull},
    {"random_greedy gnm_121x242 eps=1 until_empty", 70, 0x52ccb4c587db0699ull, 0x79aaf7c208ae984aull},
    {"greedy gnm_121x242 eps=1 paper_bound", 497, 0x7dcbeb05699f0f9bull, 0xbb3f9c8038c570dbull},
    {"random_greedy gnm_121x242 eps=1 paper_bound", 153, 0xf091f31f782dcaa7ull, 0x972da1365d62b958ull},
    {"greedy gnm_121x242 eps=1 unsplit", 281, 0xa6b67f0878534c28ull, 0xed91fafb5465344aull},
    {"random_greedy gnm_121x242 eps=1 unsplit", 128, 0x640fef5f1954aff6ull, 0x4bb6529e09f70419ull},
    {"greedy gnm_121x242 eps=0.5 until_empty", 277, 0x8fe49d5444d66669ull, 0x81659aaf2a4f117bull},
    {"random_greedy gnm_121x242 eps=0.5 until_empty", 288, 0x0bd0bc33cdc43c0dull, 0x0372d83cbbf26e24ull},
    {"greedy gnm_121x242 eps=0.5 paper_bound", 711, 0x21fa005b47dd8253ull, 0xda50138b94f5be1full},
    {"random_greedy gnm_121x242 eps=0.5 paper_bound", 759, 0x15fa79c49ba4ecbcull, 0x6d216afc5b171d70ull},
    {"greedy gnm_121x242 eps=0.5 unsplit", 268, 0xbf1972caeeb08fadull, 0x85a535b144502fa9ull},
    {"random_greedy gnm_121x242 eps=0.5 unsplit", 288, 0x9d4676660605f24dull, 0xaab357ecc8e28149ull},
    {"greedy gnm_121x242 eps=0.25 until_empty", 280, 0xc1b50140046ae4f6ull, 0x2becc141a64ff78bull},
    {"random_greedy gnm_121x242 eps=0.25 until_empty", 285, 0x6c37d27a38b5cc6aull, 0x95dbf442a74943afull},
    {"greedy gnm_121x242 eps=0.25 paper_bound", 973, 0xbc7cf99781a86fe3ull, 0xc0318db4ce60f53full},
    {"random_greedy gnm_121x242 eps=0.25 paper_bound", 1039, 0x5af3f7a96af1a072ull, 0xa497f65731b77d96ull},
    {"greedy gnm_121x242 eps=0.25 unsplit", 271, 0xc284e4aa93d751f2ull, 0xdb77904f69597ad9ull},
    {"random_greedy gnm_121x242 eps=0.25 unsplit", 283, 0x0630dbf1db1a0dc1ull, 0xd4e5ed5991496351ull},
    {"greedy gnm_61x90 eps=1 until_empty", 15, 0xd60d524790d2ee31ull, 0x5f961953a3fd7e78ull},
    {"random_greedy gnm_61x90 eps=1 until_empty", 93, 0xe8ca7a0eea67357full, 0x93be4a88769f1086ull},
    {"greedy gnm_61x90 eps=1 paper_bound", 41, 0x711f66988cf7e442ull, 0x7a37a7cb2f37b411ull},
    {"random_greedy gnm_61x90 eps=1 paper_bound", 81, 0x1fe7e541d28db2f5ull, 0x1f2ec0d62b254cb4ull},
    {"greedy gnm_61x90 eps=1 unsplit", 15, 0xd60d524790d2ee31ull, 0x5f961953a3fd7e78ull},
    {"random_greedy gnm_61x90 eps=1 unsplit", 82, 0xe5fa7fb78d8bcfc3ull, 0x09684250f3cde3dbull},
    {"greedy gnm_61x90 eps=0.5 until_empty", 15, 0x88d76dc9568830c1ull, 0xe72eb465778e7011ull},
    {"random_greedy gnm_61x90 eps=0.5 until_empty", 56, 0x99d020d1350c278eull, 0xb9578655a2672312ull},
    {"greedy gnm_61x90 eps=0.5 paper_bound", 60, 0x0614c4a426b30492ull, 0x108dc8866e776fb3ull},
    {"random_greedy gnm_61x90 eps=0.5 paper_bound", 100, 0x667094a2c4bfc39cull, 0x132133cb9b5b4ce0ull},
    {"greedy gnm_61x90 eps=0.5 unsplit", 15, 0x88d76dc9568830c1ull, 0xe72eb465778e7011ull},
    {"random_greedy gnm_61x90 eps=0.5 unsplit", 35, 0x02ad112c719d63d3ull, 0x5c540b68da09e8a0ull},
    {"greedy gnm_61x90 eps=0.25 until_empty", 15, 0x88d76dc9568830c1ull, 0xe72eb465778e7011ull},
    {"random_greedy gnm_61x90 eps=0.25 until_empty", 55, 0x176a5a82ecc600ceull, 0x1ca7541adbe690d4ull},
    {"greedy gnm_61x90 eps=0.25 paper_bound", 72, 0x6f7e114f9089f172ull, 0xf4b32a3ab1a64433ull},
    {"random_greedy gnm_61x90 eps=0.25 paper_bound", 114, 0x7daee70f96c5a348ull, 0xb22f4b7283917786ull},
    {"greedy gnm_61x90 eps=0.25 unsplit", 15, 0x88d76dc9568830c1ull, 0xe72eb465778e7011ull},
    {"random_greedy gnm_61x90 eps=0.25 unsplit", 35, 0x02ad112c719d63d3ull, 0x5c540b68da09e8a0ull},
    {"greedy cycles_chords_99 eps=1 until_empty", 241, 0x29b51aa27e82c2c7ull, 0x553067563dc80058ull},
    {"random_greedy cycles_chords_99 eps=1 until_empty", 246, 0x9e2a1c132967b5deull, 0xa8ee76fc5b8ed29eull},
    {"greedy cycles_chords_99 eps=1 paper_bound", 388, 0x4a6c58e741d8a382ull, 0xa883091bf457ad71ull},
    {"random_greedy cycles_chords_99 eps=1 paper_bound", 408, 0x4794e1d9f8855f59ull, 0x653d5f6eaa828742ull},
    {"greedy cycles_chords_99 eps=1 unsplit", 240, 0xef5ac3f16d696a52ull, 0x553067563dc80058ull},
    {"random_greedy cycles_chords_99 eps=1 unsplit", 246, 0x9e2a1c132967b5deull, 0xa8ee76fc5b8ed29eull},
    {"greedy cycles_chords_99 eps=0.5 until_empty", 243, 0xcb21c4e131f80fccull, 0x051751d4206b8226ull},
    {"random_greedy cycles_chords_99 eps=0.5 until_empty", 248, 0xf8bc5d71ff836803ull, 0x7955bc54af911144ull},
    {"greedy cycles_chords_99 eps=0.5 paper_bound", 593, 0x03e396e5188c80a1ull, 0x2a96808bb055a4afull},
    {"random_greedy cycles_chords_99 eps=0.5 paper_bound", 596, 0x0b45510b3140dba4ull, 0x7f2e2ec7a228f3abull},
    {"greedy cycles_chords_99 eps=0.5 unsplit", 243, 0xcb21c4e131f80fccull, 0x051751d4206b8226ull},
    {"random_greedy cycles_chords_99 eps=0.5 unsplit", 248, 0xf8bc5d71ff836803ull, 0x7955bc54af911144ull},
    {"greedy cycles_chords_99 eps=0.25 until_empty", 240, 0x90c773c2b44a9dfbull, 0x183fe080792e01e1ull},
    {"random_greedy cycles_chords_99 eps=0.25 until_empty", 242, 0xe11340af5f71f356ull, 0x8c84a2eed76e3cf8ull},
    {"greedy cycles_chords_99 eps=0.25 paper_bound", 779, 0x7e70582519570b51ull, 0x19c17ed903509dcfull},
    {"random_greedy cycles_chords_99 eps=0.25 paper_bound", 784, 0xfd6420e80458872bull, 0xcd861b21312d8772ull},
    {"greedy cycles_chords_99 eps=0.25 unsplit", 240, 0x90c773c2b44a9dfbull, 0x183fe080792e01e1ull},
    {"random_greedy cycles_chords_99 eps=0.25 unsplit", 242, 0xe11340af5f71f356ull, 0x8c84a2eed76e3cf8ull},
    {"greedy gnm_601x2404_seed1 eps=0.5", 1070, 0x78cadebb1b0a3063ull, 0xd912d8a57a4be9baull},
    {"random_greedy gnm_601x2404_seed1 eps=0.5", 1082, 0xf2b9541d144c0c85ull, 0x30b329182693af0full},
    {"greedy gnm_601x2404_seed2 eps=0.5", 1122, 0xa11bde6f1700b1dbull, 0xa3c13ae013929d09ull},
    {"random_greedy gnm_601x2404_seed2 eps=0.5", 1097, 0xb4f69da6ae8cae74ull, 0x97a02bc0c914c834ull},
};
// clang-format on

TEST(OracleInputPin, BoostHandsTheOracleThePinnedGraphs) {
  const std::vector<Actual> actual = actual_runs();
  std::string table;
  for (const Actual& a : actual) {
    char line[200];
    std::snprintf(line, sizeof line,
                  "    {\"%s\", %lld, 0x%016llxull, 0x%016llxull},\n", a.run.c_str(),
                  static_cast<long long>(a.calls),
                  static_cast<unsigned long long>(a.digest),
                  static_cast<unsigned long long>(a.arcs));
    table += line;
  }
  ASSERT_EQ(actual.size(), std::size(kPins)) << "the runs now read:\n" << table;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].run, kPins[i].run);
    EXPECT_EQ(actual[i].calls, kPins[i].calls) << actual[i].run;
    EXPECT_EQ(actual[i].digest, kPins[i].digest)
        << actual[i].run << ": the oracle was handed other graphs";
    EXPECT_EQ(actual[i].arcs, kPins[i].arcs)
        << actual[i].run << ": an answer was mapped back to other witness arcs";
  }
  if (HasFailure()) ADD_FAILURE() << "the runs now read:\n" << table;
}

}  // namespace
}  // namespace bmf
