// Compile-fail harness for the AdjacencyStore policy contract
// (src/dynamic/replay_core.hpp). `MinimalStore` implements exactly the
// contract surface — each member removable via a -DBMF_OMIT_<MEMBER> flag.
// CMake registers one syntax-only compile per flag and asserts (via
// PASS_REGULAR_EXPRESSION) that the DynamicReplayCore static_assert cascade
// names the missing member; the flagless compile is the positive control
// proving the stub satisfies the whole contract. This file is never linked
// into any target.

#include "dynamic/replay_core.hpp"

namespace {

class MinimalStore {
 public:
  MinimalStore(bmf::Vertex n, bmf::WeakOracle& oracle) : g_(n), oracle_(oracle) {}

#ifndef BMF_OMIT_NUM_VERTICES
  [[nodiscard]] bmf::Vertex num_vertices() const { return g_.num_vertices(); }
#endif
#ifndef BMF_OMIT_HAS_EDGE
  [[nodiscard]] bool has_edge(bmf::Vertex u, bmf::Vertex v) const {
    return g_.has_edge(u, v);
  }
#endif
#ifndef BMF_OMIT_NEIGHBORS
  [[nodiscard]] std::span<const bmf::Vertex> neighbors(bmf::Vertex v) const {
    return g_.neighbors(v);
  }
#endif
#ifndef BMF_OMIT_SNAPSHOT
  [[nodiscard]] bmf::Graph snapshot() const { return g_.snapshot(); }
#endif
#ifndef BMF_OMIT_ORACLE
  [[nodiscard]] bmf::WeakOracle& oracle() { return oracle_; }
#endif
#ifndef BMF_OMIT_TOGGLE
  bool toggle(const bmf::EdgeUpdate& up) {
    const bool changed = up.insert ? g_.insert(up.u, up.v) : g_.erase(up.u, up.v);
    if (changed) {
      if (up.insert)
        oracle_.on_insert(up.u, up.v);
      else
        oracle_.on_erase(up.u, up.v);
    }
    return changed;
  }
#endif
#ifndef BMF_OMIT_COMM_STATS
  [[nodiscard]] bmf::CommStats comm_stats(const bmf::RebuildStats&) const {
    return {};
  }
#endif

 private:
  bmf::DynGraph g_;
  bmf::WeakOracle& oracle_;
};

// Instantiating the core is what arms the static_assert cascade.
void instantiate(MinimalStore& store, const bmf::DynamicCoreConfig& cfg) {
  bmf::DynamicReplayCore<MinimalStore> core(store, cfg);
  core.apply(bmf::EdgeUpdate::ins(0, 1));
}

}  // namespace

// Silence -Wunused-function without running anything: the harness is
// syntax-only.
void* bmf_compile_fail_anchor = reinterpret_cast<void*>(&instantiate);
