#pragma once

/// Laminar blossom family with alternating-tree bookkeeping (Section 3.2).
///
/// A blossom is either trivial (a single vertex; ids [0, n) coincide with
/// vertex ids) or composite: an odd cycle of child blossoms A_0..A_k joined
/// by cycle edges e_0..e_k where e_i connects A_i to A_{i+1 mod k+1} and the
/// odd-indexed edges are matched (Definition 3.4); the base of the composite
/// is the base of A_0.
///
/// Root blossoms additionally carry the alternating-tree fields of the
/// structure they belong to (tree parent/children, the G-edge to the parent,
/// the inner/outer flag and the owning structure id). `even_path` implements
/// Lemma 3.5: the even-length alternating path inside E_B from base(B) to any
/// vertex of B.
///
/// Contracting a cycle costs O(cycle) plus the vertices it relabels, never
/// a walk of the whole new blossom. Two pieces of per-phase state make that
/// so:
///  * vertex runs: a blossom's vertices, in blossom order (cycle children
///    depth-first, A_0 first), form a linked run from its `first` to its
///    `last` vertex through per-vertex next links, and the node stores their
///    count. `make_composite` joins its children's runs end to start: it
///    writes only the link out of each child's last vertex, the final
///    child's excepted. A walk of a blossom stops at its own last vertex
///    without reading that link, so every child's run stays valid inside its
///    parent, down to the trivial blossoms, and runs are never copied;
///  * root groups: the vertices of each root blossom form one group, and
///    Omega(v) is the root of v's group, two loads. `make_composite` hands
///    the largest child's group to the new blossom and relabels only the
///    other children's vertices, so a vertex changes group only when its
///    group at least doubles: O(log n) relabels per vertex per phase.
/// A scan that makes a composite while it walks a blossom stops right after
/// it (`find_vertex`): the walked blossom is no longer a root then.

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "util/assert.hpp"

namespace bmf {

using BlossomId = std::int32_t;
using StructureId = std::int32_t;
inline constexpr BlossomId kNoBlossom = -1;
inline constexpr StructureId kNoStructure = -1;

struct BlossomNode {
  // --- laminar-family fields ---
  Vertex vert = kNoVertex;            ///< the vertex, for trivial blossoms
  BlossomId parent = kNoBlossom;      ///< enclosing blossom
  Vertex base = kNoVertex;            ///< the vertex left unmatched inside E_B
  std::vector<BlossomId> cycle;       ///< composite: odd cycle of children
  /// cycle_edges[j] = {a in cycle[j], b in cycle[j+1 mod]}
  std::vector<Edge> cycle_edges;
  /// The blossom's vertex run (file comment): its first and last vertex in
  /// blossom order, and how many vertices it holds.
  Vertex first = kNoVertex, last = kNoVertex;
  Vertex size = 0;

  // --- alternating-tree fields (meaningful for root blossoms only) ---
  BlossomId tree_parent = kNoBlossom;
  std::vector<BlossomId> tree_children;
  /// G-edge connecting this root blossom to its tree parent:
  /// pe_u lies in the parent blossom, pe_v in this one. For outer blossoms the
  /// edge is matched (pe_v == base); for inner ones it is unmatched.
  Vertex pe_u = kNoVertex, pe_v = kNoVertex;
  StructureId structure = kNoStructure;
  bool outer = false;

  [[nodiscard]] bool is_trivial() const { return vert != kNoVertex; }
};

class BlossomArena {
 public:
  /// Re-initializes to n trivial blossoms (called at the start of each phase).
  void reset(Vertex n);

  [[nodiscard]] Vertex num_vertices() const { return n_; }
  [[nodiscard]] BlossomId num_blossoms() const {
    return static_cast<BlossomId>(nodes_.size());
  }

  [[nodiscard]] const BlossomNode& node(BlossomId b) const {
    return nodes_[static_cast<std::size_t>(b)];
  }
  [[nodiscard]] BlossomNode& node(BlossomId b) {
    return nodes_[static_cast<std::size_t>(b)];
  }

  /// The trivial blossom of vertex v (== v).
  [[nodiscard]] static BlossomId trivial(Vertex v) { return v; }

  /// The root blossom containing v (Omega(v) of the paper): the root of v's
  /// group, an O(1) read of two loads.
  [[nodiscard]] BlossomId omega(Vertex v) const {
    BMF_ASSERT(v >= 0 && v < n_);
    return group_root_[static_cast<std::size_t>(group_[static_cast<std::size_t>(v)])];
  }

  [[nodiscard]] Vertex base(BlossomId b) const { return node(b).base; }

  /// Creates a composite blossom from an odd cycle of current root blossoms.
  /// Sets the children's laminar parent and the new blossom's base, joins
  /// the children's vertex runs and hands it the largest child's group,
  /// relabelling the other children's vertices; tree fields are left for the
  /// caller to wire. May reallocate the node array.
  BlossomId make_composite(std::vector<BlossomId> cycle,
                           std::vector<Edge> cycle_edges);

  /// Walks b's vertex run in blossom order (the cycle children depth-first,
  /// A_0 first) and returns the first vertex w with pred(w) true, or
  /// kNoVertex. Every vertex scan of a blossom (and the pos tags of the
  /// rebuild sweeps) follows this order. The walk stops at that first true,
  /// so a pred that makes a composite (b is then no longer a root) returns
  /// true right after it: no walk outlives a composite it creates. The walk
  /// reads b's run ends before it starts, since `make_composite` can move
  /// the node array.
  template <class Pred>
  Vertex find_vertex(BlossomId b, Pred&& pred) const {
    const Vertex last = node(b).last;
    for (Vertex w = node(b).first;; w = next_[static_cast<std::size_t>(w)]) {
      if (pred(w)) return w;
      if (w == last) return kNoVertex;
    }
  }

  /// Calls f(w) for every G-vertex w contained in b, in blossom order.
  template <class F>
  void for_each_vertex(BlossomId b, F&& f) const {
    find_vertex(b, [&](Vertex w) {
      f(w);
      return false;
    });
  }

  /// Appends all G-vertices contained in b to out, in for_each_vertex order.
  void collect_vertices(BlossomId b, std::vector<Vertex>& out) const;
  [[nodiscard]] std::vector<Vertex> vertices(BlossomId b) const;
  [[nodiscard]] std::int64_t vertex_count(BlossomId b) const { return node(b).size; }

  /// Lemma 3.5: even-length alternating path (inside E_B) from base(b) to
  /// target, returned as the inclusive vertex sequence base .. target.
  [[nodiscard]] std::vector<Vertex> even_path(BlossomId b, Vertex target) const;

  /// Nesting depth of the laminar family above v's trivial blossom.
  [[nodiscard]] int depth(Vertex v) const;

 private:
  /// Index i of the cycle child of b that contains v.
  [[nodiscard]] std::size_t child_index_containing(BlossomId b, Vertex v) const;

  Vertex n_ = 0;
  std::vector<BlossomNode> nodes_;
  /// next_[w]: the vertex after w in the run of every blossom that holds w
  /// and does not end at w. Set by `make_composite`; unset after the last
  /// vertex of a root blossom.
  std::vector<Vertex> next_;
  /// Root groups (file comment): Omega(v) == group_root_[group_[v]]. A group
  /// is named by the vertex whose singleton group it grew from, so both
  /// arrays hold n entries. `make_composite` is the only writer of
  /// `BlossomNode::parent` and of both arrays; blossoms are never expanded
  /// within a phase, and `reset` (one per phase) restores the identity.
  std::vector<Vertex> group_;
  std::vector<BlossomId> group_root_;
};

}  // namespace bmf
