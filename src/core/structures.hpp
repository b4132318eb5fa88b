#pragma once

/// The structure forest of [MMSS25] (Section 4): one structure
/// S_alpha = (G_alpha, Omega_alpha, w'_alpha) per free vertex, with the three
/// basic operations Augment / Contract / Overtake (Section 4.5) and
/// Backtrack-Stuck-Structures (Section 4.8).
///
/// The forest lives for one phase (Alg-Phase): `init_phase` builds a
/// single-vertex structure per free vertex; operations grow, merge and remove
/// structures; recorded augmenting paths are applied to the matching by the
/// phase engine after the phase ends (Algorithm 1 line 6). The matching is
/// read-only during a phase.
///
/// Five pieces of per-phase state let the drivers' sweeps skip what has not
/// changed since they last looked. Three are kept by one private hook,
/// `note_outer(x)`, which runs wherever a vertex becomes outer (a root at
/// `init_phase`, Overtake case 1's new outer vertex, an inner cycle member a
/// contraction absorbs) or moves to another structure while outer (Overtake
/// case 2.2):
///  * the outer log: every such vertex since the log was last cleared. An
///    inter-structure outer/outer arc (an H' arc, Definition 5.4) can only
///    appear at a logged vertex, since removal is permanent, blossoms never
///    split within a phase and the matching is phase-constant; so a sweep that
///    finds no such arc at a logged vertex proves H' empty;
///  * contraction-clean bits: a vertex whose full neighbour scan found no
///    contractible arc keeps its bit until `note_outer` runs on it or on a
///    neighbour, the only events that can give it one;
///  * live adjacency: each vertex's neighbours in g's order, without its mate
///    and, lazily, without every neighbour that is outer or removed.
///    `init_phase` copies g less the mates; `note_outer(x)` marks x's
///    neighbours' lists dirty, and `live_neighbors` compacts a dirty list,
///    stably, before returning it. Within a phase an outer vertex stays outer
///    until it is removed, removal is permanent and the matching is fixed, so
///    a dropped neighbour can never again be the unvisited or inner end of an
///    overtake arc (H'_s, Definition 5.8). The scans that look only for those
///    ends read these lists and see the same arcs, in the same order, as a
///    scan of g.
/// The fourth is kept wherever an inner member joins, is relabelled, moves or
/// is absorbed (Overtake cases 1, 2.1 and 2.2, `move_subtree`, Contract):
///  * inner-label counts: for each structure, how many of its inner members
///    carry each label. An in-structure overtake at stage s needs an inner
///    member with label > s + 1 (P3), so a structure whose counts show none
///    has no such arc and its sweep can be skipped.
/// The fifth is made by the H'_s sweeps that read it (`read_right_nodes`):
///  * right-node lists: for a root blossom B that a sweep has read, one entry
///    per neighbour x of B that was unvisited or inner when it was added,
///    holding x, the first vertex w of B's run whose live list holds x, and
///    how many of B's vertices hold x in their live lists, in the order a
///    walk of B's run over the live lists first meets x. A list stays exact
///    less the entries whose x has since become outer or removed, which each
///    read drops for good: live lists hold no mate, so whether w's live list
///    holds x depends, within a phase, only on whether x is outer or removed,
///    and those two states are never left; and a root blossom's run never
///    changes. A composite's run is its cycle children's runs in cycle
///    order, so its first read takes over the list of its first part in that
///    order (A_0, or A_0's own first part) if that part holds one, and
///    appends the entries of the rest of its run, adding the count of an x
///    it already holds and keeping its first witness; a part with no list
///    inside it is walked instead. Each merged
///    child's list is recycled, so the blossoms holding lists are disjoint
///    and at most 2m entries are live in a phase. The entries keep no label
///    test: labels fall, and a blossom's level can fall too (Overtake case
///    2.1 relabels its inner parent), so readers test label(x) against the
///    level at read time, and an entry hidden at one read can show at the
///    next.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/blossoms.hpp"
#include "core/config.hpp"
#include "graph/graph.hpp"
#include "matching/matching.hpp"

namespace bmf {

struct StructureInfo {
  Vertex alpha = kNoVertex;       ///< the free root vertex
  BlossomId root = kNoBlossom;    ///< Omega(alpha)
  BlossomId working = kNoBlossom; ///< w'_alpha; kNoBlossom means inactive
  bool on_hold = false;
  bool modified = false;
  bool extended = false;
  bool removed = false;
  std::int64_t size = 0;          ///< number of G-vertices
  std::vector<Vertex> members;
};

/// An entry of a root blossom's right-node list (see the file comment).
struct RightNode {
  Vertex x = kNoVertex;    ///< a neighbour of the blossom
  Vertex w = kNoVertex;    ///< the first vertex of its run whose live list holds x
  std::int32_t count = 0;  ///< the vertices of the blossom whose live lists hold x
};

/// Operation counters, used both for instrumentation and for pass-bundle
/// quiescence detection (a bundle that performs zero operations proves all
/// remaining bundles of the phase are no-ops).
struct OpCounts {
  std::int64_t overtake_unvisited = 0;  ///< Overtake case 1
  std::int64_t overtake_same = 0;       ///< Overtake case 2.1
  std::int64_t overtake_steal = 0;      ///< Overtake case 2.2 (subtree theft)
  std::int64_t contracts = 0;
  std::int64_t augments = 0;
  std::int64_t backtracks = 0;

  [[nodiscard]] std::int64_t total() const {
    return overtake_unvisited + overtake_same + overtake_steal + contracts +
           augments + backtracks;
  }
};

class StructureForest {
 public:
  /// Binds to a graph and the phase-constant matching. Neither is owned; both
  /// must outlive the forest.
  StructureForest(const Graph& g, const Matching& m, const CoreConfig& cfg);

  /// Starts a phase: one structure per free vertex, all labels l_max + 1,
  /// nothing removed (Algorithm 2 lines 1-3).
  void init_phase();

  /// Pass-bundle prologue (Algorithm 2 lines 6-9): recompute on-hold from the
  /// hold limit, clear modified/extended, reset the per-bundle op counter.
  void begin_pass_bundle(std::int64_t hold_limit);

  // ---- basic operations -------------------------------------------------

  /// Structural preconditions of Overtake(g=(u,v), a=(v,mate v), k)
  /// (Section 4.5.3 (P1)-(P3)). Context gating (on-hold / extended) is also
  /// enforced here since Overtake only ever runs inside Extend-Active-Path.
  [[nodiscard]] bool can_overtake(Vertex u, Vertex v, int k) const;
  void overtake(Vertex u, Vertex v, int k);

  /// Structural preconditions of Contract(g=(u,v)) (Section 4.5.2): Omega(u)
  /// is the working vertex of a structure that also contains the outer vertex
  /// Omega(v) != Omega(u). Callers add context gating where required.
  [[nodiscard]] bool can_contract(Vertex u, Vertex v) const;
  void contract(Vertex u, Vertex v);

  /// Structural preconditions of Augment(g=(u,v)) (Section 4.5.1): Omega(u)
  /// and Omega(v) are outer vertices of two different live structures.
  [[nodiscard]] bool can_augment(Vertex u, Vertex v) const;
  void augment(Vertex u, Vertex v);

  /// Backtrack-Stuck-Structures (Section 4.8).
  void backtrack_stuck();

  // ---- vertex/blossom classification ------------------------------------

  [[nodiscard]] BlossomId omega(Vertex v) const { return arena_.omega(v); }
  [[nodiscard]] bool is_removed(Vertex v) const {
    return removed_[static_cast<std::size_t>(v)] != 0;
  }
  [[nodiscard]] StructureId structure_of(Vertex v) const {
    return is_removed(v) ? kNoStructure : vert_struct_[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] bool is_unvisited(Vertex v) const {
    return !is_removed(v) && vert_struct_[static_cast<std::size_t>(v)] == kNoStructure;
  }
  /// v lies in a live structure and its root blossom is outer.
  [[nodiscard]] bool is_outer(Vertex v) const;
  /// v lies in a live structure and its root blossom is inner (hence trivial).
  [[nodiscard]] bool is_inner(Vertex v) const;

  /// Label of the matched arc (v, mate(v)); 0 for free vertices.
  [[nodiscard]] int label(Vertex v) const {
    return lab_[static_cast<std::size_t>(v)];
  }

  /// ell(u') of an outer root blossom: 0 at the structure root, otherwise the
  /// label of the matched arc entering it from its tree parent. This is
  /// distance(u) of Algorithm 3 and the stage index s of Definition 5.8.
  [[nodiscard]] int outer_level(BlossomId b) const;

  /// The lowest level >= s at which a structure can still extend in this
  /// pass-bundle (live, not on hold, not extended, with a working vertex at
  /// that outer_level), or l_max + 1 if there is none. Stages below it have
  /// no left node, so the drivers skip them. One scan over the structures.
  [[nodiscard]] int next_eligible_level(int s) const;

  // ---- change tracking (see the file comment) ------------------------------

  /// Vertices that became outer, or moved while outer, since the last
  /// `clear_outer_log`, each once, in the order they did.
  [[nodiscard]] const std::vector<Vertex>& outer_log() const { return outer_log_; }
  /// Only a sweep that has just found H' empty may call this.
  void clear_outer_log();

  /// v's last full neighbour scan found no contractible arc, and no vertex in
  /// N[v] has become outer or moved since.
  [[nodiscard]] bool is_contraction_clean(Vertex v) const {
    return clean_[static_cast<std::size_t>(v)] != 0;
  }
  /// Records such a scan of a working-blossom vertex.
  void mark_contraction_clean(Vertex v) { clean_[static_cast<std::size_t>(v)] = 1; }

  /// w's live adjacency: its neighbours in g's order, without its mate and
  /// without every neighbour that was outer or removed when this call
  /// compacted the list. The span stays valid until the next call for w or
  /// `init_phase`; an operation run in between may make one of its vertices
  /// outer or removed, which the caller's own tests still see.
  [[nodiscard]] std::span<const Vertex> live_neighbors(Vertex w) {
    const auto wi = static_cast<std::size_t>(w);
    if (live_dirty_[wi] != 0) compact_live(w);
    return {live_.data() + live_begin_[wi], static_cast<std::size_t>(live_len_[wi])};
  }

  /// Reads root blossom b's right-node list: drops for good the entries whose
  /// x is now outer or removed and returns the rest, in order; builds the
  /// list on b's first read. The span stays valid until the next call or
  /// `init_phase`.
  [[nodiscard]] std::span<const RightNode> read_right_nodes(BlossomId b);
  /// b holds a right-node list: a read made one and no read of a composite
  /// containing b has merged it since.
  [[nodiscard]] bool holds_right_nodes(BlossomId b) const {
    return list_of_[static_cast<std::size_t>(b)] >= 0;
  }

  /// Inner members of live structure s with label l. Labels of
  /// kLabelBuckets - 1 and above share the last count, so that an l_max of
  /// up to 2^31 costs at most kLabelBuckets counts per structure.
  [[nodiscard]] std::int32_t inner_count(StructureId s, int l) const {
    return inner_count_[count_index(s, l)];
  }
  /// True if some inner member of live structure s may have a label above l:
  /// exact for l < kLabelBuckets - 1 (so for every label when
  /// l_max + 2 <= kLabelBuckets), and true for larger l whenever the shared
  /// last count is non-zero.
  [[nodiscard]] bool has_inner_above(StructureId s, int l) const;
  /// Outer members of live structure s: its size less its inner members.
  [[nodiscard]] std::int64_t outer_count(StructureId s) const;
  static constexpr int kLabelBuckets = 64;

  // ---- structures --------------------------------------------------------

  [[nodiscard]] StructureId num_structures() const {
    return static_cast<StructureId>(structures_.size());
  }
  [[nodiscard]] const StructureInfo& structure(StructureId s) const {
    return structures_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] const BlossomArena& arena() const { return arena_; }
  [[nodiscard]] const Matching& matching() const { return m_; }
  [[nodiscard]] const Graph& graph() const { return g_; }

  /// The root-to-working path of root blossoms (the active path, Def 4.2),
  /// or empty if the structure is inactive.
  [[nodiscard]] std::vector<BlossomId> active_path(StructureId s) const;

  /// True if anc is an ancestor of b in its structure's alternating tree.
  [[nodiscard]] bool is_tree_ancestor(BlossomId anc, BlossomId b) const;

  // ---- phase results and accounting --------------------------------------

  [[nodiscard]] const std::vector<std::vector<Vertex>>& recorded_paths() const {
    return paths_;
  }
  [[nodiscard]] const OpCounts& totals() const { return totals_; }
  [[nodiscard]] std::int64_t ops_this_bundle() const { return bundle_ops_; }
  [[nodiscard]] bool hold_seen() const { return hold_seen_; }

  /// Heavyweight structural invariant checks (gated by cfg.check_invariants
  /// at call sites; safe to call any time between operations).
  void check_invariants() const;

 private:
  void mark_extended(StructureId s);
  void mark_modified(StructureId s);
  /// x became outer or moved while outer: log it, clear the clean bits of x
  /// and its neighbours, and mark its neighbours' live lists dirty.
  void note_outer(Vertex x);
  /// Drops the outer and removed vertices from w's live list, keeping the
  /// order of the rest, and clears w's dirty byte.
  void compact_live(Vertex w);
  /// Gives root blossom b, which holds no right-node list, the list of its
  /// first part in blossom order if that part holds one, or else a new empty
  /// one, and leaves the entries of the rest of its run in `merge_` for the
  /// read to fold in. A later part that holds a list gives its entries and is
  /// recycled; a part with no list inside it is walked over its vertices'
  /// live lists. Returns the list's slot.
  std::int32_t build_right_nodes(BlossomId b);
  /// Adds (x, w, count) to `merge_`, folding it into an x met before.
  void add_right_node(Vertex x, Vertex w, std::int32_t count);
  [[nodiscard]] std::size_t count_index(StructureId s, int l) const {
    return static_cast<std::size_t>(s) * static_cast<std::size_t>(buckets_) +
           static_cast<std::size_t>(std::min(l, buckets_ - 1));
  }
  /// Adds delta to the count of inner member v's current label in s.
  void count_inner(StructureId s, Vertex v, int delta) {
    inner_count_[count_index(s, lab_[static_cast<std::size_t>(v)])] += delta;
  }
  /// Sets inner member v of s to label k (Overtake cases 2.1 and 2.2).
  void relabel_inner(StructureId s, Vertex v, int k);
  void detach_from_parent(BlossomId b);
  void move_subtree(BlossomId sub_root, StructureId from, StructureId to);
  /// G-vertex path from u back to the structure's free root (u first).
  [[nodiscard]] std::vector<Vertex> path_to_root(Vertex u) const;

  const Graph& g_;
  const Matching& m_;
  const CoreConfig& cfg_;
  int lmax_;
  int buckets_;  ///< min(l_max + 2, kLabelBuckets) counts per structure

  BlossomArena arena_;
  std::vector<StructureInfo> structures_;
  std::vector<StructureId> vert_struct_;
  std::vector<int> lab_;
  std::vector<std::uint8_t> removed_;
  std::vector<std::vector<Vertex>> paths_;
  std::vector<Vertex> outer_log_;
  std::vector<std::uint8_t> logged_;  ///< v is in outer_log_
  std::vector<std::uint8_t> clean_;   ///< contraction-clean bits
  /// Live adjacency: w's list is live_[live_begin_[w] .. + live_len_[w]),
  /// carved out of one array of g's 2m adjacency entries; live_dirty_[w] is
  /// set when a neighbour of w becomes outer or moves while outer.
  std::vector<Vertex> live_;
  std::vector<std::size_t> live_begin_;
  std::vector<std::int32_t> live_len_;
  std::vector<std::uint8_t> live_dirty_;
  /// Inner-label counts, buckets_ per structure in structure-id order.
  std::vector<std::int32_t> inner_count_;
  /// gone_[x]: x is outer or removed, the two states it never leaves in a
  /// phase. Set by `note_outer` and `augment`.
  std::vector<std::uint8_t> gone_;
  /// Right-node lists: list_of_[b] is the slot in lists_ of blossom b's list,
  /// kNoList if neither b nor a blossom inside it holds one, or kListInside
  /// if one inside it does. Slots of merged lists wait in free_lists_.
  static constexpr std::int32_t kNoList = -1;
  static constexpr std::int32_t kListInside = -2;
  std::vector<std::int32_t> list_of_;
  std::vector<std::vector<RightNode>> lists_;
  std::vector<std::int32_t> free_lists_;
  /// A build's later entries, and their index: merge_[slot_[x]] holds x while
  /// stamp_[x] == build_stamp_.
  std::vector<RightNode> merge_;
  std::vector<std::uint32_t> stamp_;
  std::vector<std::int32_t> slot_;
  std::uint32_t build_stamp_ = 0;
  std::vector<BlossomId> build_stack_;

  OpCounts totals_;
  std::int64_t bundle_ops_ = 0;
  bool hold_seen_ = false;
};

}  // namespace bmf
