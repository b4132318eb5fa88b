#include "io/graph_io.hpp"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <unordered_set>

#include "util/assert.hpp"

namespace bmf {
namespace {

// Ids and counts are range-checked in 64 bits before any cast to Vertex: a
// count must fit in a Vertex, and an id must stay below that so that
// `max id + 1` fits too.
constexpr long long kMaxVertexCount = std::numeric_limits<Vertex>::max();

struct ParsedEdges {
  Vertex max_id = -1;
  Vertex declared = -1;
  std::vector<WeightedEdge> edges;
};

ParsedEdges parse_lines(std::istream& in, bool weighted) {
  ParsedEdges out;
  std::string line;
  std::int64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream hs(line.substr(1));
      std::string word;
      if (hs >> word && word == "vertices") {
        long long n = -1;
        BMF_REQUIRE(static_cast<bool>(hs >> n) && n >= 0,
                    "edge list: malformed '# vertices' header");
        BMF_REQUIRE(n <= kMaxVertexCount,
                    "edge list: '# vertices' count out of range at line " +
                        std::to_string(line_no));
        out.declared = static_cast<Vertex>(n);
      }
      continue;
    }
    std::istringstream ls(line);
    long long u = -1, v = -1;
    double w = 1.0;
    BMF_REQUIRE(static_cast<bool>(ls >> u >> v),
                "edge list: malformed line " + std::to_string(line_no));
    std::string weight;
    if (weighted && ls >> weight) {
      // The whole token must be a finite number: strtod stops at "2.5x" and
      // returns 0 for "abc"; nan, inf and overflow parse but are not weights.
      char* end = nullptr;
      w = std::strtod(weight.c_str(), &end);
      BMF_REQUIRE(*end == '\0' && std::isfinite(w),
                  "edge list: malformed weight at line " + std::to_string(line_no));
      BMF_REQUIRE(w > 0, "edge list: non-positive weight at line " +
                             std::to_string(line_no));
    }
    BMF_REQUIRE(u >= 0 && v >= 0,
                "edge list: negative vertex id at line " + std::to_string(line_no));
    BMF_REQUIRE(u < kMaxVertexCount && v < kMaxVertexCount,
                "edge list: vertex id out of range at line " + std::to_string(line_no));
    BMF_REQUIRE(u != v,
                "edge list: self-loop at line " + std::to_string(line_no));
    out.edges.push_back({static_cast<Vertex>(u), static_cast<Vertex>(v),
                         static_cast<Weight>(w)});
    out.max_id = std::max({out.max_id, static_cast<Vertex>(u), static_cast<Vertex>(v)});
  }
  return out;
}

// All readers share one policy: a declared vertex count smaller than the ids
// actually used is a hard error, never a silent override.
Vertex resolve_vertex_count(const ParsedEdges& parsed) {
  const Vertex needed = static_cast<Vertex>(parsed.max_id + 1);
  if (parsed.declared >= 0) {
    BMF_REQUIRE(parsed.declared >= needed,
                "edge list: '# vertices' header smaller than 1 + largest "
                "vertex id used");
    return parsed.declared;
  }
  return needed;
}

}  // namespace

Graph read_edge_list(std::istream& in) {
  const ParsedEdges parsed = parse_lines(in, /*weighted=*/false);
  GraphBuilder b(resolve_vertex_count(parsed));
  for (const WeightedEdge& e : parsed.edges) b.add_edge(e.u, e.v);
  return b.build();  // the builder deduplicates repeated edges
}

Graph read_edge_list_file(const std::string& path) {
  std::ifstream in(path);
  BMF_REQUIRE(in.good(), "cannot open file: " + path);
  return read_edge_list(in);
}

WeightedGraph read_weighted_edge_list(std::istream& in) {
  const ParsedEdges parsed = parse_lines(in, /*weighted=*/true);
  WeightedGraph wg;
  wg.n = resolve_vertex_count(parsed);
  // Deduplicate repeated pairs (first occurrence wins), matching the
  // unweighted readers' policy.
  std::unordered_set<std::uint64_t> seen;
  for (const WeightedEdge& e : parsed.edges)
    if (seen.insert(edge_key(e.u, e.v)).second) wg.edges.push_back(e);
  return wg;
}

void write_edge_list(std::ostream& out, const Graph& g) {
  out << "# vertices " << g.num_vertices() << "\n";
  for (const Edge& e : g.edges()) out << e.u << " " << e.v << "\n";
}

Graph read_dimacs(std::istream& in) {
  std::string line;
  Vertex n = -1;
  std::vector<Edge> edges;
  std::int64_t declared_m = -1;
  std::int64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == 'c') continue;
    std::istringstream ls(line);
    char kind = 0;
    ls >> kind;
    if (kind == 'p') {
      BMF_REQUIRE(n < 0, "dimacs: repeated problem line at line " +
                             std::to_string(line_no));
      std::string fmt;
      long long nn = -1, mm = -1;
      BMF_REQUIRE(static_cast<bool>(ls >> fmt >> nn >> mm) && nn >= 0 && mm >= 0,
                  "dimacs: malformed problem line");
      BMF_REQUIRE(nn <= kMaxVertexCount,
                  "dimacs: vertex count out of range at line " +
                      std::to_string(line_no));
      n = static_cast<Vertex>(nn);
      declared_m = mm;
    } else if (kind == 'e') {
      long long u = 0, v = 0;
      BMF_REQUIRE(static_cast<bool>(ls >> u >> v), "dimacs: malformed edge line");
      BMF_REQUIRE(n >= 0, "dimacs: edge before problem line");
      BMF_REQUIRE(u >= 1 && v >= 1 && u <= n && v <= n,
                  "dimacs: vertex id out of range");
      BMF_REQUIRE(u != v, "dimacs: self-loop");
      edges.push_back({static_cast<Vertex>(u - 1), static_cast<Vertex>(v - 1)});
    }
  }
  BMF_REQUIRE(n >= 0, "dimacs: missing problem line");
  if (declared_m >= 0)
    BMF_REQUIRE(static_cast<std::int64_t>(edges.size()) == declared_m,
                "dimacs: edge count mismatch");
  return make_graph(n, edges);
}

void write_dimacs(std::ostream& out, const Graph& g) {
  out << "c bmf graph\n";
  out << "p edge " << g.num_vertices() << " " << g.num_edges() << "\n";
  for (const Edge& e : g.edges()) out << "e " << e.u + 1 << " " << e.v + 1 << "\n";
}

}  // namespace bmf
