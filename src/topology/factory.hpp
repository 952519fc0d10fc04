#pragma once
// String-addressable tree construction, so benches/examples can select tree
// families from the command line and experiment configs can round-trip.

#include <string>

#include "topology/tree.hpp"

namespace ct::topo {

enum class TreeKind {
  kKAryInOrder,
  kKAryInterleaved,
  kBinomialInOrder,
  kBinomialInterleaved,
  kLame,
  kOptimal,
};

struct TreeSpec {
  TreeKind kind = TreeKind::kBinomialInterleaved;
  int arity = 2;        ///< k for k-ary and Lamé trees
  std::int64_t o = 1;   ///< overhead, for optimal trees
  std::int64_t L = 2;   ///< latency, for optimal trees

  /// Human/CLI name, e.g. "binomial", "binomial-inorder", "kary:4",
  /// "lame:2", "optimal". Inverse of parse_tree_spec.
  std::string to_string() const;

  bool operator==(const TreeSpec&) const = default;
};

/// Parses "binomial", "binomial-inorder", "kary:<k>", "kary-inorder:<k>",
/// "lame:<k>", "optimal" (o/L filled from defaults given at build time).
/// Throws std::invalid_argument for unknown names.
TreeSpec parse_tree_spec(const std::string& text);

/// Builds the tree described by `spec` over `num_procs` ranks.
Tree make_tree(const TreeSpec& spec, Rank num_procs);

/// Rebuilds the tree described by `spec` over the `live` survivors of a
/// shrunk membership — the epoch-boundary repair entry point. The result is
/// a fresh, fully-connected topology over dense ranks [0, live): callers
/// (exp::run's repair-mode protocol builder, fed the survivor view of
/// rt::Engine::mend) translate dense <-> stable global ids via
/// rt::MembershipView, so every tree family repairs without per-family
/// surgery. Throws std::invalid_argument when no rank survived.
Tree make_survivor_tree(const TreeSpec& spec, Rank live);

}  // namespace ct::topo
