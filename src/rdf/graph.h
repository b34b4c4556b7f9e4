#ifndef RAPIDA_RDF_GRAPH_H_
#define RAPIDA_RDF_GRAPH_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/triple.h"
#include "util/hash_index.h"

namespace rapida::rdf {

/// An in-memory RDF dataset: a dictionary plus a bag of encoded triples with
/// secondary indexes built on demand.
///
/// This is the substrate every engine reads from. The simulated DFS stores
/// *serialized* partitions derived from a Graph (vertical partitions for the
/// Hive engines, subject triplegroups for the NTGA engines); the Graph
/// itself is the loading/bookkeeping structure.
///
/// Triples live once, in insertion order, in `triples_`. The set semantics
/// come from a util::HashIndex whose ids are positions in `triples_` (8
/// bytes per slot, DESIGN.md §17), so deduplication stores no second copy
/// of a triple.
class Graph {
 public:
  Graph() = default;

  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;

  Dictionary& dict() { return dict_; }
  const Dictionary& dict() const { return dict_; }

  /// Adds a triple; duplicates are ignored (an RDF graph is a *set* of
  /// triples — duplicate insertions must not change query answers).
  void Add(TermId s, TermId p, TermId o);
  void Add(const Term& s, const Term& p, const Term& o);

  /// Convenience: subject/property as IRIs, object as IRI.
  void AddIri(std::string_view s, std::string_view p, std::string_view o);
  /// Convenience: subject/property as IRIs, object as plain literal.
  void AddLit(std::string_view s, std::string_view p, std::string_view o);
  /// Convenience: subject/property as IRIs, object as integer literal.
  void AddInt(std::string_view s, std::string_view p, int64_t value);

  const std::vector<Triple>& triples() const { return triples_; }
  size_t size() const { return triples_.size(); }

  /// Id of rdf:type if already interned, else kInvalidTermId.
  TermId TypeIdOrInvalid() const;

  /// All distinct property ids, with triple counts.
  std::unordered_map<TermId, uint64_t> PropertyCounts() const;

  /// Calls fn(TermId subject, std::span<const Triple> triples) once per
  /// subject, in ascending subject id order, with the subject's triples
  /// ordered by property, then object. The spans point into one sorted
  /// copy of the triples, made for the walk and freed when it returns.
  template <typename Fn>
  void ForEachSubject(Fn&& fn) const {
    std::vector<Triple> sorted = triples_;
    std::sort(sorted.begin(), sorted.end());
    for (size_t begin = 0, end = 0; begin < sorted.size(); begin = end) {
      while (end < sorted.size() && sorted[end].s == sorted[begin].s) ++end;
      fn(sorted[begin].s,
         std::span<const Triple>(sorted.data() + begin, end - begin));
    }
  }

  /// Rough serialized size in bytes, as the DFS would store it in N-Triples
  /// text: the three terms' text plus 8 separator bytes per triple. Used by
  /// the cost model to size inputs. A running total kept by Add, so the
  /// call is O(1).
  uint64_t EstimateSerializedBytes() const { return serialized_bytes_; }

 private:
  Dictionary dict_;
  std::vector<Triple> triples_;
  util::HashIndex triple_index_;  // triple hash -> position in triples_
  uint64_t serialized_bytes_ = 0;
};

}  // namespace rapida::rdf

#endif  // RAPIDA_RDF_GRAPH_H_
