#ifndef RAPIDA_NTGA_TRIPLEGROUP_H_
#define RAPIDA_NTGA_TRIPLEGROUP_H_

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "ntga/prop_key.h"
#include "rdf/dictionary.h"
#include "rdf/triple.h"
#include "util/statusor.h"

namespace rapida::ntga {

/// Data-level property identity: a property id, plus the type object id
/// when the property is rdf:type (mirrors PropKey at the string level).
struct DataPropKey {
  rdf::TermId property = rdf::kInvalidTermId;
  rdf::TermId type_object = rdf::kInvalidTermId;

  bool is_type() const { return type_object != rdf::kInvalidTermId; }

  friend bool operator==(const DataPropKey& a, const DataPropKey& b) {
    return a.property == b.property && a.type_object == b.type_object;
  }
  friend bool operator<(const DataPropKey& a, const DataPropKey& b) {
    if (a.property != b.property) return a.property < b.property;
    return a.type_object < b.type_object;
  }
};

/// A triplegroup tg: triples sharing one subject (the NTGA unit of data).
struct TripleGroup {
  rdf::TermId subject = rdf::kInvalidTermId;
  std::vector<rdf::Triple> triples;

  /// props(tg): the set of DataPropKeys of the member triples.
  /// `type_id` is the dictionary id of rdf:type (kInvalidTermId if the
  /// graph has no type triples).
  std::set<DataPropKey> Props(rdf::TermId type_id) const;

  /// All objects of triples with the given property key (for a type key,
  /// the type object itself when present).
  std::vector<rdf::TermId> ObjectsOf(const DataPropKey& key,
                                     rdf::TermId type_id) const;

  /// Appends the same objects to `out` without allocating a fresh vector
  /// (callers clear; the hot expansion loops reuse one scratch vector).
  void ObjectsOfInto(const DataPropKey& key, rdf::TermId type_id,
                     std::vector<rdf::TermId>* out) const;

  /// True if a triple with this key exists (and, if `required_object` is
  /// valid, with that exact object).
  bool HasProp(const DataPropKey& key, rdf::TermId type_id,
               rdf::TermId required_object = rdf::kInvalidTermId) const;

  friend bool operator==(const TripleGroup& a, const TripleGroup& b) {
    return a.subject == b.subject && a.triples == b.triples;
  }
};

/// A match of a (composite) graph pattern: one triplegroup per star,
/// indexed by star position. Unfilled stars have subject == kInvalidTermId.
/// This is NTGA's "nested" representation — the join result holds the
/// joined groups side by side instead of flattening into wide tuples.
struct NestedTripleGroup {
  std::vector<TripleGroup> stars;

  bool IsFilled(int star) const {
    return star >= 0 && star < static_cast<int>(stars.size()) &&
           stars[star].subject != rdf::kInvalidTermId;
  }

  friend bool operator==(const NestedTripleGroup& a,
                         const NestedTripleGroup& b) {
    return a.stars == b.stars;
  }
};

/// Serialization for MapReduce records. Format (all ids decimal):
///   TripleGroup:        "subj;p,o;p,o;..."
///   NestedTripleGroup:  "star:subj;p,o;...#star:subj;..."  (filled stars)
std::string SerializeTripleGroup(const TripleGroup& tg);
StatusOr<TripleGroup> ParseTripleGroup(std::string_view data);

std::string SerializeNested(const NestedTripleGroup& ntg);
StatusOr<NestedTripleGroup> ParseNested(std::string_view data,
                                        int num_stars);

/// Scratch-reusing variants for per-task buffers: the *To serializers
/// append to `out` (same bytes as their std::string counterparts), the
/// *Into parsers overwrite `out` in place, reusing its vector/string
/// capacity so per-record parse loops stop allocating once warm.
void SerializeTripleGroupTo(const TripleGroup& tg, std::string* out);
Status ParseTripleGroupInto(std::string_view data, TripleGroup* out);

void SerializeNestedTo(const NestedTripleGroup& ntg, std::string* out);
Status ParseNestedInto(std::string_view data, int num_stars,
                       NestedTripleGroup* out);

}  // namespace rapida::ntga

#endif  // RAPIDA_NTGA_TRIPLEGROUP_H_
