#ifndef RAPIDA_RDF_DICTIONARY_H_
#define RAPIDA_RDF_DICTIONARY_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <shared_mutex>
#include <string_view>
#include <vector>

#include "rdf/term.h"
#include "util/arena.h"
#include "util/hash_index.h"

namespace rapida::rdf {

/// Bidirectional term <-> id mapping. All triples in a Graph reference terms
/// through TermIds; joins and grouping compare 32-bit ids instead of
/// strings.
///
/// Layout (DESIGN.md §17): each term's bytes are copied once into an
/// append-only arena whose blocks never move. Per id there is one 24-byte
/// entry (text pointer and length, kind, datatype index, and the number
/// AsNumber returns, parsed once at intern), kept in a deque so growth
/// never copies or doubles the entries. Datatype IRIs are stored once in a
/// side table. An open-addressing util::HashIndex over a 64-bit hash of
/// (kind, text, datatype) maps terms to ids; probes compare against the
/// entry, so a lookup builds no key and a hit allocates nothing.
///
/// Thread-safe: lookups take a shared lock, interning an exclusive one, so
/// concurrent queries served off one shared dataset may intern computed
/// values (aggregation finalizers) while other queries read. An intern
/// claims its index slot and appends its entry under one exclusive lock,
/// so no probe sees an id without its entry. Ids are dense from 1 in
/// first-intern order and append-only — a term, once interned, never moves
/// or disappears — which is what lets cached result tables (service layer)
/// stay valid across unrelated interning, and the TermView that Get
/// returns stay valid across later interns, index growth and moves of the
/// dictionary.
class Dictionary {
 public:
  Dictionary() = default;

  Dictionary(const Dictionary&) = delete;
  Dictionary& operator=(const Dictionary&) = delete;
  /// Moves are only legal while no other thread touches either side
  /// (dataset construction, test setup). Views into the source stay valid
  /// and now belong to the destination; the source may only be destroyed
  /// or assigned.
  Dictionary(Dictionary&& other) noexcept;
  Dictionary& operator=(Dictionary&& other) noexcept;

  /// Returns the id of `term`, interning it if new. Ids are dense and
  /// start at 1 (0 is kInvalidTermId). Takes a view, so a Term or a view
  /// of another dictionary's term both intern without a copy.
  TermId Intern(TermView term);

  /// Convenience interners.
  TermId InternIri(std::string_view iri);
  TermId InternLiteral(std::string_view value, std::string_view datatype = {});
  TermId InternInt(int64_t value);
  TermId InternDouble(double value);

  /// Returns the id of `term`, or kInvalidTermId if not present.
  TermId Lookup(TermView term) const;
  TermId LookupIri(std::string_view iri) const;

  /// Term for a valid id. Id must be in [1, size()]. The view stays valid
  /// for the dictionary's lifetime.
  TermView Get(TermId id) const;

  /// Number of interned terms.
  size_t size() const;

  /// Parses the literal at `id` as a number. Returns nullopt for IRIs,
  /// blanks, and non-numeric literals.
  std::optional<double> AsNumber(TermId id) const;

 private:
  struct Entry {
    const char* text = nullptr;  // into bytes_
    uint32_t size = 0;
    uint32_t kind : 2 = 0;
    uint32_t is_number : 1 = 0;
    uint32_t datatype : 29 = 0;  // index into datatypes_; 0 = none
    /// Numeric value of a literal, parsed once at intern time so AsNumber
    /// — hot in every aggregation inner loop — is a cached read.
    double number = 0;
  };
  static_assert(sizeof(Entry) == 24);

  /// Index of `datatype` in datatypes_ (0 for none), or
  /// util::HashIndex::kNotFound if it was never interned. Caller holds mu_.
  uint32_t FindDatatype(std::string_view datatype) const;
  /// Same, adding the datatype if new. Caller holds mu_ exclusively.
  uint32_t InternDatatype(std::string_view datatype);
  /// Whether `id` is `term`, whose datatype index is `dt`. Caller holds mu_.
  bool Holds(TermId id, TermView term, uint32_t dt) const;
  /// Id of `term` (whose hash is `hash`), or kInvalidTermId. Caller holds
  /// mu_.
  TermId FindLocked(TermView term, uint64_t hash) const;

  mutable std::shared_mutex mu_;
  util::Arena bytes_;          // term and datatype bytes; blocks never move
  std::deque<Entry> entries_;  // entries_[id-1] is the term for id
  util::HashIndex index_;      // term hash -> id
  std::vector<std::string_view> datatypes_{std::string_view()};
  util::HashIndex datatype_index_;  // datatype hash -> index in datatypes_
};

}  // namespace rapida::rdf

#endif  // RAPIDA_RDF_DICTIONARY_H_
