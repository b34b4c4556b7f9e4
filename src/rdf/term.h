#ifndef RAPIDA_RDF_TERM_H_
#define RAPIDA_RDF_TERM_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

namespace rapida::rdf {

/// Dictionary-encoded identifier for an RDF term. Id 0 is reserved as
/// "invalid / unbound".
using TermId = uint32_t;
inline constexpr TermId kInvalidTermId = 0;

enum class TermKind : uint8_t {
  kIri = 0,
  kLiteral = 1,
  kBlank = 2,
};

/// An RDF term: IRI, literal, or blank node.
///
/// IRIs are stored without angle brackets; literals store their lexical form
/// in `text` and an optional datatype IRI in `datatype` (empty for plain
/// literals). Blank node labels are stored without the "_:" prefix.
struct Term {
  TermKind kind = TermKind::kIri;
  std::string text;
  std::string datatype;

  static Term Iri(std::string iri) {
    return Term{TermKind::kIri, std::move(iri), {}};
  }
  static Term Literal(std::string value, std::string datatype = {}) {
    return Term{TermKind::kLiteral, std::move(value), std::move(datatype)};
  }
  static Term Blank(std::string label) {
    return Term{TermKind::kBlank, std::move(label), {}};
  }

  bool is_iri() const { return kind == TermKind::kIri; }
  bool is_literal() const { return kind == TermKind::kLiteral; }
  bool is_blank() const { return kind == TermKind::kBlank; }

  friend bool operator==(const Term& a, const Term& b) {
    return a.kind == b.kind && a.text == b.text && a.datatype == b.datatype;
  }

  /// N-Triples surface form: <iri>, "literal"^^<dt>, or _:label.
  std::string ToNTriples() const;
};

/// A read-only view of a term: what Dictionary::Get returns. The views
/// point into the dictionary's arena and stay valid for the dictionary's
/// lifetime, across later interns and moves of the dictionary. A Term
/// converts implicitly, so functions taking a TermView accept query
/// constants too; the way back is the explicit ToTerm(), which copies.
struct TermView {
  TermKind kind = TermKind::kIri;
  std::string_view text;
  std::string_view datatype;

  TermView() = default;
  TermView(TermKind k, std::string_view t, std::string_view dt)
      : kind(k), text(t), datatype(dt) {}
  TermView(const Term& t)  // NOLINT
      : kind(t.kind), text(t.text), datatype(t.datatype) {}

  bool is_iri() const { return kind == TermKind::kIri; }
  bool is_literal() const { return kind == TermKind::kLiteral; }
  bool is_blank() const { return kind == TermKind::kBlank; }

  friend bool operator==(const TermView& a, const TermView& b) {
    return a.kind == b.kind && a.text == b.text && a.datatype == b.datatype;
  }

  /// N-Triples surface form: <iri>, "literal"^^<dt>, or _:label.
  std::string ToNTriples() const;

  /// An owning copy.
  Term ToTerm() const {
    return Term{kind, std::string(text), std::string(datatype)};
  }
};

/// Well-known IRIs.
inline constexpr char kRdfType[] =
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
inline constexpr char kXsdInteger[] =
    "http://www.w3.org/2001/XMLSchema#integer";
inline constexpr char kXsdDouble[] = "http://www.w3.org/2001/XMLSchema#double";

}  // namespace rapida::rdf

#endif  // RAPIDA_RDF_TERM_H_
