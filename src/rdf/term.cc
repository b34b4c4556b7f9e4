#include "rdf/term.h"

namespace rapida::rdf {

namespace {
// Escapes characters that N-Triples requires escaping inside literals.
std::string EscapeLiteral(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out += c;
    }
  }
  return out;
}
}  // namespace

std::string Term::ToNTriples() const { return TermView(*this).ToNTriples(); }

std::string TermView::ToNTriples() const {
  switch (kind) {
    case TermKind::kIri:
      return std::string("<").append(text).append(">");
    case TermKind::kBlank:
      return std::string("_:").append(text);
    case TermKind::kLiteral: {
      std::string out = "\"" + EscapeLiteral(text) + "\"";
      if (!datatype.empty()) out.append("^^<").append(datatype).append(">");
      return out;
    }
  }
  return {};
}

}  // namespace rapida::rdf
