#include "rdf/dictionary.h"

#include <cstdio>
#include <limits>
#include <mutex>

#include "util/logging.h"
#include "util/string_util.h"

namespace rapida::rdf {

namespace {

uint64_t HashTerm(TermView term) {
  return util::HashBytes(
      term.datatype,
      util::HashBytes(term.text, static_cast<uint64_t>(term.kind)));
}

}  // namespace

Dictionary::Dictionary(Dictionary&& other) noexcept {
  *this = std::move(other);
}

Dictionary& Dictionary::operator=(Dictionary&& other) noexcept {
  if (this != &other) {
    std::scoped_lock lock(mu_, other.mu_);
    bytes_ = std::move(other.bytes_);
    entries_ = std::move(other.entries_);
    index_ = std::move(other.index_);
    datatypes_ = std::move(other.datatypes_);
    datatype_index_ = std::move(other.datatype_index_);
  }
  return *this;
}

uint32_t Dictionary::FindDatatype(std::string_view datatype) const {
  if (datatype.empty()) return 0;
  return datatype_index_.Find(util::HashBytes(datatype), [&](uint32_t i) {
    return datatypes_[i] == datatype;
  });
}

uint32_t Dictionary::InternDatatype(std::string_view datatype) {
  if (datatype.empty()) return 0;
  auto [i, inserted] = datatype_index_.FindOrInsert(
      util::HashBytes(datatype), static_cast<uint32_t>(datatypes_.size()),
      [&](uint32_t cand) { return datatypes_[cand] == datatype; });
  if (inserted) {
    RAPIDA_CHECK(i < (1u << 29)) << "too many distinct datatypes";
    datatypes_.push_back(bytes_.Concat(datatype, {}));
  }
  return i;
}

bool Dictionary::Holds(TermId id, TermView term, uint32_t dt) const {
  const Entry& e = entries_[id - 1];
  return e.kind == static_cast<uint32_t>(term.kind) && e.datatype == dt &&
         std::string_view(e.text, e.size) == term.text;
}

TermId Dictionary::FindLocked(TermView term, uint64_t hash) const {
  const uint32_t dt = FindDatatype(term.datatype);
  if (dt == util::HashIndex::kNotFound) return kInvalidTermId;
  const uint32_t id = index_.Find(
      hash, [&](uint32_t cand) { return Holds(cand, term, dt); });
  return id == util::HashIndex::kNotFound ? kInvalidTermId : id;
}

TermId Dictionary::Intern(TermView term) {
  const uint64_t hash = HashTerm(term);
  {
    // Fast path: already interned (the common case on hot caches).
    std::shared_lock lock(mu_);
    TermId id = FindLocked(term, hash);
    if (id != kInvalidTermId) return id;
  }
  double number = 0;
  const bool is_number = term.is_literal() && ParseDouble(term.text, &number);
  RAPIDA_CHECK(term.text.size() <= std::numeric_limits<uint32_t>::max())
      << "term of " << term.text.size() << " bytes";
  std::unique_lock lock(mu_);
  const uint32_t dt = InternDatatype(term.datatype);
  auto [id, inserted] = index_.FindOrInsert(
      hash, static_cast<TermId>(entries_.size() + 1),
      [&](uint32_t cand) { return Holds(cand, term, dt); });
  if (inserted) {
    const std::string_view text = bytes_.Concat(term.text, {});
    entries_.push_back(Entry{text.data(), static_cast<uint32_t>(text.size()),
                             static_cast<uint32_t>(term.kind),
                             is_number ? 1u : 0u, dt, number});
  }
  return id;
}

TermId Dictionary::InternIri(std::string_view iri) {
  return Intern(TermView(TermKind::kIri, iri, {}));
}

TermId Dictionary::InternLiteral(std::string_view value,
                                 std::string_view datatype) {
  return Intern(TermView(TermKind::kLiteral, value, datatype));
}

TermId Dictionary::InternInt(int64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
  return InternLiteral(buf, kXsdInteger);
}

TermId Dictionary::InternDouble(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return InternLiteral(buf, kXsdDouble);
}

TermId Dictionary::Lookup(TermView term) const {
  const uint64_t hash = HashTerm(term);
  std::shared_lock lock(mu_);
  return FindLocked(term, hash);
}

TermId Dictionary::LookupIri(std::string_view iri) const {
  return Lookup(TermView(TermKind::kIri, iri, {}));
}

TermView Dictionary::Get(TermId id) const {
  std::shared_lock lock(mu_);
  RAPIDA_CHECK(id != kInvalidTermId && id <= entries_.size())
      << "bad term id " << id;
  const Entry& e = entries_[id - 1];
  return TermView(static_cast<TermKind>(e.kind),
                  std::string_view(e.text, e.size), datatypes_[e.datatype]);
}

size_t Dictionary::size() const {
  std::shared_lock lock(mu_);
  return entries_.size();
}

std::optional<double> Dictionary::AsNumber(TermId id) const {
  std::shared_lock lock(mu_);
  if (id == kInvalidTermId || id > entries_.size()) return std::nullopt;
  const Entry& e = entries_[id - 1];
  if (!e.is_number) return std::nullopt;
  return e.number;
}

}  // namespace rapida::rdf
