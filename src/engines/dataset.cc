#include "engines/dataset.h"

#include <algorithm>
#include <span>
#include <string>

#include "mapreduce/record.h"

namespace rapida::engine {

Dataset::Dataset(rdf::Graph graph, const Options& options)
    : graph_(std::move(graph)), options_(options) {
  type_id_ = graph_.TypeIdOrInvalid();
  if (options_.dfs_capacity > 0) dfs_.SetCapacityLimit(options_.dfs_capacity);
}

Status Dataset::EnsureVpTables() {
  std::lock_guard<std::mutex> lock(layout_mu_);
  if (vp_loaded_) return Status::OK();

  std::map<rdf::TermId, mr::RecordBatch> tables;
  std::map<rdf::TermId, mr::RecordBatch> type_tables;
  for (const rdf::Triple& t : graph_.triples()) {
    // Rows are dictionary-encoded (subject id, object id) — the same
    // uniform encoding the triplegroup layout uses, so byte accounting
    // compares layouts, not term-encoding choices.
    mr::RecordBatch& batch =
        t.p == type_id_ ? type_tables[t.o] : tables[t.p];
    batch.Add(std::to_string(t.s), std::to_string(t.o));
  }

  mr::FileOptions fo;
  fo.compressed = options_.vp_compressed;
  fo.compression_ratio = options_.orc_ratio;
  for (auto& [p, rows] : tables) {
    std::string name = "vp:p:" + std::to_string(p);
    RAPIDA_RETURN_IF_ERROR(dfs_.Write(name, std::move(rows), fo));
    vp_files_[p] = name;
  }
  for (auto& [o, rows] : type_tables) {
    std::string name = "vp:t:" + std::to_string(o);
    RAPIDA_RETURN_IF_ERROR(dfs_.Write(name, std::move(rows), fo));
    vp_type_files_[o] = name;
  }
  vp_loaded_ = true;
  return Status::OK();
}

Status Dataset::EnsureTripleGroups() {
  std::lock_guard<std::mutex> lock(layout_mu_);
  if (tg_loaded_) return Status::OK();

  // Group subjects by equivalence class (their property set). With the
  // ablation knob off, everything shares one catch-all class (its EC is
  // empty, so it "covers" only empty requirements — TgFilesCovering then
  // must return it for every request, handled below).
  // The walk holds one sorted copy of the triples and the classes' packed
  // records; each subject's triplegroup is serialized through reused
  // scratch.
  std::map<std::set<rdf::TermId>, mr::RecordBatch> classes;
  std::set<rdf::TermId> all_props;
  ntga::TripleGroup tg;
  std::string value;
  graph_.ForEachSubject(
      [&](rdf::TermId subject, std::span<const rdf::Triple> triples) {
        std::set<rdf::TermId> ec;
        for (const rdf::Triple& t : triples) {
          ec.insert(t.p);
          all_props.insert(t.p);
        }
        tg.subject = subject;
        tg.triples.assign(triples.begin(), triples.end());
        value.clear();
        ntga::SerializeTripleGroupTo(tg, &value);
        if (!options_.tg_partition_by_ec) ec.clear();
        classes[std::move(ec)].Add(std::to_string(subject), value);
      });
  if (!options_.tg_partition_by_ec && !classes.empty()) {
    // The single file must cover every property request.
    mr::RecordBatch records = std::move(classes.begin()->second);
    classes.clear();
    classes[all_props] = std::move(records);
  }

  int n = 0;
  for (auto& [ec, rows] : classes) {
    std::string name = "tg:ec:" + std::to_string(n++);
    RAPIDA_RETURN_IF_ERROR(dfs_.Write(name, std::move(rows)));
    tg_files_[name] = ec;
  }
  tg_loaded_ = true;
  return Status::OK();
}

namespace {

/// FNV-1a over the triple's N-Triples rendering, strengthened with a
/// splitmix64 finalizer so the XOR-fold across triples doesn't inherit
/// FNV's weak high bits. Term-rendering-based (not TermId-based) so two
/// processes loading the same data compute the same hash.
uint64_t TripleContentHash(const rdf::Dictionary& dict,
                           const rdf::Triple& t) {
  std::string rendered = dict.Get(t.s).ToNTriples();
  rendered += ' ';
  rendered += dict.Get(t.p).ToNTriples();
  rendered += ' ';
  rendered += dict.Get(t.o).ToNTriples();
  uint64_t h = 14695981039346656037ull;
  for (char c : rendered) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

}  // namespace

uint64_t Dataset::ContentHash() const {
  std::lock_guard<std::mutex> lock(layout_mu_);
  if (!content_hash_valid_) {
    uint64_t h = 0x5eed0fc0417ac75full;  // empty-graph sentinel
    for (const rdf::Triple& t : graph_.triples()) {
      h ^= TripleContentHash(graph_.dict(), t);
    }
    content_hash_ = h;
    content_hash_valid_ = true;
  }
  return content_hash_;
}

Status Dataset::AddTriples(const std::vector<TripleUpdate>& triples,
                           std::vector<rdf::Triple>* added) {
  std::lock_guard<std::mutex> lock(layout_mu_);
  if (added != nullptr) added->clear();
  for (const TripleUpdate& t : triples) {
    size_t before = graph_.size();
    graph_.Add(t.s, t.p, t.o);
    if (graph_.size() == before) continue;  // duplicate of an existing triple
    const rdf::Triple& fresh = graph_.triples().back();
    if (added != nullptr) added->push_back(fresh);
    if (content_hash_valid_) {
      content_hash_ ^= TripleContentHash(graph_.dict(), fresh);
    }
  }
  // rdf:type may have been interned by this batch.
  type_id_ = graph_.TypeIdOrInvalid();

  // Drop both materialized layouts; the next query rebuilds them from the
  // updated graph.
  for (const auto& [p, name] : vp_files_) (void)dfs_.Delete(name);
  for (const auto& [o, name] : vp_type_files_) (void)dfs_.Delete(name);
  for (const auto& [name, ec] : tg_files_) (void)dfs_.Delete(name);
  vp_files_.clear();
  vp_type_files_.clear();
  tg_files_.clear();
  vp_loaded_ = false;
  tg_loaded_ = false;

  version_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

std::string Dataset::VpFile(rdf::TermId property) const {
  std::lock_guard<std::mutex> lock(layout_mu_);
  auto it = vp_files_.find(property);
  return it == vp_files_.end() ? std::string() : it->second;
}

std::string Dataset::VpTypeFile(rdf::TermId type_object) const {
  std::lock_guard<std::mutex> lock(layout_mu_);
  auto it = vp_type_files_.find(type_object);
  return it == vp_type_files_.end() ? std::string() : it->second;
}

uint64_t Dataset::VpFileBytes(const std::string& file) const {
  if (file.empty()) return 0;
  auto f = dfs_.Open(file);
  return f.ok() ? (*f)->stored_bytes : 0;
}

std::vector<std::string> Dataset::TgFilesCovering(
    const std::set<rdf::TermId>& properties) const {
  std::lock_guard<std::mutex> lock(layout_mu_);
  std::vector<std::string> out;
  for (const auto& [name, ec] : tg_files_) {
    if (std::includes(ec.begin(), ec.end(), properties.begin(),
                      properties.end())) {
      out.push_back(name);
    }
  }
  return out;
}

}  // namespace rapida::engine
