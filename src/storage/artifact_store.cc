#include "storage/artifact_store.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <utility>

#include "mapreduce/record_io.h"
#include "rdf/term.h"
#include "util/crc32c.h"

namespace rapida::storage {

namespace fs = std::filesystem;

namespace {

constexpr char kMagic[8] = {'R', 'A', 'P', 'S', 'T', 'O', 'R', '1'};
constexpr uint32_t kFormatVersion = 1;
constexpr size_t kHeaderBytes = 8 + 4 + 4 * 4;

void AppendStr(std::string_view s, std::string* out) {
  mr::AppendU32(static_cast<uint32_t>(s.size()), out);
  out->append(s);
}

bool ReadStr(std::string_view data, size_t* offset, std::string* s) {
  uint32_t len = 0;
  if (!mr::ReadU32(data, offset, &len)) return false;
  if (data.size() - *offset < len) return false;
  s->assign(data.substr(*offset, len));
  *offset += len;
  return true;
}

std::string EncodeMeta(const ArtifactMeta& meta) {
  std::string out;
  AppendStr(meta.plan_fingerprint, &out);
  mr::AppendU64(meta.content_hash, &out);
  AppendStr(meta.dataset, &out);
  AppendStr(meta.canonical_query, &out);
  AppendStr(meta.ivm_class, &out);
  mr::AppendU32(static_cast<uint32_t>(meta.columns.size()), &out);
  for (const std::string& c : meta.columns) AppendStr(c, &out);
  AppendStr(meta.factorization, &out);
  return out;
}

Status DecodeMeta(std::string_view data, ArtifactMeta* meta) {
  size_t offset = 0;
  uint32_t ncols = 0;
  if (!ReadStr(data, &offset, &meta->plan_fingerprint) ||
      !mr::ReadU64(data, &offset, &meta->content_hash) ||
      !ReadStr(data, &offset, &meta->dataset) ||
      !ReadStr(data, &offset, &meta->canonical_query) ||
      !ReadStr(data, &offset, &meta->ivm_class) ||
      !mr::ReadU32(data, &offset, &ncols)) {
    return Status::DataLoss("artifact meta section truncated");
  }
  meta->columns.clear();
  for (uint32_t i = 0; i < ncols; ++i) {
    std::string c;
    if (!ReadStr(data, &offset, &c)) {
      return Status::DataLoss("artifact meta column list truncated");
    }
    meta->columns.push_back(std::move(c));
  }
  // Factorization spec: absent in pre-d-representation files (which then
  // decode as flat), mandatory once any bytes follow the column list.
  meta->factorization.clear();
  if (offset < data.size() &&
      !ReadStr(data, &offset, &meta->factorization)) {
    return Status::DataLoss("artifact factorization spec truncated");
  }
  if (offset != data.size()) {
    return Status::DataLoss("artifact meta section has trailing bytes");
  }
  return Status::OK();
}

std::string EncodeFile(const Artifact& artifact) {
  std::string meta = EncodeMeta(artifact.meta);
  std::string rows;
  mr::AppendRecordBatch(artifact.rows, &rows);
  std::string out(kMagic, sizeof(kMagic));
  mr::AppendU32(kFormatVersion, &out);
  mr::AppendU32(static_cast<uint32_t>(meta.size()), &out);
  mr::AppendU32(util::Crc32c(meta), &out);
  mr::AppendU32(static_cast<uint32_t>(rows.size()), &out);
  mr::AppendU32(util::Crc32c(rows), &out);
  out += meta;
  out += rows;
  return out;
}

/// Validates the container (magic, version, section framing, CRCs) and
/// decodes the meta; rows are decoded only when `rows` is non-null.
Status DecodeFile(std::string_view data, ArtifactMeta* meta,
                  mr::RecordBatch* rows) {
  if (data.size() < kHeaderBytes) {
    return Status::DataLoss("artifact shorter than its header (" +
                            std::to_string(data.size()) + " bytes)");
  }
  if (data.compare(0, 7, kMagic, 7) != 0) {
    return Status::DataLoss("artifact magic mismatch");
  }
  if (data[7] != kMagic[7]) {
    return Status::Unimplemented(
        "artifact container version skew: file is 'RAPSTOR" +
        std::string(1, data[7]) + "', this build reads 'RAPSTOR1'");
  }
  size_t offset = 8;
  uint32_t version = 0, meta_len = 0, meta_crc = 0, rows_len = 0,
           rows_crc = 0;
  mr::ReadU32(data, &offset, &version);
  mr::ReadU32(data, &offset, &meta_len);
  mr::ReadU32(data, &offset, &meta_crc);
  mr::ReadU32(data, &offset, &rows_len);
  mr::ReadU32(data, &offset, &rows_crc);
  if (version != kFormatVersion) {
    return Status::Unimplemented("artifact format version skew: file v" +
                                 std::to_string(version) +
                                 ", this build reads v" +
                                 std::to_string(kFormatVersion));
  }
  if (data.size() - offset != static_cast<uint64_t>(meta_len) + rows_len) {
    return Status::DataLoss(
        "artifact truncated: header declares " +
        std::to_string(static_cast<uint64_t>(meta_len) + rows_len) +
        " section bytes, file has " + std::to_string(data.size() - offset));
  }
  std::string_view meta_bytes = data.substr(offset, meta_len);
  std::string_view rows_bytes = data.substr(offset + meta_len, rows_len);
  if (util::Crc32c(meta_bytes) != meta_crc) {
    return Status::DataLoss("artifact meta checksum mismatch");
  }
  if (util::Crc32c(rows_bytes) != rows_crc) {
    return Status::DataLoss("artifact rows checksum mismatch");
  }
  RAPIDA_RETURN_IF_ERROR(DecodeMeta(meta_bytes, meta));
  if (rows != nullptr) {
    RAPIDA_RETURN_IF_ERROR(mr::ParseRecordBatch(rows_bytes, rows));
  }
  return Status::OK();
}

StatusOr<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (in.bad()) return Status::DataLoss("read error on " + path);
  return data;
}

// Cell kind tags of the row encoding.
constexpr char kCellUnbound = 0;
constexpr char kCellIri = 1;
constexpr char kCellLiteral = 2;
constexpr char kCellBlank = 3;

void AppendCell(rdf::TermId id, const rdf::Dictionary& dict,
                std::string* value) {
  if (id == rdf::kInvalidTermId) {
    value->push_back(kCellUnbound);
    return;
  }
  const rdf::TermView term = dict.Get(id);
  switch (term.kind) {
    case rdf::TermKind::kIri:
      value->push_back(kCellIri);
      AppendStr(term.text, value);
      break;
    case rdf::TermKind::kLiteral:
      value->push_back(kCellLiteral);
      AppendStr(term.text, value);
      AppendStr(term.datatype, value);
      break;
    case rdf::TermKind::kBlank:
      value->push_back(kCellBlank);
      AppendStr(term.text, value);
      break;
  }
}

Status DecodeCell(std::string_view value, size_t* offset,
                  rdf::Dictionary* dict, rdf::TermId* out) {
  if (*offset >= value.size()) {
    return Status::DataLoss("artifact row cell truncated");
  }
  char kind = value[(*offset)++];
  if (kind == kCellUnbound) {
    *out = rdf::kInvalidTermId;
    return Status::OK();
  }
  std::string text;
  if (!ReadStr(value, offset, &text)) {
    return Status::DataLoss("artifact row cell truncated");
  }
  rdf::Term term;
  switch (kind) {
    case kCellIri:
      term = rdf::Term::Iri(std::move(text));
      break;
    case kCellBlank:
      term = rdf::Term::Blank(std::move(text));
      break;
    case kCellLiteral: {
      std::string datatype;
      if (!ReadStr(value, offset, &datatype)) {
        return Status::DataLoss("artifact row datatype truncated");
      }
      term = rdf::Term::Literal(std::move(text), std::move(datatype));
      break;
    }
    default:
      return Status::DataLoss("artifact row has unknown cell kind " +
                              std::to_string(static_cast<int>(kind)));
  }
  *out = dict->Intern(term);
  return Status::OK();
}

}  // namespace

mr::RecordBatch SerializeTable(const analytics::BindingTable& table,
                               const rdf::Dictionary& dict) {
  mr::RecordBatch batch;
  std::string value;
  for (const std::span<const rdf::TermId> row : table.rows()) {
    value.clear();
    for (rdf::TermId id : row) AppendCell(id, dict, &value);
    batch.Add(/*key=*/{}, value);
  }
  return batch;
}

StatusOr<analytics::BindingTable> DeserializeTable(
    const mr::RecordBatch& rows, const std::vector<std::string>& columns,
    rdf::Dictionary* dict) {
  analytics::BindingTable table(columns);
  table.ReserveRows(rows.size());
  std::vector<rdf::TermId> row;
  auto add_row = [&](std::string_view value) -> Status {
    size_t offset = 0;
    row.clear();
    while (offset < value.size()) {
      rdf::TermId id = rdf::kInvalidTermId;
      RAPIDA_RETURN_IF_ERROR(DecodeCell(value, &offset, dict, &id));
      row.push_back(id);
    }
    if (row.size() != columns.size()) {
      return Status::DataLoss(
          "artifact row has " + std::to_string(row.size()) + " cells for " +
          std::to_string(columns.size()) + " columns");
    }
    table.AddRow(row);
    return Status::OK();
  };
  Status status;
  rows.ForEach([&](const mr::Record& r, uint64_t) {
    if (status.ok()) status = add_row(r.value());
  });
  RAPIDA_RETURN_IF_ERROR(status);
  return table;
}

bool FactorizeTable(const analytics::BindingTable& table,
                    const rdf::Dictionary& dict, mr::RecordBatch* rows,
                    std::string* spec) {
  const size_t nrows = table.NumRows();
  const size_t ncols = table.NumCols();
  if (ncols < 2 || nrows == 0) return false;

  // Cell-encoded byte length per distinct TermId, memoized — needed both
  // to size the flat baseline and to cost the factor vectors.
  std::map<rdf::TermId, uint64_t> cell_len;
  std::string scratch;
  auto len_of = [&](rdf::TermId id) {
    auto it = cell_len.find(id);
    if (it != cell_len.end()) return it->second;
    scratch.clear();
    AppendCell(id, dict, &scratch);
    return cell_len.emplace(id, scratch.size()).first->second;
  };

  struct Group {
    rdf::TermId base;
    std::vector<std::vector<rdf::TermId>> factors;  // one per column 1..n-1
  };
  // Record::Bytes() = key + value + 2; flat rows have empty keys, group
  // records carry "g" / "f<j>" keys.
  uint64_t flat_bytes = 0, fact_bytes = 0;

  for (size_t begin = 0; begin < nrows;) {
    size_t end = begin;
    while (end < nrows && table.Row(end)[0] == table.Row(begin)[0]) ++end;
    Group g;
    g.base = table.Row(begin)[0];
    g.factors.assign(ncols - 1, {});
    uint64_t row_len = 0;
    for (size_t c = 1; c < ncols; ++c) {
      std::vector<rdf::TermId>& vals = g.factors[c - 1];
      for (size_t r = begin; r < end; ++r) {
        rdf::TermId id = table.Row(r)[c];
        bool seen = false;
        for (rdf::TermId v : vals) {
          if (v == id) { seen = true; break; }
        }
        if (!seen) vals.push_back(id);
      }
    }
    // The run must be the exact cross product of its factor vectors, in
    // odometer order (last column innermost) — the order a factorized
    // star-join output decompresses to. Anything else stays flat.
    size_t product = 1;
    for (const auto& vals : g.factors) product *= vals.size();
    if (product != end - begin) return false;
    for (size_t r = begin; r < end; ++r) {
      size_t rel = r - begin, stride = product;
      for (size_t c = 1; c < ncols; ++c) {
        const std::vector<rdf::TermId>& vals = g.factors[c - 1];
        stride /= vals.size();
        if (table.Row(r)[c] != vals[(rel / stride) % vals.size()]) return false;
      }
      row_len = 0;
      for (size_t c = 0; c < ncols; ++c) row_len += len_of(table.Row(r)[c]);
      flat_bytes += row_len + 2;
    }
    fact_bytes += len_of(g.base) + 1 + 2;  // "g" record
    for (size_t c = 1; c < ncols; ++c) {
      uint64_t key = 1 + std::to_string(c - 1).size();  // "f<j>"
      for (rdf::TermId v : g.factors[c - 1]) {
        fact_bytes += len_of(v) + key + 2;
      }
    }
    begin = end;
  }
  if (fact_bytes >= flat_bytes) return false;

  mr::RecordBatch batch;
  std::string value;
  // Second pass emits the records (the first pass proved the shape and
  // the byte win without holding every factor vector alive at once).
  for (size_t begin = 0; begin < nrows;) {
    size_t end = begin;
    while (end < nrows && table.Row(end)[0] == table.Row(begin)[0]) ++end;
    value.clear();
    AppendCell(table.Row(begin)[0], dict, &value);
    batch.Add("g", value);
    for (size_t c = 1; c < ncols; ++c) {
      std::string key = "f" + std::to_string(c - 1);
      std::vector<rdf::TermId> vals;
      for (size_t r = begin; r < end; ++r) {
        rdf::TermId id = table.Row(r)[c];
        bool seen = false;
        for (rdf::TermId v : vals) {
          if (v == id) { seen = true; break; }
        }
        if (!seen) vals.push_back(id);
      }
      for (rdf::TermId v : vals) {
        value.clear();
        AppendCell(v, dict, &value);
        batch.Add(key, value);
      }
    }
    begin = end;
  }
  std::string out_spec = "b:0";
  for (size_t c = 1; c < ncols; ++c) {
    out_spec += "|f:" + std::to_string(c);
  }
  *rows = std::move(batch);
  *spec = std::move(out_spec);
  return true;
}

namespace {

/// Parses "b:<col>|f:<col>|..." into the base column and one output-column
/// index per factor. The spec must cover every output column exactly once.
Status ParseFactorizationSpec(const std::string& spec, size_t ncols,
                              size_t* base_col, std::vector<size_t>* factors) {
  factors->clear();
  std::vector<bool> covered(ncols, false);
  bool have_base = false;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t bar = spec.find('|', pos);
    std::string seg = spec.substr(pos, bar == std::string::npos
                                           ? std::string::npos
                                           : bar - pos);
    pos = bar == std::string::npos ? spec.size() : bar + 1;
    bool is_base = seg.rfind("b:", 0) == 0;
    bool is_factor = seg.rfind("f:", 0) == 0;
    if (!is_base && !is_factor) {
      return Status::DataLoss("artifact factorization spec segment '" + seg +
                              "' is neither b:<col> nor f:<col>");
    }
    char* endp = nullptr;
    unsigned long col = std::strtoul(seg.c_str() + 2, &endp, 10);
    if (endp == seg.c_str() + 2 || *endp != '\0' || col >= ncols ||
        covered[col]) {
      return Status::DataLoss("artifact factorization spec names column '" +
                              seg + "' outside the result schema");
    }
    covered[col] = true;
    if (is_base) {
      if (have_base) {
        return Status::DataLoss("artifact factorization spec has two bases");
      }
      have_base = true;
      *base_col = col;
    } else {
      factors->push_back(col);
    }
  }
  if (!have_base || factors->empty()) {
    return Status::DataLoss(
        "artifact factorization spec needs a base and >= 1 factor");
  }
  for (size_t c = 0; c < ncols; ++c) {
    if (!covered[c]) {
      return Status::DataLoss("artifact factorization spec misses column " +
                              std::to_string(c));
    }
  }
  return Status::OK();
}

}  // namespace

StatusOr<analytics::BindingTable> DeserializeArtifact(const Artifact& artifact,
                                                      rdf::Dictionary* dict) {
  if (artifact.meta.factorization.empty()) {
    return DeserializeTable(artifact.rows, artifact.meta.columns, dict);
  }
  const size_t ncols = artifact.meta.columns.size();
  size_t base_col = 0;
  std::vector<size_t> factor_cols;
  RAPIDA_RETURN_IF_ERROR(ParseFactorizationSpec(artifact.meta.factorization,
                                                ncols, &base_col,
                                                &factor_cols));
  analytics::BindingTable table(artifact.meta.columns);

  rdf::TermId base = rdf::kInvalidTermId;
  std::vector<std::vector<rdf::TermId>> factors(factor_cols.size());
  std::vector<rdf::TermId> row;
  bool open = false;
  auto flush = [&]() -> Status {
    if (!open) return Status::OK();
    size_t product = 1;
    for (const auto& vals : factors) {
      if (vals.empty()) {
        return Status::DataLoss("factorized artifact group has an empty "
                                "factor vector");
      }
      product *= vals.size();
    }
    // Odometer enumeration, factor 0 outermost — the encoder's order.
    row.assign(ncols, rdf::kInvalidTermId);
    row[base_col] = base;
    for (size_t rel = 0; rel < product; ++rel) {
      size_t stride = product;
      for (size_t j = 0; j < factors.size(); ++j) {
        stride /= factors[j].size();
        row[factor_cols[j]] = factors[j][(rel / stride) % factors[j].size()];
      }
      table.AddRow(row);
    }
    for (auto& vals : factors) vals.clear();
    return Status::OK();
  };

  auto add_record = [&](const mr::Record& r) -> Status {
    std::string_view key = r.key();
    std::string_view value = r.value();
    size_t offset = 0;
    rdf::TermId id = rdf::kInvalidTermId;
    RAPIDA_RETURN_IF_ERROR(DecodeCell(value, &offset, dict, &id));
    if (offset != value.size()) {
      return Status::DataLoss("factorized artifact record has trailing "
                              "bytes after its cell");
    }
    if (key == "g") {
      RAPIDA_RETURN_IF_ERROR(flush());
      base = id;
      open = true;
      return Status::OK();
    }
    if (key.size() < 2 || key[0] != 'f' || !open) {
      return Status::DataLoss("factorized artifact has record key '" +
                              std::string(key) + "' outside any group");
    }
    char* endp = nullptr;
    std::string idx(key.substr(1));
    unsigned long j = std::strtoul(idx.c_str(), &endp, 10);
    if (*endp != '\0' || j >= factors.size()) {
      return Status::DataLoss("factorized artifact factor key '" +
                              std::string(key) + "' out of range");
    }
    factors[j].push_back(id);
    return Status::OK();
  };
  Status status;
  artifact.rows.ForEach([&](const mr::Record& r, uint64_t) {
    if (status.ok()) status = add_record(r);
  });
  RAPIDA_RETURN_IF_ERROR(status);
  RAPIDA_RETURN_IF_ERROR(flush());
  return table;
}

std::string ArtifactStore::ArtifactName(const std::string& plan_fingerprint,
                                        uint64_t content_hash) {
  std::string name;
  name.reserve(plan_fingerprint.size() + 24);
  for (char c : plan_fingerprint) {
    bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                (c >= '0' && c <= '9');
    name.push_back(safe ? c : '_');
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "-%016llx.rapart",
                static_cast<unsigned long long>(content_hash));
  name += buf;
  return name;
}

StatusOr<std::unique_ptr<ArtifactStore>> ArtifactStore::Open(
    const Options& options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("artifact store needs a directory");
  }
  std::error_code ec;
  fs::create_directories(options.dir, ec);
  if (ec) {
    return Status::Internal("cannot create store dir " + options.dir + ": " +
                            ec.message());
  }
  std::unique_ptr<ArtifactStore> store(new ArtifactStore(options));
  std::lock_guard<std::mutex> lock(store->mu_);
  RAPIDA_RETURN_IF_ERROR(store->IndexDirLocked());
  return store;
}

Status ArtifactStore::IndexDirLocked() {
  struct Found {
    fs::file_time_type mtime;
    std::string name;
  };
  std::vector<Found> found;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(options_.dir, ec)) {
    if (!entry.is_regular_file()) continue;
    std::string name = entry.path().filename().string();
    if (name.size() < 7 || name.substr(name.size() - 7) != ".rapart") {
      continue;
    }
    StatusOr<std::string> data = ReadFileBytes(entry.path().string());
    if (!data.ok()) {
      stats_.corrupt++;
      QuarantineLocked(name);
      continue;
    }
    ArtifactMeta meta;
    Status decoded = DecodeFile(*data, &meta, /*rows=*/nullptr);
    if (!decoded.ok()) {
      if (decoded.code() == Code::kUnimplemented) continue;  // future file
      stats_.corrupt++;
      QuarantineLocked(name);
      continue;
    }
    Indexed indexed;
    indexed.path = entry.path().string();
    indexed.file_bytes = data->size();
    indexed.meta = std::move(meta);
    stats_.bytes_used += indexed.file_bytes;
    stats_.artifacts++;
    if (!indexed.meta.factorization.empty()) stats_.factorized++;
    index_[name] = std::move(indexed);
    found.push_back({entry.last_write_time(ec), name});
  }
  if (ec) {
    return Status::Internal("cannot scan store dir " + options_.dir + ": " +
                            ec.message());
  }
  // Seed recency from file mtimes: oldest to the back of the LRU.
  std::sort(found.begin(), found.end(),
            [](const Found& a, const Found& b) {
              if (a.mtime != b.mtime) return a.mtime < b.mtime;
              return a.name < b.name;
            });
  for (const Found& f : found) lru_.push_front(f.name);
  return Status::OK();
}

void ArtifactStore::TouchLocked(const std::string& name) {
  lru_.remove(name);
  lru_.push_front(name);
}

void ArtifactStore::QuarantineLocked(const std::string& name) {
  std::error_code ec;
  fs::rename(fs::path(options_.dir) / name,
             fs::path(options_.dir) / (name + ".quarantine"), ec);
  // A rename failure (e.g. the file vanished) is fine: either way the
  // artifact stops being offered.
  auto it = index_.find(name);
  if (it != index_.end()) {
    stats_.bytes_used -= it->second.file_bytes;
    stats_.artifacts--;
    if (!it->second.meta.factorization.empty()) stats_.factorized--;
    index_.erase(it);
  }
  lru_.remove(name);
}

StatusOr<Artifact> ArtifactStore::Get(const std::string& plan_fingerprint,
                                      uint64_t content_hash) {
  std::string name = ArtifactName(plan_fingerprint, content_hash);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(name);
  if (it == index_.end()) {
    stats_.misses++;
    return Status::NotFound("no artifact " + name);
  }
  StatusOr<std::string> data = ReadFileBytes(it->second.path);
  if (!data.ok()) {
    stats_.misses++;
    stats_.corrupt++;
    QuarantineLocked(name);
    return Status::DataLoss("artifact " + name +
                            " unreadable: " + data.status().message());
  }
  Artifact artifact;
  Status decoded = DecodeFile(*data, &artifact.meta, &artifact.rows);
  if (!decoded.ok()) {
    stats_.misses++;
    if (decoded.code() != Code::kUnimplemented) {
      stats_.corrupt++;
      QuarantineLocked(name);
    }
    return decoded;
  }
  stats_.hits++;
  stats_.bytes_read += data->size();
  TouchLocked(name);
  return artifact;
}

Status ArtifactStore::Put(const Artifact& artifact) {
  std::string name = ArtifactName(artifact.meta.plan_fingerprint,
                                  artifact.meta.content_hash);
  std::string bytes = EncodeFile(artifact);

  std::lock_guard<std::mutex> lock(mu_);
  fs::path path = fs::path(options_.dir) / name;
  fs::path tmp = fs::path(options_.dir) / (name + ".tmp");
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::Internal("cannot write " + tmp.string());
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out.good()) {
      return Status::Internal("short write to " + tmp.string());
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return Status::Internal("cannot publish " + path.string());
  }

  auto it = index_.find(name);
  if (it != index_.end()) {
    stats_.bytes_used -= it->second.file_bytes;
    if (!it->second.meta.factorization.empty()) stats_.factorized--;
  } else {
    stats_.artifacts++;
    it = index_.emplace(name, Indexed{}).first;
  }
  it->second.path = path.string();
  it->second.file_bytes = bytes.size();
  it->second.meta = artifact.meta;
  if (!it->second.meta.factorization.empty()) stats_.factorized++;
  stats_.bytes_used += bytes.size();
  stats_.puts++;
  stats_.bytes_written += bytes.size();
  TouchLocked(name);
  EvictToFitLocked(name);
  return Status::OK();
}

void ArtifactStore::EvictToFitLocked(const std::string& keep) {
  if (options_.byte_budget == 0) return;
  // Evict from the cold end, sparing the fresh artifact until it is the
  // only one left (an artifact larger than the whole budget does not get
  // to wedge the store).
  while (stats_.bytes_used > options_.byte_budget && !lru_.empty()) {
    std::string victim = lru_.back();
    if (victim == keep) {
      if (lru_.size() == 1) break;  // over budget, but never empty-handed
      // keep is at the back only when everything else was already evicted
      // this round; rotate it forward and take the true cold end.
      lru_.pop_back();
      lru_.push_front(victim);
      victim = lru_.back();
    }
    auto it = index_.find(victim);
    if (it != index_.end()) {
      std::error_code ec;
      fs::remove(it->second.path, ec);
      stats_.bytes_used -= it->second.file_bytes;
      stats_.artifacts--;
      if (!it->second.meta.factorization.empty()) stats_.factorized--;
      index_.erase(it);
    }
    lru_.remove(victim);
    stats_.evictions++;
  }
}

void ArtifactStore::Remove(const std::string& plan_fingerprint,
                           uint64_t content_hash) {
  std::string name = ArtifactName(plan_fingerprint, content_hash);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(name);
  if (it == index_.end()) return;
  std::error_code ec;
  fs::remove(it->second.path, ec);
  stats_.bytes_used -= it->second.file_bytes;
  stats_.artifacts--;
  if (!it->second.meta.factorization.empty()) stats_.factorized--;
  index_.erase(it);
  lru_.remove(name);
}

std::vector<ArtifactMeta> ArtifactStore::ListForDataset(
    const std::string& dataset, uint64_t content_hash) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ArtifactMeta> out;
  for (const auto& [name, indexed] : index_) {
    if (indexed.meta.dataset == dataset &&
        indexed.meta.content_hash == content_hash) {
      out.push_back(indexed.meta);
    }
  }
  return out;
}

ArtifactStore::Stats ArtifactStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::string ArtifactStore::StatsJson() const {
  Stats s = stats();
  return "{\"hits\":" + std::to_string(s.hits) +
         ",\"misses\":" + std::to_string(s.misses) +
         ",\"puts\":" + std::to_string(s.puts) +
         ",\"evictions\":" + std::to_string(s.evictions) +
         ",\"corrupt\":" + std::to_string(s.corrupt) +
         ",\"bytes_read\":" + std::to_string(s.bytes_read) +
         ",\"bytes_written\":" + std::to_string(s.bytes_written) +
         ",\"artifacts\":" + std::to_string(s.artifacts) +
         ",\"factorized_artifacts\":" + std::to_string(s.factorized) +
         ",\"bytes_used\":" + std::to_string(s.bytes_used) +
         ",\"byte_budget\":" + std::to_string(options_.byte_budget) + "}";
}

}  // namespace rapida::storage
