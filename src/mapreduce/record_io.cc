#include "mapreduce/record_io.h"

namespace rapida::mr {

void AppendU32(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void AppendU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

bool ReadU32(std::string_view data, size_t* offset, uint32_t* v) {
  if (*offset > data.size() || data.size() - *offset < 4) return false;
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<uint32_t>(
               static_cast<unsigned char>(data[*offset + i]))
           << (8 * i);
  }
  *offset += 4;
  *v = out;
  return true;
}

bool ReadU64(std::string_view data, size_t* offset, uint64_t* v) {
  if (*offset > data.size() || data.size() - *offset < 8) return false;
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(
               static_cast<unsigned char>(data[*offset + i]))
           << (8 * i);
  }
  *offset += 8;
  *v = out;
  return true;
}

void AppendRecordBatch(const RecordBatch& batch, std::string* out) {
  uint64_t key_bytes = 0, value_bytes = 0;
  batch.ForEach([&](const Record& r, uint64_t) {
    key_bytes += r.key_size;
    value_bytes += r.value_size;
  });
  AppendU64(batch.size(), out);
  AppendU64(key_bytes, out);
  AppendU64(value_bytes, out);
  batch.ForEach([out](const Record& r, uint64_t) {
    AppendU32(r.key_size, out);
    out->append(r.key());
    AppendU32(r.value_size, out);
    out->append(r.value());
  });
}

namespace {

Status Truncated(const char* what) {
  return Status::DataLoss(std::string("record payload truncated at ") + what);
}

}  // namespace

Status ParseRecordBatch(std::string_view data, RecordBatch* out) {
  *out = RecordBatch();
  size_t offset = 0;
  uint64_t count = 0, key_bytes = 0, value_bytes = 0;
  if (!ReadU64(data, &offset, &count)) return Truncated("record count");
  if (!ReadU64(data, &offset, &key_bytes)) return Truncated("key total");
  if (!ReadU64(data, &offset, &value_bytes)) return Truncated("value total");
  // Structural sanity before the decode loop: the declared payload must
  // fill the buffer exactly (each record adds 8 bytes of length framing).
  // Each term is bounded first so bit-flipped totals cannot wrap the sum.
  const uint64_t remaining = data.size() - offset;
  if (count > remaining / 8 || key_bytes > remaining ||
      value_bytes > remaining ||
      key_bytes + value_bytes + 8 * count != remaining) {
    return Status::DataLoss("record payload size mismatch: framing does not "
                            "fill the " + std::to_string(remaining) +
                            "-byte buffer");
  }
  uint64_t seen_keys = 0, seen_values = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t key_len = 0, value_len = 0;
    if (!ReadU32(data, &offset, &key_len)) return Truncated("key length");
    if (data.size() - offset < key_len) return Truncated("key bytes");
    std::string_view key = data.substr(offset, key_len);
    offset += key_len;
    if (!ReadU32(data, &offset, &value_len)) return Truncated("value length");
    if (data.size() - offset < value_len) return Truncated("value bytes");
    std::string_view value = data.substr(offset, value_len);
    offset += value_len;
    out->Add(key, value);
    seen_keys += key_len;
    seen_values += value_len;
  }
  if (seen_keys != key_bytes || seen_values != value_bytes) {
    return Status::DataLoss("record payload totals do not match framing");
  }
  if (offset != data.size()) {
    return Status::DataLoss("record payload has trailing bytes");
  }
  return Status::OK();
}

}  // namespace rapida::mr
