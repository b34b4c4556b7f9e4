#ifndef RAPIDA_MAPREDUCE_RECORD_IO_H_
#define RAPIDA_MAPREDUCE_RECORD_IO_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "mapreduce/record.h"
#include "util/status.h"

namespace rapida::mr {

/// Compact binary serialization of a RecordBatch — the payload format of
/// materialization-store artifacts.
///
/// Layout (all integers little-endian):
///
///   u64 record_count
///   u64 key_bytes_total      (redundant — cheap structural validation)
///   u64 value_bytes_total
///   repeat record_count times, in batch order:
///     u32 key_len,   key bytes
///     u32 value_len, value bytes
///
/// key_prefix / key_hash are not stored: both are pure functions of the key
/// bytes. A decoded batch holds exactly the records serialized, packed by
/// RecordBatch::Add.
///
/// Decoding validates every length against the remaining buffer and the
/// declared totals; any mismatch returns DataLoss (a truncated or
/// bit-flipped payload must never crash or silently mis-decode).
void AppendRecordBatch(const RecordBatch& batch, std::string* out);

Status ParseRecordBatch(std::string_view data, RecordBatch* out);

/// Little-endian scalar helpers shared with the artifact container format.
void AppendU32(uint32_t v, std::string* out);
void AppendU64(uint64_t v, std::string* out);
/// Reads a scalar at *offset, advancing it. False when the buffer is short.
bool ReadU32(std::string_view data, size_t* offset, uint32_t* v);
bool ReadU64(std::string_view data, size_t* offset, uint64_t* v);

}  // namespace rapida::mr

#endif  // RAPIDA_MAPREDUCE_RECORD_IO_H_
