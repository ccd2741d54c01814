#include "engine/wire_format.h"

#include <cstring>
#include <limits>

#include "common/checksum.h"
#include "common/logging.h"

namespace shp::wire {

namespace {

/// uint64 varints occupy at most 10 bytes; the ids and counts this codec
/// carries all fit in 32 bits (5 bytes), but the reader accepts the full
/// width so any AppendVarint output round-trips.
constexpr int kMaxVarintBytes = 10;

bool ReadVarint(const uint8_t** p, const uint8_t* end, uint64_t* value) {
  uint64_t v = 0;
  int shift = 0;
  for (int i = 0; i < kMaxVarintBytes && *p != end; ++i) {
    const uint8_t byte = **p;
    ++*p;
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *value = v;
      return true;
    }
    shift += 7;
  }
  return false;  // truncated, or continuation bits past 10 bytes
}

inline int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

/// Reconstructed ids must fit the positive int32 range of VertexId/BucketId.
inline bool FitsId(uint64_t v) {
  return v <= static_cast<uint64_t>(std::numeric_limits<int32_t>::max());
}

}  // namespace

void AppendVarint(std::vector<uint8_t>* out, uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out->push_back(static_cast<uint8_t>(value));
}

void AppendZigZag(std::vector<uint8_t>* out, int64_t value) {
  AppendVarint(out, (static_cast<uint64_t>(value) << 1) ^
                        static_cast<uint64_t>(value >> 63));
}

void EncodeGroupedDeltas(std::span<const NeighborDelta> records,
                         std::vector<uint8_t>* out) {
  size_t i = 0;
  VertexId prev_q = 0;
  while (i < records.size()) {
    const VertexId q = records[i].q;
    SHP_DCHECK(q >= prev_q) << "grouped codec requires ascending query ids";
    size_t j = i;
    while (j < records.size() && records[j].q == q) ++j;
    AppendVarint(out, static_cast<uint64_t>(q - prev_q));
    AppendVarint(out, static_cast<uint64_t>(j - i));
    prev_q = q;
    BucketId prev_bucket = 0;
    for (size_t r = i; r < j; ++r) {
      const NeighborDelta& rec = records[r];
      SHP_DCHECK(r == i ? rec.bucket >= 0 : rec.bucket > prev_bucket)
          << "grouped codec requires strictly ascending buckets within a "
             "group";
      AppendVarint(out, static_cast<uint64_t>(rec.bucket - prev_bucket));
      AppendZigZag(out, static_cast<int64_t>(rec.old_count));
      AppendZigZag(out, static_cast<int64_t>(rec.new_count) -
                            static_cast<int64_t>(rec.old_count));
      prev_bucket = rec.bucket;
    }
    i = j;
  }
}

bool DecodeGroupedDeltas(std::span<const uint8_t> bytes,
                         std::vector<NeighborDelta>* out) {
  const uint8_t* p = bytes.data();
  const uint8_t* end = p + bytes.size();
  uint64_t prev_q = 0;
  while (p != end) {
    uint64_t q_delta = 0;
    uint64_t count = 0;
    if (!ReadVarint(&p, end, &q_delta)) return false;
    if (!ReadVarint(&p, end, &count)) return false;
    // Unbounded-allocation guard: every record costs at least three stream
    // bytes, so a count claim exceeding the remaining bytes is a lie — reject
    // it before the record loop starts appending.
    if (count > static_cast<uint64_t>(end - p)) return false;
    const uint64_t q = prev_q + q_delta;
    if (!FitsId(q)) return false;
    prev_q = q;  // zero-count groups still advance the qid chain
    uint64_t prev_bucket = 0;
    for (uint64_t r = 0; r < count; ++r) {
      uint64_t b_delta = 0;
      uint64_t old_zz = 0;
      uint64_t new_zz = 0;
      if (!ReadVarint(&p, end, &b_delta)) return false;
      if (!ReadVarint(&p, end, &old_zz)) return false;
      if (!ReadVarint(&p, end, &new_zz)) return false;
      // Buckets strictly ascend within a group: a repeated bucket is
      // malformed (the fold emits one record per changed (q, bucket)).
      if (r > 0 && b_delta == 0) return false;
      const uint64_t bucket = prev_bucket + b_delta;
      if (!FitsId(bucket)) return false;
      const int64_t old_count = ZigZagDecode(old_zz);
      const int64_t new_count = old_count + ZigZagDecode(new_zz);
      if (old_count < 0 || old_count > std::numeric_limits<uint32_t>::max())
        return false;
      if (new_count < 0 || new_count > std::numeric_limits<uint32_t>::max())
        return false;
      out->push_back(NeighborDelta{static_cast<VertexId>(q),
                                   static_cast<BucketId>(bucket),
                                   static_cast<uint32_t>(old_count),
                                   static_cast<uint32_t>(new_count)});
      prev_bucket = bucket;
    }
  }
  return true;
}

size_t GroupedWireBytes(std::span<const NeighborDelta> records) {
  thread_local std::vector<uint8_t> scratch;
  scratch.clear();
  EncodeGroupedDeltas(records, &scratch);
#ifndef NDEBUG
  thread_local std::vector<NeighborDelta> decoded;
  decoded.clear();
  SHP_CHECK(DecodeGroupedDeltas(scratch, &decoded))
      << "grouped wire stream failed to decode its own encoding";
  SHP_CHECK_EQ(decoded.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    SHP_CHECK(decoded[i] == records[i])
        << "grouped wire codec round-trip mismatch at record " << i;
  }
#endif
  return scratch.size();
}

const char* WireVerdictName(WireVerdict verdict) {
  switch (verdict) {
    case WireVerdict::kOk:
      return "ok";
    case WireVerdict::kTruncated:
      return "truncated";
    case WireVerdict::kCorrupt:
      return "corrupt";
  }
  return "unknown";
}

size_t EncodeEnveloped(const EnvelopeHeader& header,
                       std::span<const uint8_t> payload,
                       std::vector<uint8_t>* out) {
  const size_t start = out->size();
  AppendVarint(out, header.epoch);
  AppendVarint(out, header.sequence);
  AppendVarint(out, header.record_count);
  AppendVarint(out, payload.size());
  uint32_t crc = Crc32c(out->data() + start, out->size() - start);
  crc = Crc32c(payload.data(), payload.size(), crc);
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(crc >> (8 * i)));  // little-endian
  }
  out->insert(out->end(), payload.begin(), payload.end());
  return out->size() - start - payload.size();
}

WireVerdict DecodeEnveloped(std::span<const uint8_t> bytes,
                            EnvelopeHeader* header,
                            std::vector<NeighborDelta>* out) {
  const uint8_t* const begin = bytes.data();
  const uint8_t* p = begin;
  const uint8_t* const end = begin + bytes.size();
  if (!ReadVarint(&p, end, &header->epoch)) return WireVerdict::kTruncated;
  if (!ReadVarint(&p, end, &header->sequence)) return WireVerdict::kTruncated;
  if (!ReadVarint(&p, end, &header->record_count)) {
    return WireVerdict::kTruncated;
  }
  if (!ReadVarint(&p, end, &header->payload_bytes)) {
    return WireVerdict::kTruncated;
  }
  const size_t header_bytes = static_cast<size_t>(p - begin);
  if (end - p < 4) return WireVerdict::kTruncated;
  uint32_t stored_crc = 0;
  for (int i = 0; i < 4; ++i) {
    stored_crc |= static_cast<uint32_t>(p[i]) << (8 * i);
  }
  p += 4;
  const size_t remaining = static_cast<size_t>(end - p);
  if (header->payload_bytes > remaining) return WireVerdict::kTruncated;
  // Length pin: the frame must end exactly where the header says — trailing
  // garbage is corruption, not padding.
  if (header->payload_bytes < remaining) return WireVerdict::kCorrupt;
  uint32_t crc = Crc32c(begin, header_bytes);
  crc = Crc32c(p, remaining, crc);
  if (crc != stored_crc) return WireVerdict::kCorrupt;
  const size_t before = out->size();
  if (!DecodeGroupedDeltas(std::span<const uint8_t>(p, remaining), out)) {
    return WireVerdict::kCorrupt;
  }
  if (out->size() - before != header->record_count) {
    return WireVerdict::kCorrupt;
  }
  return WireVerdict::kOk;
}

}  // namespace shp::wire
