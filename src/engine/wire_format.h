// Compact grouped wire format for superstep-2 NeighborDelta exchange.
//
// A (src, dst) router buffer of NeighborDelta records is highly redundant on
// the wire: the superstep-1 fold emits them in ascending (q, bucket) order —
// each query's records are contiguous with bucket ascending, query ids
// ascend across groups — one per changed (q, bucket), with small counts and
// count changes (neighbor_data.h). The raw struct spends 16 bytes per record
// on fields whose information content is a few bits. The grouped codec
// exploits these regularities:
//
//   stream  := group*
//   group   := varint(q − prev_group_q)  varint(record_count)  record*
//   record  := varint(bucket − prev_bucket_in_group)
//              zigzag(old_count)
//              zigzag(new_count − old_count) (small change ⇒ one byte)
//
// with prev_group_q and prev_bucket_in_group starting at 0. Steady state this
// is ~3 bytes per record vs 16 raw. Encoding requires the fold's grouping
// invariant (q ascending, bucket strictly ascending within a group —
// DCHECKed). The decoder rejects a repeated bucket within a group (a zero
// bucket delta after the group's first record) as malformed; it tolerates
// zero-count groups (skipped, but they still advance the qid chain) and
// full-width 5-byte varints, so hand-built streams round-trip too. The
// codec is lossless: DecodeGroupedDeltas reproduces the
// input records bit-identically, and GroupedWireBytes proves it per buffer in
// Debug builds.
//
// Since the fault-tolerant superstep protocol landed, every remote (src,
// dst) superstep-2 buffer actually flows through this codec: the sender
// encodes its records, wraps them in the self-verifying envelope below, and
// the receiver decodes the wire image — the structs the accumulator replicas
// patch from are the *decoded* ones, so the wire format is load-bearing, not
// accounting-only. The raw 16-byte record size (kRawDeltaBytes) is only a
// comparison figure, which benches and tests derive from record counts.
//
// Envelope grammar (docs/distributed.md "Failure model & recovery"):
//
//   enveloped := varint(epoch) varint(sequence) varint(record_count)
//                varint(payload_bytes) crc32c-u32-LE payload
//
// The CRC32C covers the four header varints plus the payload, so a bit flip
// anywhere in the frame is detected; `payload_bytes` pins the frame length,
// so truncation is detected before the payload is parsed; `epoch` (one per
// refinement iteration) detects stale replays; the per-(src, dst)-link
// monotonic `sequence` detects gaps and duplicates. The varint payload is
// bit-identical to the plain grouped stream — the envelope wraps it, never
// rewrites it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "objective/neighbor_data.h"

namespace shp::wire {

/// Bytes per record of the raw fixed-width delta format — the figure the
/// varint codec's byte reduction is measured against.
inline constexpr size_t kRawDeltaBytes = sizeof(NeighborDelta);

/// Appends the LEB128 varint encoding of `value` (7 bits per byte, high bit
/// = continuation). Exposed so tests can hand-build streams.
void AppendVarint(std::vector<uint8_t>* out, uint64_t value);

/// Appends zigzag(value) as a varint (0, −1, 1, −2, 2 → 0, 1, 2, 3, 4).
void AppendZigZag(std::vector<uint8_t>* out, int64_t value);

/// Encodes `records` — which must satisfy the grouping invariant — into
/// `out` (appended; caller clears). DCHECKs the invariant in Debug.
void EncodeGroupedDeltas(std::span<const NeighborDelta> records,
                         std::vector<uint8_t>* out);

/// Decodes a grouped stream back into records (appended to *out). Returns
/// false — leaving *out in an unspecified state — on malformed input:
/// truncated or oversized varints, ids outside the 31-bit VertexId/BucketId
/// range, negative reconstructed counts, or trailing garbage.
bool DecodeGroupedDeltas(std::span<const uint8_t> bytes,
                         std::vector<NeighborDelta>* out);

/// Wire size of one router buffer under the grouped codec: encodes into a
/// thread-local scratch buffer and returns its length. In Debug builds also
/// decodes the scratch and CHECKs the records round-trip bit-identically —
/// the exact decode-equivalence gate on every simulated exchange.
size_t GroupedWireBytes(std::span<const NeighborDelta> records);

// ------------------------------------------------------------- envelope ---

/// Per-buffer envelope header. `epoch` is the engine's iteration counter;
/// `sequence` is the per-(src, dst)-link monotonic delivery number;
/// `record_count` must equal the number of records the payload decodes to;
/// `payload_bytes` the exact payload length.
struct EnvelopeHeader {
  uint64_t epoch = 0;
  uint64_t sequence = 0;
  uint64_t record_count = 0;
  uint64_t payload_bytes = 0;
};

/// Integrity verdict of one enveloped frame. Epoch/sequence anomalies
/// (stale replay, gap, duplicate) are classified by the *link state* the
/// receiver keeps, not by the frame alone — see BspRefiner's superstep-2
/// transfer loop.
enum class WireVerdict : uint8_t {
  kOk = 0,
  kTruncated,  ///< frame shorter than the header claims (or header cut off)
  kCorrupt,    ///< CRC mismatch, trailing garbage, or undecodable payload
};

const char* WireVerdictName(WireVerdict verdict);

/// Appends the envelope (header varints + CRC32C) followed by `payload` to
/// *out. The payload bytes are appended verbatim — bit-identical to the
/// plain grouped stream. Returns the envelope overhead in bytes (frame size
/// minus payload size). `header.payload_bytes` is taken from
/// `payload.size()`; the caller's value is ignored.
size_t EncodeEnveloped(const EnvelopeHeader& header,
                       std::span<const uint8_t> payload,
                       std::vector<uint8_t>* out);

/// Verifies and decodes one enveloped frame: parses the header, checks the
/// length pin and the CRC32C, decodes the grouped payload (appending to
/// *out), and checks the decoded record count against the header. On any
/// verdict other than kOk, *out may hold partially decoded records and
/// *header whatever fields parsed before the failure. Never crashes, hangs,
/// or allocates unboundedly on arbitrary bytes (fuzz-hardened with
/// DecodeGroupedDeltas).
WireVerdict DecodeEnveloped(std::span<const uint8_t> bytes,
                            EnvelopeHeader* header,
                            std::vector<NeighborDelta>* out);

}  // namespace shp::wire
