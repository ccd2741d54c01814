// Grouped varint wire codec tests: randomized lossless roundtrip over
// fold-shaped record streams, hand-built streams exercising decoder
// tolerances (zero-count groups, wide varints), boundary ids, malformed
// inputs (including a repeated bucket within a group), and the compression
// claim on a realistic steady-state stream.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <vector>

#include "engine/wire_format.h"

namespace shp {
namespace {

using wire::AppendVarint;
using wire::AppendZigZag;
using wire::DecodeEnveloped;
using wire::DecodeGroupedDeltas;
using wire::EncodeEnveloped;
using wire::EncodeGroupedDeltas;
using wire::EnvelopeHeader;
using wire::GroupedWireBytes;
using wire::WireVerdict;

std::vector<NeighborDelta> Roundtrip(
    const std::vector<NeighborDelta>& records) {
  std::vector<uint8_t> bytes;
  EncodeGroupedDeltas(records, &bytes);
  std::vector<NeighborDelta> decoded;
  EXPECT_TRUE(DecodeGroupedDeltas(bytes, &decoded));
  return decoded;
}

TEST(WireFormat, EmptyStream) {
  EXPECT_TRUE(Roundtrip({}).empty());
  EXPECT_EQ(GroupedWireBytes({}), 0u);
}

TEST(WireFormat, SingleRecord) {
  const std::vector<NeighborDelta> records = {{7, 3, 2, 3}};
  EXPECT_EQ(Roundtrip(records), records);
}

TEST(WireFormat, RandomizedRoundtripIsBitIdentical) {
  // Streams shaped like real superstep-2 buffers (the superstep-1 fold's
  // output): strictly ascending query groups, strictly ascending buckets
  // inside a group, arbitrary old counts and new = old ± 1.
  std::mt19937_64 rng(0xc0dec);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<NeighborDelta> records;
    VertexId q = 0;
    const int groups = static_cast<int>(rng() % 20);
    for (int g = 0; g < groups; ++g) {
      q += static_cast<VertexId>(rng() % 1000) + (g > 0 ? 1 : 0);
      BucketId bucket = static_cast<BucketId>(rng() % 64);
      const int recs = 1 + static_cast<int>(rng() % 6);
      for (int r = 0; r < recs; ++r) {
        if (r > 0) bucket += 1 + static_cast<BucketId>(rng() % 64);
        const uint32_t old_count = static_cast<uint32_t>(rng() % 50);
        const uint32_t new_count =
            (old_count == 0 || (rng() % 2 == 0)) ? old_count + 1
                                                 : old_count - 1;
        records.push_back({q, bucket, old_count, new_count});
      }
    }
    EXPECT_EQ(Roundtrip(records), records) << "trial " << trial;
    // GroupedWireBytes must agree with an explicit encode (and, in Debug,
    // internally re-verify the decode).
    std::vector<uint8_t> bytes;
    EncodeGroupedDeltas(records, &bytes);
    EXPECT_EQ(GroupedWireBytes(records), bytes.size());
  }
}

TEST(WireFormat, RejectsRepeatedBucketWithinAGroup) {
  // The fold emits one record per changed (q, bucket), so a zero bucket
  // delta after a group's first record is malformed. The first record's
  // delta may be 0 (bucket 0).
  std::vector<uint8_t> bytes;
  AppendVarint(&bytes, 4);   // q = 4
  AppendVarint(&bytes, 2);   // two records
  AppendVarint(&bytes, 0);   // bucket 0
  AppendZigZag(&bytes, 2);   // old = 2
  AppendZigZag(&bytes, 1);   // new = 3
  AppendVarint(&bytes, 0);   // bucket 0 again
  AppendZigZag(&bytes, 3);
  AppendZigZag(&bytes, 1);
  std::vector<NeighborDelta> decoded;
  EXPECT_FALSE(DecodeGroupedDeltas(bytes, &decoded));

  // The same stream with a distinct second bucket decodes.
  bytes.clear();
  AppendVarint(&bytes, 4);
  AppendVarint(&bytes, 2);
  AppendVarint(&bytes, 0);
  AppendZigZag(&bytes, 2);
  AppendZigZag(&bytes, 1);
  AppendVarint(&bytes, 5);  // bucket 5
  AppendZigZag(&bytes, 3);
  AppendZigZag(&bytes, 1);
  decoded.clear();
  ASSERT_TRUE(DecodeGroupedDeltas(bytes, &decoded));
  const std::vector<NeighborDelta> expected = {{4, 0, 2, 3}, {4, 5, 3, 4}};
  EXPECT_EQ(decoded, expected);
}

TEST(WireFormat, QidDeltaOverflowAndMaxBucket) {
  // Extreme ids: a first-group qid needing a full 5-byte varint, INT32_MAX
  // bucket values, and large counts.
  const std::vector<NeighborDelta> records = {
      {std::numeric_limits<int32_t>::max() - 1, 0, 4000000000u, 4000000001u},
      {std::numeric_limits<int32_t>::max(),
       std::numeric_limits<int32_t>::max(), 0, 1},
  };
  EXPECT_EQ(Roundtrip(records), records);
}

TEST(WireFormat, ZeroCountGroupsAdvanceTheQidChain) {
  // Hand-built stream: group (q=5, 0 records), then group (delta 3 -> q=8,
  // 1 record). The encoder never emits empty groups; the decoder must accept
  // them and keep the qid chain intact.
  std::vector<uint8_t> bytes;
  AppendVarint(&bytes, 5);  // qid delta
  AppendVarint(&bytes, 0);  // zero records
  AppendVarint(&bytes, 3);  // qid delta -> q = 8
  AppendVarint(&bytes, 1);  // one record
  AppendVarint(&bytes, 2);  // bucket delta -> bucket 2
  AppendZigZag(&bytes, 4);  // old = 4 (no chain ref)
  AppendZigZag(&bytes, -1);  // new = 3
  std::vector<NeighborDelta> decoded;
  ASSERT_TRUE(DecodeGroupedDeltas(bytes, &decoded));
  const std::vector<NeighborDelta> expected = {{8, 2, 4, 3}};
  EXPECT_EQ(decoded, expected);
}

TEST(WireFormat, RejectsMalformedInput) {
  std::vector<NeighborDelta> decoded;

  // Truncated mid-varint: a lone continuation byte.
  EXPECT_FALSE(DecodeGroupedDeltas(std::vector<uint8_t>{0x80}, &decoded));

  // Group header promising more records than the stream holds.
  std::vector<uint8_t> bytes;
  AppendVarint(&bytes, 1);
  AppendVarint(&bytes, 2);  // two records announced
  AppendVarint(&bytes, 0);
  AppendZigZag(&bytes, 1);
  AppendZigZag(&bytes, 1);  // ...but only one encoded
  decoded.clear();
  EXPECT_FALSE(DecodeGroupedDeltas(bytes, &decoded));

  // Query id overflowing the 31-bit VertexId range.
  bytes.clear();
  AppendVarint(&bytes, 1ull << 40);
  AppendVarint(&bytes, 0);
  decoded.clear();
  EXPECT_FALSE(DecodeGroupedDeltas(bytes, &decoded));

  // Negative reconstructed old_count.
  bytes.clear();
  AppendVarint(&bytes, 1);
  AppendVarint(&bytes, 1);
  AppendVarint(&bytes, 0);
  AppendZigZag(&bytes, -2);  // old = -2
  AppendZigZag(&bytes, 1);
  decoded.clear();
  EXPECT_FALSE(DecodeGroupedDeltas(bytes, &decoded));

  // Continuation bits running past the 10-byte varint cap.
  bytes.assign(11, 0x80);
  decoded.clear();
  EXPECT_FALSE(DecodeGroupedDeltas(bytes, &decoded));
}

TEST(WireFormat, RejectsGroupCountClaimBeyondStream) {
  // A group header claiming 2^40 records must fail fast on the count-claim
  // guard, not loop or reserve for a count the stream cannot possibly hold.
  std::vector<uint8_t> bytes;
  AppendVarint(&bytes, 1);          // qid delta
  AppendVarint(&bytes, 1ull << 40);  // absurd record count
  std::vector<NeighborDelta> decoded;
  EXPECT_FALSE(DecodeGroupedDeltas(bytes, &decoded));
}

// ------------------------------------------------------------- envelope ---

std::vector<NeighborDelta> SampleRecords() {
  return {{3, 0, 0, 1}, {3, 2, 4, 3}, {9, 1, 1, 2}, {9, 4, 2, 3}};
}

std::vector<uint8_t> EncodeFrame(const std::vector<NeighborDelta>& records,
                                 uint64_t epoch, uint64_t seq,
                                 size_t* overhead = nullptr) {
  std::vector<uint8_t> payload;
  EncodeGroupedDeltas(records, &payload);
  EnvelopeHeader header;
  header.epoch = epoch;
  header.sequence = seq;
  header.record_count = records.size();
  std::vector<uint8_t> frame;
  const size_t oh = EncodeEnveloped(header, payload, &frame);
  if (overhead != nullptr) *overhead = oh;
  return frame;
}

TEST(Envelope, RoundTripPreservesHeaderAndPayload) {
  const auto records = SampleRecords();
  size_t overhead = 0;
  const auto frame = EncodeFrame(records, /*epoch=*/42, /*seq=*/7, &overhead);
  EXPECT_EQ(overhead + GroupedWireBytes(records), frame.size());

  EnvelopeHeader got;
  std::vector<NeighborDelta> decoded;
  ASSERT_EQ(DecodeEnveloped(frame, &got, &decoded), WireVerdict::kOk);
  EXPECT_EQ(got.epoch, 42u);
  EXPECT_EQ(got.sequence, 7u);
  EXPECT_EQ(got.record_count, records.size());
  EXPECT_EQ(decoded, records);
}

TEST(Envelope, EmptyPayloadRoundTrips) {
  // Links with nothing to say still send a frame (the gapless sequence chain
  // is what makes drops detectable); the empty frame must verify.
  const auto frame = EncodeFrame({}, 3, 12);
  EnvelopeHeader got;
  std::vector<NeighborDelta> decoded;
  ASSERT_EQ(DecodeEnveloped(frame, &got, &decoded), WireVerdict::kOk);
  EXPECT_TRUE(decoded.empty());
  EXPECT_EQ(got.sequence, 12u);
}

TEST(Envelope, DetectsEverySingleBitFlip) {
  // CRC32C detects all single-bit errors: flip each bit of the frame in turn
  // and require a non-kOk verdict every time.
  const auto frame = EncodeFrame(SampleRecords(), 5, 1);
  for (size_t bit = 0; bit < frame.size() * 8; ++bit) {
    std::vector<uint8_t> mutated = frame;
    mutated[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    EnvelopeHeader got;
    std::vector<NeighborDelta> decoded;
    EXPECT_NE(DecodeEnveloped(mutated, &got, &decoded), WireVerdict::kOk)
        << "bit " << bit << " flip went undetected";
  }
}

TEST(Envelope, DetectsEveryTruncationPoint) {
  const auto frame = EncodeFrame(SampleRecords(), 5, 1);
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    const std::span<const uint8_t> prefix(frame.data(), cut);
    EnvelopeHeader got;
    std::vector<NeighborDelta> decoded;
    EXPECT_NE(DecodeEnveloped(prefix, &got, &decoded), WireVerdict::kOk)
        << "prefix of " << cut << " bytes accepted";
  }
}

TEST(Envelope, DetectsTrailingGarbage) {
  auto frame = EncodeFrame(SampleRecords(), 5, 1);
  frame.push_back(0x00);
  EnvelopeHeader got;
  std::vector<NeighborDelta> decoded;
  EXPECT_EQ(DecodeEnveloped(frame, &got, &decoded), WireVerdict::kCorrupt);
}

TEST(Envelope, DetectsRecordCountMismatch) {
  // A frame whose header record_count disagrees with the payload, CRC intact
  // (the attacker recomputed it): the decode-count cross-check must catch it.
  const auto records = SampleRecords();
  std::vector<uint8_t> payload;
  EncodeGroupedDeltas(records, &payload);
  EnvelopeHeader header;
  header.epoch = 1;
  header.sequence = 1;
  header.record_count = records.size() + 1;  // lie
  std::vector<uint8_t> frame;
  EncodeEnveloped(header, payload, &frame);
  EnvelopeHeader got;
  std::vector<NeighborDelta> decoded;
  EXPECT_EQ(DecodeEnveloped(frame, &got, &decoded), WireVerdict::kCorrupt);
}

TEST(Envelope, FuzzArbitraryBytesNeverCrash) {
  // Seeded randomized fuzz: feed arbitrary byte blobs to both decoders. The
  // contract is "never crash, hang, or allocate unboundedly" — any verdict
  // is fine, surviving is the assertion.
  std::mt19937_64 rng(0xf0221);
  for (int trial = 0; trial < 3000; ++trial) {
    const size_t size = rng() % 128;
    std::vector<uint8_t> bytes(size);
    for (auto& b : bytes) b = static_cast<uint8_t>(rng());
    EnvelopeHeader header;
    std::vector<NeighborDelta> decoded;
    (void)DecodeEnveloped(bytes, &header, &decoded);
    decoded.clear();
    (void)DecodeGroupedDeltas(bytes, &decoded);
  }
}

TEST(Envelope, FuzzMutatedValidFramesNeverCrash) {
  // Second fuzz family: start from a valid frame and apply random slices and
  // byte smashes — closer to what a faulty link actually produces.
  std::mt19937_64 rng(0xbadf00d);
  const auto base = EncodeFrame(SampleRecords(), 9, 4);
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<uint8_t> frame = base;
    const int mutations = 1 + static_cast<int>(rng() % 4);
    for (int m = 0; m < mutations; ++m) {
      if (frame.empty()) break;
      switch (rng() % 3) {
        case 0:  // truncate
          frame.resize(rng() % (frame.size() + 1));
          break;
        case 1:  // smash a byte
          frame[rng() % frame.size()] = static_cast<uint8_t>(rng());
          break;
        default:  // duplicate a tail slice (grows the frame)
          frame.insert(frame.end(), frame.begin() + frame.size() / 2,
                       frame.end());
          break;
      }
    }
    EnvelopeHeader header;
    std::vector<NeighborDelta> decoded;
    (void)DecodeEnveloped(frame, &header, &decoded);
  }
}

TEST(WireFormat, SteadyStateStreamBeatsRawFormat) {
  // A realistic steady-state buffer: a few hundred queries, each with a
  // handful of ±1 transitions on nearby buckets. The codec should land near
  // 3 bytes/record — far below the 25% reduction the acceptance criterion
  // demands against 16-byte raw records.
  std::mt19937_64 rng(99);
  std::vector<NeighborDelta> records;
  VertexId q = 0;
  for (int g = 0; g < 300; ++g) {
    q += 1 + static_cast<VertexId>(rng() % 40);
    BucketId bucket = static_cast<BucketId>(rng() % 8);
    const int recs = 1 + static_cast<int>(rng() % 3);
    for (int r = 0; r < recs; ++r) {
      const uint32_t old_count = static_cast<uint32_t>(rng() % 6);
      records.push_back({q, bucket, old_count, old_count + 1});
      bucket += 1 + static_cast<BucketId>(rng() % 4);
    }
  }
  const size_t grouped = GroupedWireBytes(records);
  const size_t raw = records.size() * wire::kRawDeltaBytes;
  EXPECT_LT(grouped, raw - raw / 4)
      << "grouped " << grouped << " bytes vs raw " << raw;
}

}  // namespace
}  // namespace shp
