#include "src/sim/snapshot.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <map>
#include <string>
#include <vector>

namespace nova::sim {
namespace {

TEST(SnapWriterReader, AllTypesRoundTrip) {
  SnapWriter w;
  w.U8(0xab);
  w.U16(0xbeef);
  w.U32(0xdeadbeef);
  w.U64(0x0123456789abcdefull);
  w.I64(-42);
  w.Bool(true);
  w.F64(3.25);
  w.Str("hello");
  const std::uint8_t blob[3] = {1, 2, 3};
  w.Bytes(blob, sizeof(blob));

  SnapReader r(w.data().data(), w.size());
  EXPECT_EQ(r.U8(), 0xab);
  EXPECT_EQ(r.U16(), 0xbeef);
  EXPECT_EQ(r.U32(), 0xdeadbeefu);
  EXPECT_EQ(r.U64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.I64(), -42);
  EXPECT_TRUE(r.Bool());
  EXPECT_EQ(r.F64(), 3.25);
  EXPECT_EQ(r.Str(), "hello");
  std::uint8_t out[3] = {};
  r.Bytes(out, sizeof(out));
  EXPECT_EQ(out[2], 3);
  EXPECT_EQ(r.Finish(), Status::kSuccess);
}

TEST(SnapReader, TruncationLatchesAndZeroes) {
  SnapWriter w;
  w.U32(7);
  SnapReader r(w.data().data(), w.size());
  EXPECT_EQ(r.U32(), 7u);
  EXPECT_EQ(r.U64(), 0u);  // Past the end: zero, latched.
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.U32(), 0u);  // Still zero after the latch.
  EXPECT_EQ(r.Finish(), Status::kBadParameter);
}

TEST(SnapReader, PartialConsumptionFailsFinish) {
  SnapWriter w;
  w.U32(1);
  w.U32(2);
  SnapReader r(w.data().data(), w.size());
  EXPECT_EQ(r.U32(), 1u);
  EXPECT_TRUE(r.ok());  // No error yet...
  EXPECT_EQ(r.Finish(), Status::kBadParameter);  // ...but bytes remain.
}

TEST(Snapshot, EncodeDecodeRoundTrip) {
  Snapshot snap;
  snap.Section("b.second", 2).U64(99);
  SnapWriter& a = snap.Section("a.first", 1);
  a.U32(7);
  a.Str("state");

  Snapshot decoded;
  ASSERT_EQ(decoded.Decode(snap.Encode()), Status::kSuccess);
  ASSERT_TRUE(decoded.Has("a.first"));
  ASSERT_TRUE(decoded.Has("b.second"));
  EXPECT_EQ(decoded.SectionVersion("b.second"), 2);

  SnapReader r = decoded.Open("a.first", 1);
  EXPECT_EQ(r.U32(), 7u);
  EXPECT_EQ(r.Str(), "state");
  EXPECT_EQ(r.Finish(), Status::kSuccess);
}

TEST(Snapshot, EncodeIsDeterministic) {
  const auto build = [] {
    Snapshot snap;
    snap.Section("z", 1).U64(1);
    snap.Section("a", 1).U64(2);
    return snap.Encode();
  };
  EXPECT_EQ(build(), build());
}

TEST(Snapshot, MissingSectionYieldsFailedReader) {
  Snapshot snap;
  SnapReader r = snap.Open("nope", 1);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.U64(), 0u);
  EXPECT_EQ(r.Finish(), Status::kBadParameter);
}

TEST(Snapshot, VersionSkewYieldsFailedReader) {
  Snapshot snap;
  snap.Section("dev", 3).U64(1);
  SnapReader ok = snap.Open("dev", 3);
  EXPECT_TRUE(ok.ok());
  SnapReader skew = snap.Open("dev", 2);
  EXPECT_FALSE(skew.ok());
}

TEST(Snapshot, CorruptionDetectedOnDecode) {
  Snapshot snap;
  snap.Section("dev", 1).U64(0x1122334455667788ull);
  std::vector<std::uint8_t> bytes = snap.Encode();
  bytes.back() ^= 0xff;  // Flip payload: checksum must catch it.
  Snapshot decoded;
  EXPECT_NE(decoded.Decode(bytes), Status::kSuccess);
}

TEST(Snapshot, BadMagicRejected) {
  Snapshot snap;
  snap.Section("dev", 1).U64(1);
  std::vector<std::uint8_t> bytes = snap.Encode();
  bytes[0] ^= 0xff;
  Snapshot decoded;
  EXPECT_NE(decoded.Decode(bytes), Status::kSuccess);
}

// A stream that names one section twice has no Encode that wrote it:
// Decode refuses it rather than joining the two payloads.
TEST(Snapshot, DecodeRejectsRepeatedSection) {
  Snapshot snap;
  snap.Section("dev", 1).U64(0x1122334455667788ull);
  std::vector<std::uint8_t> bytes = snap.Encode();
  constexpr std::size_t kHeader = sizeof Snapshot::kMagic + 4 + 4;
  constexpr std::size_t kCountAt = kHeader - 4;
  ASSERT_EQ(std::vector<std::uint8_t>(bytes.begin() + kCountAt,
                                      bytes.begin() + kHeader),
            (std::vector<std::uint8_t>{1, 0, 0, 0}));
  const std::vector<std::uint8_t> record(bytes.begin() + kHeader, bytes.end());
  bytes.insert(bytes.end(), record.begin(), record.end());
  bytes[kCountAt] = 2;
  Snapshot decoded;
  EXPECT_EQ(decoded.Decode(bytes), Status::kBadParameter);

  bytes.resize(bytes.size() - record.size());
  bytes[kCountAt] = 1;
  ASSERT_EQ(decoded.Decode(bytes), Status::kSuccess);
  EXPECT_EQ(decoded.Encode(), snap.Encode());
}

// Records in another order than Encode writes them, each intact, are a
// second encoding of the same snapshot: Decode refuses them too.
TEST(Snapshot, DecodeRejectsSectionsOutOfNameOrder) {
  Snapshot snap;
  snap.Section("a", 1).U64(1);
  snap.Section("b", 1).U32(2);
  std::vector<std::uint8_t> bytes = snap.Encode();
  constexpr std::size_t kHeader = sizeof Snapshot::kMagic + 4 + 4;
  // Record a: 4 + 1 name, 2 version, 8 length, 8 checksum, 8 payload.
  constexpr std::size_t kRecordA = 4 + 1 + 2 + 8 + 8 + 8;
  std::vector<std::uint8_t> swapped(bytes.begin(), bytes.begin() + kHeader);
  swapped.insert(swapped.end(), bytes.begin() + kHeader + kRecordA,
                 bytes.end());
  swapped.insert(swapped.end(), bytes.begin() + kHeader,
                 bytes.begin() + kHeader + kRecordA);
  ASSERT_EQ(swapped.size(), bytes.size());
  Snapshot decoded;
  EXPECT_EQ(decoded.Decode(swapped), Status::kBadParameter);
  ASSERT_EQ(decoded.Decode(bytes), Status::kSuccess);
  EXPECT_EQ(decoded.Encode(), bytes);
}

// A failed Decode keeps none of the sections before the one that failed,
// and none of what the snapshot held before the call.
TEST(Snapshot, FailedDecodeLeavesNoSections) {
  Snapshot snap;
  snap.Section("a", 1).U64(1);
  snap.Section("b", 1).U64(2);
  snap.Section("c", 1).U64(3);
  std::vector<std::uint8_t> bytes = snap.Encode();
  Snapshot decoded;
  ASSERT_EQ(decoded.Decode(bytes), Status::kSuccess);
  ASSERT_EQ(decoded.SectionNames().size(), 3u);
  bytes.back() ^= 1;  // The last section's payload.
  EXPECT_EQ(decoded.Decode(bytes), Status::kBadParameter);
  EXPECT_TRUE(decoded.SectionNames().empty());
  EXPECT_EQ(decoded.PayloadBytes(), 0u);
}

// The section checksum changes whenever one byte of a record does, so
// every single-byte change of an encoded snapshot fails to decode: in the
// container header by its own checks, in a record by the checksum. The
// payload lengths put a section below one 32-byte block, between and
// across blocks.
TEST(Snapshot, EverySingleByteChangeIsRejected) {
  Snapshot snap;
  snap.Section("empty", 1);
  SnapWriter& seven = snap.Section("seven", 3);
  for (std::uint8_t b = 1; b <= 7; ++b) {
    seven.U8(b);
  }
  SnapWriter& hundred = snap.Section("x.hundred", 2);
  for (std::uint8_t b = 0; b < 100; ++b) {
    hundred.U8(static_cast<std::uint8_t>(b * 37));
  }
  const std::vector<std::uint8_t> bytes = snap.Encode();
  Snapshot decoded;
  ASSERT_EQ(decoded.Decode(bytes), Status::kSuccess);
  int accepted = 0;
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    std::vector<std::uint8_t> mutated = bytes;
    for (int flip = 1; flip < 256; ++flip) {
      mutated[at] = static_cast<std::uint8_t>(bytes[at] ^ flip);
      if (Ok(decoded.Decode(mutated))) {
        ++accepted;
        ADD_FAILURE() << "byte " << at << " ^ " << flip << " decoded";
      }
    }
  }
  EXPECT_EQ(accepted, 0);
}

// Every payload length from 0 to 70 (each tail length, none to two whole
// blocks) behind names of 1 to 8 bytes (each word alignment of the payload
// in the stream) round-trips.
TEST(Snapshot, EveryLengthAndAlignmentRoundTrips) {
  for (std::size_t name_len = 1; name_len <= 8; ++name_len) {
    for (std::size_t len = 0; len <= 70; ++len) {
      Snapshot snap;
      SnapWriter& w = snap.Section(std::string(name_len, 'n'), 1);
      for (std::size_t i = 0; i < len; ++i) {
        w.U8(static_cast<std::uint8_t>(i * 131 + name_len));
      }
      const std::vector<std::uint8_t> bytes = snap.Encode();
      Snapshot decoded;
      ASSERT_EQ(decoded.Decode(bytes), Status::kSuccess)
          << "name " << name_len << " payload " << len;
      EXPECT_EQ(decoded.Encode(), bytes);
      EXPECT_EQ(decoded.PayloadBytes(), len);
    }
  }
}

// Version 1 streams carried byte-serial FNV-1a in the checksum field; this
// decoder reads only its own version.
TEST(Snapshot, OtherFileVersionIsAnUnknownFeature) {
  Snapshot snap;
  snap.Section("dev", 1).U64(1);
  std::vector<std::uint8_t> bytes = snap.Encode();
  constexpr std::size_t kVersionAt = sizeof Snapshot::kMagic;
  ASSERT_EQ(bytes[kVersionAt], static_cast<std::uint8_t>(Snapshot::kFileVersion));
  bytes[kVersionAt] = 1;
  Snapshot decoded;
  EXPECT_EQ(decoded.Decode(bytes), Status::kBadFeature);
  EXPECT_TRUE(decoded.SectionNames().empty());
}

TEST(Snapshot, PayloadBytesSumsSections) {
  Snapshot snap;
  snap.Section("a", 1).U64(1);  // 8 bytes.
  snap.Section("b", 1).U32(1);  // 4 bytes.
  EXPECT_EQ(snap.PayloadBytes(), 12u);
}

TEST(Snapshot, SectionReplaceDropsOldContent) {
  Snapshot snap;
  snap.Section("a", 1).U64(1);
  snap.Section("a", 1).U32(7);  // Restart the section.
  SnapReader r = snap.Open("a", 1);
  EXPECT_EQ(r.U32(), 7u);
  EXPECT_EQ(r.Finish(), Status::kSuccess);
}

// One field list serves both directions; the archive tests below run a
// small class through it.
struct Sample {
  std::uint32_t id = 0;
  bool flag = false;
  std::string name;
  std::vector<std::uint16_t> values;
  std::map<std::uint64_t, std::uint8_t> table;
  template <class Ar>
  void Io(Ar& ar) {
    ar.Verify(std::uint32_t{0x5a});
    ar.Io(id, flag, name);
    ar.Seq(kCount16, values);
    ar.Keyed(kCount32, table);
  }
};

TEST(SnapArchive, IoRoundTripsAndWritesFixedWidths) {
  Sample a{7, true, "xy", {1, 2, 3}, {{9, 4}, {2, 5}}};
  SnapWriter w;
  ASSERT_EQ(w.Save(a), Status::kSuccess);
  // 4 (verify) + 4 + 1 + (4 + 2) + (2 + 3 * 2) + (4 + 2 * (8 + 1)).
  EXPECT_EQ(w.size(), 4u + 4 + 1 + 6 + 8 + 22);

  Sample b;
  SnapReader r(w.data().data(), w.size());
  ASSERT_EQ(r.Restore(b), Status::kSuccess);
  EXPECT_EQ(r.Finish(), Status::kSuccess);
  EXPECT_EQ(b.id, 7u);
  EXPECT_TRUE(b.flag);
  EXPECT_EQ(b.name, "xy");
  EXPECT_EQ(b.values, (std::vector<std::uint16_t>{1, 2, 3}));
  EXPECT_EQ(b.table, a.table);
}

// One map has one encoding: a duplicate key would be merged into fewer
// entries than the count claims, and any other order is not what a save
// writes, so loading refuses both.
TEST(SnapArchive, KeyedRejectsKeysThatDoNotStrictlyAscend) {
  const auto load = [](std::initializer_list<std::uint64_t> keys) {
    SnapWriter w;
    w.U32(static_cast<std::uint32_t>(keys.size()));
    for (const std::uint64_t key : keys) {
      w.U64(key);
      w.U8(7);
    }
    std::map<std::uint64_t, std::uint8_t> m;
    SnapReader r(w.data().data(), w.size());
    r.Keyed(kCount32, m);
    return r.Finish();
  };
  EXPECT_EQ(load({10, 20, 30}), Status::kSuccess);
  EXPECT_EQ(load({10, 10}), Status::kBadParameter);
  EXPECT_EQ(load({20, 10}), Status::kBadParameter);
}

TEST(SnapArchive, VerifyMismatchFailsLoad) {
  SnapWriter w;
  w.U32(0x5b);  // Not the invariant Sample verifies.
  Sample s;
  SnapReader r(w.data().data(), w.size());
  EXPECT_EQ(r.Restore(s), Status::kBadParameter);
}

TEST(SnapArchive, CountBeyondSectionFailsBeforeAllocating) {
  SnapWriter w;
  w.U16(1000);  // Claims 1000 elements...
  w.U16(1);     // ...but carries one.
  std::vector<std::uint16_t> v;
  SnapReader r(w.data().data(), w.size());
  r.Seq(kCount16, v);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(v.empty());
}

TEST(SnapArchive, FailLatchesTheFirstStatus) {
  SnapWriter w;
  w.Fail(Status::kBadCapability);
  w.Fail(Status::kNoMem);
  EXPECT_EQ(w.status(), Status::kBadCapability);
  SnapReader r(w.data().data(), w.size());
  r.Fail(Status::kAbort);
  EXPECT_EQ(r.Finish(), Status::kAbort);
}

}  // namespace
}  // namespace nova::sim
