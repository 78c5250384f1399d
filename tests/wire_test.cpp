// serve/wire.h codec tests: encode→decode identity for randomized (seeded)
// request/response frames over synthetic samples of both graph kinds, torn
// delivery at every chunk size down to one byte, version forward-compat
// (unknown minor decodes, unknown major rejects cleanly), every decoder
// poison path (garbage magic, bad frame type, oversized length prefix,
// short bodies, and the error latch itself), and a seeded mutation fuzz of
// whole request streams through the decoder and the sample payload parser.
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dataset/serialize.h"
#include "gnn/feature_encoder.h"
#include "serve/wire.h"
#include "support/rng.h"

namespace gnnhls {
namespace {

std::vector<Sample> tiny_dataset(GraphKind kind, int n, std::uint64_t seed) {
  SyntheticDatasetConfig cfg;
  cfg.kind = kind;
  cfg.num_graphs = n;
  cfg.seed = seed;
  cfg.progen.min_ops = 6;
  cfg.progen.max_ops = 20;
  return build_synthetic_dataset(cfg);
}

// Raw little-endian header builder for hostile-input tests (mirrors the
// layout in wire.h without going through the encoder under test).
void put_u32_raw(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
  out.push_back(static_cast<char>((v >> 16) & 0xFF));
  out.push_back(static_cast<char>((v >> 24) & 0xFF));
}

std::string raw_header(std::uint32_t magic, std::uint8_t major,
                       std::uint8_t minor, std::uint8_t type,
                       std::uint32_t body_len) {
  std::string out;
  put_u32_raw(out, magic);
  out.push_back(static_cast<char>(major));
  out.push_back(static_cast<char>(minor));
  out.push_back(static_cast<char>(type));
  out.push_back('\0');
  put_u32_raw(out, body_len);
  return out;
}

/// Feeds `bytes` in chunks of `chunk` and decodes exactly one frame.
WireStatus decode_chunked(const std::string& bytes, std::size_t chunk,
                          DecodedFrame& out,
                          std::size_t max_body = kWireDefaultMaxBody) {
  WireDecoder dec(max_body);
  WireStatus st = WireStatus::kNeedMore;
  for (std::size_t off = 0; off < bytes.size(); off += chunk) {
    const std::size_t n = std::min(chunk, bytes.size() - off);
    dec.feed(bytes.data() + off, n);
    st = dec.next(out);
    if (st != WireStatus::kNeedMore) return st;
  }
  return st;
}

// ----- round-trip identity -----

TEST(WireRoundTripTest, RandomizedRequestsBothGraphKinds) {
  Rng rng(20260808);
  for (const GraphKind kind : {GraphKind::kDfg, GraphKind::kCdfg}) {
    const auto samples = tiny_dataset(kind, 4, 91 + static_cast<int>(kind));
    for (const Sample& s : samples) {
      RequestFrame req;
      req.request_id = rng.fork_seed();
      req.model = static_cast<std::uint32_t>(rng.uniform_int(0, 7));
      req.priority = rng.uniform_int(-1000, 1000);
      req.deadline_us = rng.bernoulli(0.3)
                            ? 0
                            : static_cast<std::int64_t>(
                                  rng.uniform_int(-100, 1'000'000));
      req.payload = encode_sample_payload(s);

      const std::string bytes = encode_request_frame(req);
      DecodedFrame got;
      ASSERT_EQ(decode_chunked(bytes, bytes.size(), got), WireStatus::kFrame);
      EXPECT_EQ(got.type, kWireTypeRequest);
      EXPECT_EQ(got.version_minor, kWireMinor);
      EXPECT_EQ(got.request.request_id, req.request_id);
      EXPECT_EQ(got.request.model, req.model);
      EXPECT_EQ(got.request.priority, req.priority);
      EXPECT_EQ(got.request.deadline_us, req.deadline_us);
      EXPECT_EQ(got.request.payload, req.payload);

      // The payload itself round-trips to a bit-identical re-encoding (the
      // decoded sample carries bitwise-equal tensors, so text re-encode is
      // a fixpoint).
      const DecodedSample decoded = decode_sample_payload(got.request.payload);
      ASSERT_TRUE(decoded.ok()) << decoded.message;
      EXPECT_EQ(encode_sample_payload(*decoded.sample), req.payload);
      EXPECT_EQ(decoded.sample->tensors.src, s.tensors.src);
      EXPECT_EQ(decoded.sample->tensors.relation_edges,
                s.tensors.relation_edges);
    }
  }
}

TEST(WireRoundTripTest, ResponsesPreserveDoubleBitPatterns) {
  // The prediction field must survive bit-exactly, including values
  // EXPECT_EQ cannot compare (NaN) — compare representations.
  const double specials[] = {0.0,
                             -0.0,
                             1.0 / 3.0,
                             -1e308,
                             5e-324,  // smallest denormal
                             std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()};
  std::uint64_t id = 1;
  for (const double value : specials) {
    for (const WireResult result :
         {WireResult::kOk, WireResult::kExpired, WireResult::kOverCapacity,
          WireResult::kShutdown, WireResult::kOverConnectionLimit,
          WireResult::kBadPayload, WireResult::kBadModel,
          WireResult::kInternalError}) {
      ResponseFrame resp;
      resp.request_id = id++;
      resp.result = result;
      resp.prediction = value;
      const std::string bytes = encode_response_frame(resp);
      EXPECT_EQ(bytes.size(), kWireHeaderBytes + kWireResponseBodyBytes);
      DecodedFrame got;
      ASSERT_EQ(decode_chunked(bytes, bytes.size(), got), WireStatus::kFrame);
      EXPECT_EQ(got.type, kWireTypeResponse);
      EXPECT_EQ(got.response.request_id, resp.request_id);
      EXPECT_EQ(got.response.result, result);
      std::uint64_t want_bits = 0, got_bits = 0;
      std::memcpy(&want_bits, &value, sizeof(want_bits));
      std::memcpy(&got_bits, &got.response.prediction, sizeof(got_bits));
      EXPECT_EQ(got_bits, want_bits);
    }
  }
}

TEST(WireRoundTripTest, TornDeliveryEveryChunkSize) {
  const auto samples = tiny_dataset(GraphKind::kDfg, 1, 7);
  RequestFrame req;
  req.request_id = 0xDEADBEEFCAFEF00DULL;
  req.priority = -3;
  req.deadline_us = 12'345;
  req.payload = encode_sample_payload(samples[0]);
  const std::string bytes = encode_request_frame(req);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{2},
                                  std::size_t{7}, std::size_t{64},
                                  bytes.size() - 1, bytes.size()}) {
    DecodedFrame got;
    ASSERT_EQ(decode_chunked(bytes, chunk, got), WireStatus::kFrame)
        << "chunk=" << chunk;
    EXPECT_EQ(got.request.request_id, req.request_id);
    EXPECT_EQ(got.request.payload, req.payload);
  }
}

TEST(WireRoundTripTest, BackToBackFramesDecodeInOrder) {
  std::string bytes;
  for (std::uint64_t i = 0; i < 5; ++i) {
    ResponseFrame r;
    r.request_id = 100 + i;
    r.result = WireResult::kOk;
    r.prediction = static_cast<double>(i) * 1.5;
    append_response_frame(bytes, r);
  }
  WireDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  for (std::uint64_t i = 0; i < 5; ++i) {
    DecodedFrame got;
    ASSERT_EQ(dec.next(got), WireStatus::kFrame);
    EXPECT_EQ(got.response.request_id, 100 + i);
  }
  DecodedFrame extra;
  EXPECT_EQ(dec.next(extra), WireStatus::kNeedMore);
  EXPECT_EQ(dec.buffered(), 0U);
}

// ----- version handling -----

TEST(WireVersionTest, UnknownMinorStillDecodes) {
  // A future minor revision may use the reserved byte; a current decoder
  // must still parse the frame and report the minor it saw.
  ResponseFrame resp;
  resp.request_id = 42;
  resp.result = WireResult::kOk;
  resp.prediction = 2.5;
  std::string bytes = encode_response_frame(resp);
  bytes[5] = static_cast<char>(kWireMinor + 3);  // minor version byte
  bytes[7] = static_cast<char>(0xAA);            // reserved byte in use
  WireDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  DecodedFrame got;
  ASSERT_EQ(dec.next(got), WireStatus::kFrame);
  EXPECT_EQ(got.version_minor, kWireMinor + 3);
  EXPECT_EQ(got.response.request_id, 42U);
  EXPECT_EQ(got.response.prediction, 2.5);
}

TEST(WireVersionTest, UnknownMajorRejectsCleanly) {
  ResponseFrame resp;
  resp.request_id = 42;
  std::string bytes = encode_response_frame(resp);
  bytes[4] = static_cast<char>(kWireMajor + 1);  // major version byte
  WireDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  DecodedFrame got;
  EXPECT_EQ(dec.next(got), WireStatus::kUnsupportedMajor);
  // Latched: the stream is dead even if valid bytes arrive later.
  const std::string good = encode_response_frame(ResponseFrame{});
  dec.feed(good.data(), good.size());
  EXPECT_EQ(dec.next(got), WireStatus::kUnsupportedMajor);
}

// ----- poison paths -----

TEST(WirePoisonTest, GarbageMagicRejects) {
  const std::string bytes = raw_header(0x0BADF00D, kWireMajor, kWireMinor,
                                       kWireTypeRequest, 0) +
                            std::string(64, 'x');
  WireDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  DecodedFrame got;
  EXPECT_EQ(dec.next(got), WireStatus::kBadMagic);
  EXPECT_EQ(dec.next(got), WireStatus::kBadMagic);  // latched
}

TEST(WirePoisonTest, UnknownFrameTypeRejects) {
  const std::string bytes =
      raw_header(kWireMagic, kWireMajor, kWireMinor, /*type=*/9, 0);
  WireDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  DecodedFrame got;
  EXPECT_EQ(dec.next(got), WireStatus::kBadType);
}

TEST(WirePoisonTest, OversizedLengthPrefixRejectsBeforeBody) {
  // The length prefix alone must trigger the reject — no body bytes ever
  // arrive (a hostile peer advertising 4 GiB must not cause an allocation).
  const std::string bytes = raw_header(kWireMagic, kWireMajor, kWireMinor,
                                       kWireTypeRequest, 0xFFFFFFF0u);
  WireDecoder dec(/*max_body_bytes=*/1024);
  dec.feed(bytes.data(), bytes.size());
  DecodedFrame got;
  EXPECT_EQ(dec.next(got), WireStatus::kOversized);
}

TEST(WirePoisonTest, ShortRequestBodyRejects) {
  // body_len below the fixed request fields can never be a valid request.
  std::string bytes = raw_header(kWireMagic, kWireMajor, kWireMinor,
                                 kWireTypeRequest,
                                 static_cast<std::uint32_t>(
                                     kWireRequestFixedBytes - 1));
  bytes += std::string(kWireRequestFixedBytes - 1, '\0');
  WireDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  DecodedFrame got;
  EXPECT_EQ(dec.next(got), WireStatus::kBadBody);
}

TEST(WirePoisonTest, ShortOrCorruptResponseBodyRejects) {
  std::string shorty = raw_header(kWireMagic, kWireMajor, kWireMinor,
                                  kWireTypeResponse, 8);
  shorty += std::string(8, '\0');
  WireDecoder dec;
  dec.feed(shorty.data(), shorty.size());
  DecodedFrame got;
  EXPECT_EQ(dec.next(got), WireStatus::kBadBody);

  // Right length, out-of-range result code.
  ResponseFrame resp;
  resp.request_id = 7;
  std::string bytes = encode_response_frame(resp);
  bytes[kWireHeaderBytes + 8] = static_cast<char>(0x7F);  // result code byte
  WireDecoder dec2;
  dec2.feed(bytes.data(), bytes.size());
  EXPECT_EQ(dec2.next(got), WireStatus::kBadBody);
}

TEST(WirePoisonTest, TruncationIsNeedMoreNotError) {
  // A partial frame is NOT an error — more bytes may come. (The endpoint
  // turns "stream ended while kNeedMore" into a plain close, not a decode
  // error; the decoder itself must never poison on truncation.)
  const auto samples = tiny_dataset(GraphKind::kDfg, 1, 3);
  RequestFrame req;
  req.request_id = 9;
  req.payload = encode_sample_payload(samples[0]);
  const std::string bytes = encode_request_frame(req);
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{1}, kWireHeaderBytes - 1,
        kWireHeaderBytes, kWireHeaderBytes + 5, bytes.size() - 1}) {
    WireDecoder dec;
    dec.feed(bytes.data(), cut);
    DecodedFrame got;
    EXPECT_EQ(dec.next(got), WireStatus::kNeedMore) << "cut=" << cut;
    // Completing the stream afterwards recovers the frame.
    dec.feed(bytes.data() + cut, bytes.size() - cut);
    EXPECT_EQ(dec.next(got), WireStatus::kFrame) << "cut=" << cut;
    EXPECT_EQ(got.request.request_id, 9U);
  }
}

TEST(WirePoisonTest, NamesCoverAllCodes) {
  EXPECT_EQ(wire_status_name(WireStatus::kFrame), "frame");
  EXPECT_EQ(wire_status_name(WireStatus::kOversized), "oversized");
  EXPECT_EQ(wire_result_name(WireResult::kOk), "ok");
  EXPECT_EQ(wire_result_name(WireResult::kOverConnectionLimit),
            "over-connection-limit");
  EXPECT_EQ(wire_result_from_admit(AdmitStatus::kAccepted), WireResult::kOk);
  EXPECT_EQ(wire_result_from_admit(AdmitStatus::kExpired),
            WireResult::kExpired);
  EXPECT_EQ(wire_result_from_admit(AdmitStatus::kOverCapacity),
            WireResult::kOverCapacity);
  EXPECT_EQ(wire_result_from_admit(AdmitStatus::kShutdown),
            WireResult::kShutdown);
}

// ----- seeded mutation fuzz -----

/// One mutation of a wire byte stream. Positions and values come from
/// `rng`, so a (seed, mutant index) pair replays exactly.
void mutate(std::string& bytes, Rng& rng) {
  if (bytes.empty()) {
    bytes.push_back(static_cast<char>(rng.uniform_int(0, 255)));
    return;
  }
  const int last = static_cast<int>(bytes.size()) - 1;
  switch (rng.uniform_int(0, 5)) {
    case 0: {  // flip one bit
      const std::size_t at = static_cast<std::size_t>(rng.uniform_int(0, last));
      bytes[at] = static_cast<char>(bytes[at] ^ (1 << rng.uniform_int(0, 7)));
      break;
    }
    case 1: {  // overwrite one byte
      const std::size_t at = static_cast<std::size_t>(rng.uniform_int(0, last));
      bytes[at] = static_cast<char>(rng.uniform_int(0, 255));
      break;
    }
    case 2: {  // retype one digit: keeps the payload text parseable deeper
      for (int tries = 0; tries < 16; ++tries) {
        const std::size_t at =
            static_cast<std::size_t>(rng.uniform_int(0, last));
        if (bytes[at] >= '0' && bytes[at] <= '9') {
          bytes[at] = static_cast<char>('0' + rng.uniform_int(0, 9));
          break;
        }
      }
      break;
    }
    case 3:  // truncate
      bytes.resize(static_cast<std::size_t>(rng.uniform_int(0, last)));
      break;
    case 4: {  // insert a short run of random bytes
      const std::size_t at =
          static_cast<std::size_t>(rng.uniform_int(0, last + 1));
      std::string run(static_cast<std::size_t>(rng.uniform_int(1, 8)), '\0');
      for (char& c : run) c = static_cast<char>(rng.uniform_int(0, 255));
      bytes.insert(at, run);
      break;
    }
    default: {  // rewrite the first frame's body-length prefix
      if (bytes.size() < kWireHeaderBytes) break;
      std::uint32_t len = 0;
      for (int b = 0; b < 4; ++b) {
        len |= static_cast<std::uint32_t>(
                   static_cast<unsigned char>(bytes[8 + b]))
               << (8 * b);
      }
      switch (rng.uniform_int(0, 3)) {
        case 0: len += static_cast<std::uint32_t>(rng.uniform_int(1, 64)); break;
        case 1: len -= static_cast<std::uint32_t>(rng.uniform_int(1, 64)); break;
        case 2: len = static_cast<std::uint32_t>(rng.uniform_int(0, 64)); break;
        default: len = static_cast<std::uint32_t>(rng.fork_seed()); break;
      }
      std::string prefix;
      put_u32_raw(prefix, len);
      bytes.replace(8, 4, prefix);
      break;
    }
  }
}

TEST(WireFuzzTest, SeededMutantsNeverThrowOrLeakAHalfDecodedSample) {
  // Valid request frames for both graph kinds, plus a stats request.
  std::vector<std::string> frames;
  for (const GraphKind kind : {GraphKind::kDfg, GraphKind::kCdfg}) {
    std::uint64_t id = 1;
    for (const Sample& s : tiny_dataset(kind, 3, 707 + static_cast<int>(kind))) {
      RequestFrame req;
      req.request_id = id++;
      req.payload = encode_sample_payload(s);
      frames.push_back(encode_request_frame(req));
    }
  }
  frames.push_back(encode_stats_request_frame(StatsFrame{42, ""}));

  constexpr int kMutants = 3000;
  Rng rng(20261020);
  int frames_seen = 0, samples_ok = 0, payload_rejects = 0, poisoned = 0;
  for (int m = 0; m < kMutants; ++m) {
    // A stream of one or two frames, one to three stacked mutations.
    std::string bytes = rng.choice(frames);
    if (rng.bernoulli(0.3)) bytes += rng.choice(frames);
    const int mutations = rng.uniform_int(1, 3);
    for (int k = 0; k < mutations; ++k) mutate(bytes, rng);

    SCOPED_TRACE("mutant " + std::to_string(m));
    try {
      WireDecoder dec;
      WireStatus st = WireStatus::kNeedMore;
      std::size_t off = 0;
      while (off < bytes.size() && !wire_status_is_error(st)) {
        const std::size_t n = std::min(
            bytes.size() - off,
            static_cast<std::size_t>(rng.uniform_int(1, 512)));
        dec.feed(bytes.data() + off, n);
        off += n;
        DecodedFrame frame;
        while ((st = dec.next(frame)) == WireStatus::kFrame) {
          ++frames_seen;
          if (frame.type != kWireTypeRequest) continue;
          const DecodedSample d = decode_sample_payload(frame.request.payload);
          if (d.ok()) {
            ASSERT_NE(d.sample, nullptr);
            // A decoded sample is inference-ready: its features build.
            for (const Approach a :
                 {Approach::kOffTheShelf, Approach::kKnowledgeRich,
                  Approach::kKnowledgeInfused}) {
              EXPECT_EQ(InputFeatureBuilder::build(d.sample->graph(), a).rows(),
                        d.sample->graph().num_nodes());
            }
            ++samples_ok;
          } else {
            ASSERT_EQ(d.sample, nullptr);
            EXPECT_NE(parse_status_name(d.status), "unknown");
            ++payload_rejects;
          }
        }
        ASSERT_NE(wire_status_name(st), "unknown");
      }
      if (wire_status_is_error(st)) ++poisoned;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant threw: " << e.what();
    }
  }
  // The budget reached every outcome: clean frames, payloads the parser
  // rejected, and poisoned streams.
  EXPECT_GT(frames_seen, 0);
  EXPECT_GT(samples_ok, 0);
  EXPECT_GT(payload_rejects, 0);
  EXPECT_GT(poisoned, 0);
}

}  // namespace
}  // namespace gnnhls
