// Wire protocol codec tests: framing (incremental parse over partial
// buffers, corrupt lengths), primitive round-trips, and the serving
// type codecs -- in particular that a ServeStats survives the wire
// EXACTLY (raw histogram grids included), so remote snapshots merge
// bit-for-bit with local ones, that hostile histogram counts are an
// IoError, and that the error pair rebuilds each exception with its
// type and its what().
#include "net/wire.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <typeinfo>
#include <vector>

#include "serve/request.hpp"

namespace radix::net {
namespace {

TEST(Wire, PrimitivesRoundTrip) {
  std::vector<std::uint8_t> buf;
  WireWriter w(buf);
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefull);
  w.i64(-42);
  w.f32(1.5f);
  w.f64(-2.25);
  w.str("hello \"wire\"");
  w.floats(std::vector<float>{1.0f, -0.5f, 3.25f});

  WireReader r(buf);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f32(), 1.5f);
  EXPECT_EQ(r.f64(), -2.25);
  EXPECT_EQ(r.str(), "hello \"wire\"");
  EXPECT_EQ(r.floats(), (std::vector<float>{1.0f, -0.5f, 3.25f}));
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_NO_THROW(r.expect_end());
}

TEST(Wire, LittleEndianLayout) {
  std::vector<std::uint8_t> buf;
  WireWriter w(buf);
  w.u32(0x04030201u);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[1], 0x02);
  EXPECT_EQ(buf[2], 0x03);
  EXPECT_EQ(buf[3], 0x04);
}

TEST(Wire, TruncatedReadsThrow) {
  std::vector<std::uint8_t> buf;
  WireWriter w(buf);
  w.u32(7);
  WireReader r(buf);
  (void)r.u16();
  EXPECT_THROW((void)r.u32(), IoError);      // only 2 bytes left
  WireReader r2(buf);
  (void)r2.u16();
  EXPECT_THROW(r2.expect_end(), IoError);    // trailing bytes
}

TEST(Wire, CountsAreCheckedAgainstTheBodyBeforeReserving) {
  // A body claiming 2^32-1 floats and carrying one: refused from the
  // count alone, before the reader reserves 16 GiB for it.
  std::vector<std::uint8_t> buf;
  WireWriter w(buf);
  w.u32(0xffffffffu);
  w.f32(1.0f);
  WireReader r(buf);
  EXPECT_THROW((void)r.floats(), IoError);

  // count() admits exactly the items that fit at their shortest
  // encoding, and refuses one byte's worth more.
  std::vector<std::uint8_t> two;
  WireWriter w2(two);
  w2.u32(2);
  w2.u16(7);
  w2.u16(8);
  WireReader fits(two);
  EXPECT_EQ(fits.count(2), 2u);
  WireReader too_many(two);
  EXPECT_THROW((void)too_many.count(3), IoError);

  // kModelInfoMinBytes is the encoding of a row with an empty name.
  std::vector<std::uint8_t> shortest;
  WireWriter w3(shortest);
  encode_model_info(w3, WireModelInfo{});
  EXPECT_EQ(shortest.size(), kModelInfoMinBytes);
}

TEST(Wire, FrameRoundTripAndIncrementalParse) {
  std::vector<std::uint8_t> body;
  WireWriter w(body);
  w.str("payload");
  const auto frame1 = encode_frame(MsgType::kSubmit, 7, body);
  const auto frame2 = encode_frame(MsgType::kPing, 8, {});

  // Feed the two frames byte by byte: every prefix must parse to
  // nullopt, each completed frame must pop exactly once.
  std::vector<std::uint8_t> stream;
  std::vector<Frame> parsed;
  for (const auto* frame : {&frame1, &frame2}) {
    for (std::size_t i = 0; i < frame->size(); ++i) {
      stream.push_back((*frame)[i]);
      const bool last_byte = i + 1 == frame->size();
      auto got = try_parse_frame(stream);
      if (last_byte) {
        ASSERT_TRUE(got.has_value());
        parsed.push_back(std::move(*got));
        EXPECT_TRUE(stream.empty());
      } else {
        EXPECT_FALSE(got.has_value());
      }
    }
  }
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].type, MsgType::kSubmit);
  EXPECT_EQ(parsed[0].correlation, 7u);
  WireReader r(parsed[0].body);
  EXPECT_EQ(r.str(), "payload");
  EXPECT_EQ(parsed[1].type, MsgType::kPing);
  EXPECT_EQ(parsed[1].correlation, 8u);
  EXPECT_TRUE(parsed[1].body.empty());
}

TEST(Wire, CorruptFrameLengthThrows) {
  // Length below the type+correlation header minimum.
  std::vector<std::uint8_t> tiny = {0x01, 0x00, 0x00, 0x00};
  EXPECT_THROW(try_parse_frame(tiny), IoError);
  // Length beyond the frame cap: must throw instead of allocating.
  std::vector<std::uint8_t> huge = {0xff, 0xff, 0xff, 0xff};
  EXPECT_THROW(try_parse_frame(huge), IoError);
}

serve::Log2Histogram sample_hist() {
  serve::Log2Histogram h(1e-6);
  h.record(0.5e-6);
  h.record(3e-6);
  h.record(1e-3);
  h.record(2.0);
  h.record(2.0);
  return h;
}

TEST(Wire, HistogramRoundTripIsExact) {
  const auto h = sample_hist();
  std::vector<std::uint8_t> buf;
  WireWriter w(buf);
  encode_histogram(w, h);
  WireReader r(buf);
  const auto back = decode_histogram(r);
  EXPECT_NO_THROW(r.expect_end());

  EXPECT_EQ(back.count(), h.count());
  EXPECT_EQ(back.sum(), h.sum());
  EXPECT_EQ(back.max(), h.max());
  EXPECT_EQ(back.raw_counts(), h.raw_counts());
  // The exactness contract in action: a decoded histogram merges with
  // a local one exactly as the original would.
  auto merged_local = sample_hist();
  merged_local.merge(h);
  auto merged_wire = sample_hist();
  merged_wire.merge(back);
  EXPECT_EQ(merged_wire.raw_counts(), merged_local.raw_counts());
  EXPECT_EQ(merged_wire.percentile(0.99), merged_local.percentile(0.99));
}

TEST(Wire, StatsRoundTripMatchesFinalizedSnapshot) {
  serve::StatsCollector collector;
  collector.record_batch(4, 1000, 0.002);
  collector.record_request(1e-5, 3e-5, false);
  collector.record_request(2e-5, 4e-5, true);
  collector.record_shed(1e-4, 2e-4, true);
  const serve::ServeStats s = collector.snapshot();

  std::vector<std::uint8_t> buf;
  WireWriter w(buf);
  encode_stats(w, s);
  WireReader r(buf);
  const serve::ServeStats back = decode_stats(r);
  EXPECT_NO_THROW(r.expect_end());

  EXPECT_EQ(back.requests, s.requests);
  EXPECT_EQ(back.rows, s.rows);
  EXPECT_EQ(back.batches, s.batches);
  EXPECT_EQ(back.edges, s.edges);
  EXPECT_EQ(back.errors, s.errors);
  EXPECT_EQ(back.shed, s.shed);
  EXPECT_EQ(back.expired, s.expired);
  EXPECT_EQ(back.busy_seconds, s.busy_seconds);
  // decode_stats finalizes: derived fields equal the local snapshot's.
  EXPECT_EQ(back.e2e_p99, s.e2e_p99);
  EXPECT_EQ(back.queue_wait_p50, s.queue_wait_p50);
  EXPECT_EQ(back.mean_batch_rows, s.mean_batch_rows);
  EXPECT_EQ(back.e2e_hist.raw_counts(), s.e2e_hist.raw_counts());

  // Merging the decoded copy into a local snapshot is exact.
  serve::ServeStats merged_local = s;
  merged_local.merge(s);
  serve::ServeStats merged_wire = s;
  merged_wire.merge(back);
  EXPECT_EQ(merged_wire.errors, merged_local.errors);
  EXPECT_EQ(merged_wire.e2e_p99, merged_local.e2e_p99);
  EXPECT_EQ(merged_wire.e2e_hist.raw_counts(),
            merged_local.e2e_hist.raw_counts());
}

TEST(Wire, FromRawRejectsInconsistentCount) {
  const auto h = sample_hist();
  EXPECT_THROW(serve::Log2Histogram::from_raw(h.base(), h.raw_counts(),
                                              h.count() + 1, h.sum(),
                                              h.max()),
               Error);
}

TEST(Wire, HostileHistogramCountsThrowIoError) {
  // A body whose bucket counts do not sum to its count is malformed
  // wire input: IoError, like a truncated one.
  const auto body = [](std::uint64_t count,
                       std::vector<std::uint64_t> buckets) {
    buckets.resize(serve::Log2Histogram::kBuckets, 0);
    std::vector<std::uint8_t> buf;
    WireWriter w(buf);
    w.f64(1e-6);  // base
    w.u64(count);
    w.f64(0.0);   // sum
    w.f64(0.0);   // max
    w.u32(static_cast<std::uint32_t>(buckets.size()));
    for (const std::uint64_t c : buckets) w.u64(c);
    return buf;
  };
  // Buckets summing to 1 under a count of 5 (from_raw would say
  // SpecError), and buckets whose u64 sum wraps round to the count:
  // 2 + (2^64 - 1) = 2^64 + 1.
  for (const auto& hostile :
       {body(5, {1}), body(1, {2, ~std::uint64_t{0}})}) {
    WireReader r(hostile);
    EXPECT_THROW((void)decode_histogram(r), IoError);
  }
  // The same layout with consistent counts decodes.
  const auto fine = body(3, {1, 2});
  WireReader r(fine);
  EXPECT_EQ(decode_histogram(r).count(), 3u);
  EXPECT_NO_THROW(r.expect_end());
}

TEST(Wire, ModelInfoRoundTrip) {
  WireModelInfo m;
  m.id = 3;
  m.name = "chat";
  m.input_width = 1024;
  m.output_width = 1024;
  m.priority = serve::Priority::kInteractive;
  m.retired = true;
  m.version = 5;
  m.pending = 17;
  std::vector<std::uint8_t> buf;
  WireWriter w(buf);
  encode_model_info(w, m);
  WireReader r(buf);
  const auto back = decode_model_info(r);
  EXPECT_EQ(back.id, m.id);
  EXPECT_EQ(back.name, m.name);
  EXPECT_EQ(back.input_width, m.input_width);
  EXPECT_EQ(back.output_width, m.output_width);
  EXPECT_EQ(back.priority, m.priority);
  EXPECT_EQ(back.retired, m.retired);
  EXPECT_EQ(back.version, m.version);
  EXPECT_EQ(back.pending, m.pending);
}

TEST(Wire, ErrorClassificationRoundTrip) {
  const auto classify = [](auto&& ex) {
    return classify_error(std::make_exception_ptr(ex));
  };
  EXPECT_EQ(classify_error(nullptr).kind, WireErrorKind::kNone);
  EXPECT_EQ(classify(serve::AbortedError("shard died")).kind,
            WireErrorKind::kAborted);
  EXPECT_EQ(classify(serve::DeadlineExceededError("late")).kind,
            WireErrorKind::kDeadline);
  EXPECT_EQ(classify(Error("boom")).kind, WireErrorKind::kGeneric);

  // The inverse rebuilds the serve:: exception types, so remote
  // callers catch exactly what in-process callers do.
  EXPECT_THROW(
      throw_wire_error({WireErrorKind::kAborted, "shard died"}),
      serve::AbortedError);
  EXPECT_THROW(throw_wire_error({WireErrorKind::kDeadline, "late"}),
               serve::DeadlineExceededError);
  EXPECT_THROW(throw_wire_error({WireErrorKind::kGeneric, "boom"}), Error);

  // Through the error pair and back, each kind comes out as the type
  // it went in as, with the same what() -- the type prefix is not
  // added twice.
  const auto over_the_wire = [](const std::exception_ptr& error) {
    std::vector<std::uint8_t> buf;
    WireWriter w(buf);
    encode_error(w, classify_error(error));
    WireReader r(buf);
    const WireError back = decode_error(r);
    r.expect_end();
    std::exception_ptr rebuilt;
    try {
      throw_wire_error(back);
    } catch (...) {
      rebuilt = std::current_exception();
    }
    return rebuilt;
  };
  const auto same_as_in_process = [&](const auto& ex) {
    try {
      std::rethrow_exception(over_the_wire(std::make_exception_ptr(ex)));
    } catch (const std::exception& got) {
      EXPECT_EQ(typeid(got), typeid(ex)) << ex.what();
      EXPECT_STREQ(got.what(), ex.what());
    }
  };
  same_as_in_process(
      serve::AbortedError("engine aborted before the request was claimed"));
  same_as_in_process(
      serve::DeadlineExceededError("request shed under queue pressure"));
  same_as_in_process(Error("boom"));
}

}  // namespace
}  // namespace radix::net
