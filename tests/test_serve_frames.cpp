// Tests for the mobsrv_serve wire protocol (serve/frames.hpp): client-frame
// parsing with loud rejection of unknown members/types/versions, tenant
// attribution for error isolation, TenantSpec JSON round-trips, and the
// server frame builders' exact shapes.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "io/json.hpp"
#include "serve/frames.hpp"

namespace mobsrv {
namespace {

using serve::ClientFrame;
using serve::FrameError;
using serve::FrameType;
using serve::TenantSpec;

ClientFrame parse(const std::string& line) { return serve::parse_client_frame(line); }

/// The error message a line fails with (empty when it parses fine).
std::string error_of(const std::string& line) {
  try {
    (void)parse(line);
    return {};
  } catch (const FrameError& error) {
    return error.what();
  }
}

std::string tenant_of(const std::string& line) {
  try {
    (void)parse(line);
    return {};
  } catch (const FrameError& error) {
    return error.tenant();
  }
}

// ---------------------------------------------------------------------------
// Open frames.
// ---------------------------------------------------------------------------

TEST(ServeFrames, OpenFrameParsesFullSpec) {
  const ClientFrame frame = parse(
      R"({"type":"open","v":1,"tenant":"acme","algorithm":"MtC","seed":7,"dim":2,"k":4,)"
      R"("speed":1.5,"policy":"throw","D":2.0,"m":0.5,"order":"serve-then-move",)"
      R"("starts":[[0,0],[1,0],[0,1],[1,1]]})");
  EXPECT_EQ(frame.type, FrameType::kOpen);
  EXPECT_EQ(frame.tenant, "acme");
  EXPECT_EQ(frame.open.algorithm, "MtC");
  EXPECT_EQ(frame.open.seed, 7u);
  EXPECT_EQ(frame.open.dim, 2);
  EXPECT_EQ(frame.open.fleet_size, 4u);
  EXPECT_EQ(frame.open.speed_factor, 1.5);
  EXPECT_EQ(frame.open.policy, sim::SpeedLimitPolicy::kThrow);
  EXPECT_EQ(frame.open.params.move_cost_weight, 2.0);
  EXPECT_EQ(frame.open.params.max_step, 0.5);
  EXPECT_EQ(frame.open.params.order, sim::ServiceOrder::kServeThenMove);
  ASSERT_EQ(frame.open.starts.size(), 4u);
  EXPECT_EQ(frame.open.starts[3], (geo::Point{1.0, 1.0}));
}

TEST(ServeFrames, OpenFrameDefaultsAreProductionFriendly) {
  const ClientFrame frame =
      parse(R"({"type":"open","v":1,"tenant":"t","algorithm":"MtC","dim":3})");
  EXPECT_EQ(frame.open.fleet_size, 1u);
  EXPECT_EQ(frame.open.speed_factor, 1.0);
  // A live service clamps by default rather than throwing a tenant out.
  EXPECT_EQ(frame.open.policy, sim::SpeedLimitPolicy::kClamp);
  ASSERT_EQ(frame.open.starts.size(), 1u);
  EXPECT_EQ(frame.open.starts[0], geo::Point::zero(3));
}

TEST(ServeFrames, SharedStartIsReplicatedAcrossTheFleet) {
  const ClientFrame frame = parse(
      R"({"type":"open","v":1,"tenant":"t","algorithm":"MtC","dim":1,"k":3,"start":[2.5]})");
  ASSERT_EQ(frame.open.starts.size(), 3u);
  for (const geo::Point& p : frame.open.starts) EXPECT_EQ(p, geo::Point{2.5});
}

TEST(ServeFrames, OpenFrameRequiresTheProtocolVersion) {
  EXPECT_NE(error_of(R"({"type":"open","tenant":"t","algorithm":"MtC","dim":1})")
                .find("protocol version"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"type":"open","v":2,"tenant":"t","algorithm":"MtC","dim":1})")
                .find("not supported"),
            std::string::npos);
}

TEST(ServeFrames, OpenFrameValidationIsLoud) {
  // Every rejected spec names the offending member.
  EXPECT_NE(error_of(R"({"type":"open","v":1,"tenant":"t","algorithm":"MtC"})").find("dim"),
            std::string::npos);
  EXPECT_NE(
      error_of(R"({"type":"open","v":1,"tenant":"t","algorithm":"MtC","dim":9})").find("dim"),
      std::string::npos);
  EXPECT_NE(error_of(R"({"type":"open","v":1,"tenant":"t","algorithm":"MtC","dim":1,"k":0})")
                .find("\"k\""),
            std::string::npos);
  EXPECT_NE(
      error_of(R"({"type":"open","v":1,"tenant":"t","algorithm":"MtC","dim":1,"speed":0.5})")
          .find("speed"),
      std::string::npos);
  EXPECT_NE(error_of(R"({"type":"open","v":1,"tenant":"t","algorithm":"MtC","dim":1,"m":0})")
                .find("\"m\""),
            std::string::npos);
  EXPECT_NE(error_of(R"({"type":"open","v":1,"tenant":"t","algorithm":"MtC","dim":1,"D":0.5})")
                .find("\"D\""),
            std::string::npos);
  EXPECT_NE(error_of(R"({"type":"open","v":1,"tenant":"","algorithm":"MtC","dim":1})")
                .find("tenant"),
            std::string::npos);
  // starts must match k and dim; start XOR starts.
  EXPECT_NE(error_of(R"({"type":"open","v":1,"tenant":"t","algorithm":"MtC","dim":1,"k":2,)"
                     R"("starts":[[0]]})")
                .find("starts"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"type":"open","v":1,"tenant":"t","algorithm":"MtC","dim":2,)"
                     R"("start":[1]})")
                .find("coordinates"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"type":"open","v":1,"tenant":"t","algorithm":"MtC","dim":1,)"
                     R"("start":[0],"starts":[[0]]})")
                .find("not both"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"type":"open","v":1,"tenant":"t","algorithm":"MtC","dim":1,)"
                     R"("policy":"explode"})")
                .find("policy"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Req / close / control frames.
// ---------------------------------------------------------------------------

TEST(ServeFrames, ReqFrameCarriesTheBatch) {
  const ClientFrame frame =
      parse(R"({"type":"req","tenant":"acme","batch":[[1,2],[3,4],[5,6]]})");
  EXPECT_EQ(frame.type, FrameType::kReq);
  EXPECT_EQ(frame.tenant, "acme");
  ASSERT_EQ(frame.batch.size(), 3u);
  EXPECT_EQ(frame.batch.requests[1], (geo::Point{3.0, 4.0}));
}

TEST(ServeFrames, EmptyBatchIsAnIdleStep) {
  const ClientFrame frame = parse(R"({"type":"req","tenant":"acme","batch":[]})");
  EXPECT_TRUE(frame.batch.empty());
}

TEST(ServeFrames, ReqFrameRejectsMixedDimensions) {
  EXPECT_NE(error_of(R"({"type":"req","tenant":"t","batch":[[1],[1,2]]})").find("mixes"),
            std::string::npos);
  EXPECT_EQ(tenant_of(R"({"type":"req","tenant":"t","batch":[[1],[1,2]]})"), "t");
}

TEST(ServeFrames, ControlFramesParse) {
  EXPECT_EQ(parse(R"({"type":"close","tenant":"t"})").type, FrameType::kClose);
  EXPECT_EQ(parse(R"({"type":"stats"})").type, FrameType::kStats);
  EXPECT_EQ(parse(R"({"type":"stats","tenant":"t"})").tenant, "t");
  EXPECT_EQ(parse(R"({"type":"checkpoint"})").type, FrameType::kCheckpoint);
  EXPECT_EQ(parse(R"({"type":"shutdown"})").type, FrameType::kShutdown);
  EXPECT_EQ(parse(R"({"type":"kill"})").type, FrameType::kKill);
  EXPECT_EQ(parse(R"({"type":"metrics"})").type, FrameType::kMetrics);
  EXPECT_EQ(parse(R"({"type":"metrics","v":1})").type, FrameType::kMetrics);
  EXPECT_THROW(parse(R"({"type":"metrics","tenant":"t"})"), serve::FrameError);
}

TEST(ServeFrames, MetricsFrameCarriesRegistryAndTenantRows) {
  obs::Registry registry;
  registry.counter("serve.reqs_total", "frames", "reqs").inc(3);
  core::SessionStats stats;
  stats.tenant = "t1";
  stats.algorithm = "MtC";
  stats.steps = 2;
  stats.horizon = 5;
  serve::TenantObsRow row;
  row.reqs = 3;
  row.outcomes = 2;
  row.busys = 1;
  const io::Json doc =
      io::Json::parse(serve::metrics_frame(registry.to_json(), {stats}, {row}));
  EXPECT_EQ(doc.at("type").as_string(), "metrics");
  EXPECT_EQ(doc.at("v").as_uint64(), serve::kProtocolVersion);
  EXPECT_EQ(doc.at("metrics").as_array().front().at("value").as_uint64(), 3u);
  const io::Json& tenant = doc.at("tenants").as_array().front();
  EXPECT_EQ(tenant.at("tenant").as_string(), "t1");
  EXPECT_EQ(tenant.at("queued").as_uint64(), 3u);  // horizon - steps
  EXPECT_EQ(tenant.at("reqs").as_uint64(), 3u);
  EXPECT_EQ(tenant.at("busys").as_uint64(), 1u);
  EXPECT_EQ(tenant.at("ingest_latency_ns").at("count").as_uint64(), 0u);
}

// ---------------------------------------------------------------------------
// Malformed lines: loud, attributed where possible.
// ---------------------------------------------------------------------------

TEST(ServeFrames, MalformedJsonIsLoudAndUnattributed) {
  EXPECT_NE(error_of("{nope").find("malformed JSON"), std::string::npos);
  EXPECT_EQ(tenant_of("{nope"), "");
  EXPECT_NE(error_of("[1,2]").find("object"), std::string::npos);
  EXPECT_NE(error_of(R"({"tenant":"t"})").find("type"), std::string::npos);
  EXPECT_EQ(tenant_of(R"({"tenant":"t"})"), "t");  // attributable, though
}

TEST(ServeFrames, UnknownTypeAndUnknownMembersAreRejected) {
  EXPECT_NE(error_of(R"({"type":"frobnicate"})").find("unknown frame type"), std::string::npos);
  // A typo'd member must fail loudly, never be silently ignored.
  EXPECT_NE(error_of(R"({"type":"req","tenant":"t","batc":[[1]]})").find("unknown member"),
            std::string::npos);
  EXPECT_EQ(tenant_of(R"({"type":"req","tenant":"t","batc":[[1]]})"), "t");
  EXPECT_NE(error_of(R"({"type":"shutdown","extra":1})").find("unknown member"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// TenantSpec JSON round-trip (the snapshot file depends on it).
// ---------------------------------------------------------------------------

TEST(ServeFrames, TenantSpecRoundTripsThroughJson) {
  TenantSpec spec;
  spec.tenant = "rt";
  spec.algorithm = "MoveToMin";
  spec.seed = 12345;
  spec.dim = 2;
  spec.fleet_size = 3;
  spec.speed_factor = 1.0 + 1.0 / 3.0;  // not exactly representable in decimal
  spec.policy = sim::SpeedLimitPolicy::kThrow;
  spec.params.move_cost_weight = 2.5;
  spec.params.max_step = 0.1;
  spec.params.order = sim::ServiceOrder::kServeThenMove;
  spec.starts = {geo::Point{0.1, 0.2}, geo::Point{-1.0, 2.0}, geo::Point{3.0, -4.5}};

  const TenantSpec back = serve::tenant_spec_from_json(serve::tenant_spec_to_json(spec));
  EXPECT_EQ(back.tenant, spec.tenant);
  EXPECT_EQ(back.algorithm, spec.algorithm);
  EXPECT_EQ(back.seed, spec.seed);
  EXPECT_EQ(back.dim, spec.dim);
  EXPECT_EQ(back.fleet_size, spec.fleet_size);
  EXPECT_EQ(back.speed_factor, spec.speed_factor);  // exact: round-trip doubles
  EXPECT_EQ(back.policy, spec.policy);
  EXPECT_EQ(back.params.move_cost_weight, spec.params.move_cost_weight);
  EXPECT_EQ(back.params.max_step, spec.params.max_step);
  EXPECT_EQ(back.params.order, spec.params.order);
  EXPECT_EQ(back.starts, spec.starts);
}

TEST(ServeFrames, RateLimitsParseValidateAndRoundTrip) {
  const ClientFrame frame = parse(
      R"({"type":"open","v":1,"tenant":"t","algorithm":"MtC","dim":1,"rate":2.5,"burst":8})");
  EXPECT_EQ(frame.open.rate, 2.5);
  EXPECT_EQ(frame.open.rate_burst, 8.0);

  // Unlimited by default — and a rate-less spec serialises without the
  // members, so v1 snapshot payloads stay byte-identical.
  const ClientFrame bare =
      parse(R"({"type":"open","v":1,"tenant":"t","algorithm":"MtC","dim":1})");
  EXPECT_EQ(bare.open.rate, 0.0);
  EXPECT_EQ(bare.open.rate_burst, 0.0);
  io::Json plain = serve::tenant_spec_to_json(bare.open);
  EXPECT_EQ(plain.find("rate"), nullptr);
  EXPECT_EQ(plain.find("burst"), nullptr);

  TenantSpec spec = frame.open;
  spec.tenant = "t";
  const TenantSpec back = serve::tenant_spec_from_json(serve::tenant_spec_to_json(spec));
  EXPECT_EQ(back.rate, 2.5);
  EXPECT_EQ(back.rate_burst, 8.0);

  // Validation names the offending member.
  EXPECT_NE(error_of(R"({"type":"open","v":1,"tenant":"t","algorithm":"MtC","dim":1,)"
                     R"("rate":-1})")
                .find("rate"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"type":"open","v":1,"tenant":"t","algorithm":"MtC","dim":1,)"
                     R"("burst":4})")
                .find("burst"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"type":"open","v":1,"tenant":"t","algorithm":"MtC","dim":1,)"
                     R"("rate":1,"burst":0.5})")
                .find("burst"),
            std::string::npos);
}

// A `req` in the shape clients write takes a fast path that skips the Json
// object. Leading whitespace is legal JSON the fast path never takes, so
// "{ " + rest is the same frame through the general path; the two must
// agree on every line, errors included (up to the offsets JSON errors quote).
TEST(ServeFrames, PlainReqFastPathAgreesWithTheGeneralParser) {
  const auto outcome = [](const std::string& line) {
    std::string text;
    try {
      const ClientFrame frame = parse(line);
      text = "type " + std::to_string(static_cast<int>(frame.type)) + " tenant [" +
             frame.tenant + "]";
      for (const geo::Point& p : frame.batch.requests) {
        text += " (";
        for (int a = 0; a < p.dim(); ++a) {
          char bits[32];
          std::snprintf(bits, sizeof(bits), " %a", p[a]);  // exact, keeps -0.0
          text += bits;
        }
        text += ")";
      }
    } catch (const FrameError& error) {
      // The inserted space moves JSON error offsets by one; drop them.
      std::string message = error.what();
      if (const std::size_t at = message.find(" (at byte "); at != std::string::npos)
        message.erase(at, message.find(')', at) + 1 - at);
      text = "error [" + message + "] tenant [" + error.tenant() + "]";
    }
    return text;
  };
  std::vector<std::string> batches;
  for (const char* number :
       {"0", "-0", "7", "-7", "0.5", "-0.0", "1e300", "1E+2", "2.5e-3", "01", "1.", ".5", "+1",
        "-", "1e", "1e400", "0x10", "nan", "true", "18446744073709551615",
        "18446744073709551616", "-9223372036854775808", "-9223372036854775809",
        "0.1000000000000000055511151231257827"}) {
    batches.push_back(std::string("[[") + number + "]]");
    batches.push_back(std::string("[[1,") + number + "],[2,3]]");
  }
  for (const char* batch :
       {"[]", "[[]]", "[[1],[2,3]]", "[[1,2],[3,4],[5,6]]", "[[1,2,3,4,5,6,7,8]]",
        "[[1,2,3,4,5,6,7,8,9]]", "[[[1]]]", "[1]", "[[1] ]", "[[1],]", "[[1,]]", "[[1]", "{}",
        "null"})
    batches.emplace_back(batch);
  std::vector<std::string> lines;
  for (const char* tenant : {"t0", "", "a b", "\xc3\xa9", "q\\\"x", "n\\n", "c\x01"}) {
    for (const std::string& batch : batches) {
      const std::string head = std::string(R"("type":"req","tenant":")") + tenant + "\"";
      lines.push_back("{" + head + R"(,"batch":)" + batch + "}");
      lines.push_back("{" + head + R"(,"batch":)" + batch + "}x");
      lines.push_back("{" + head + R"(,"batch":)" + batch);
      lines.push_back("{" + head + R"(,"batch":)" + batch + R"(,"v":1})");
    }
  }
  lines.emplace_back(R"({"type":"req","tenant":"t","batch":[[1]],"batch":[[2]]})");
  lines.emplace_back(R"({"type":"req","tenant":"t","batc":[[1]]})");
  lines.emplace_back(R"({"type":"req","tenant":"t)");
  std::size_t accepted = 0;
  for (const std::string& line : lines) {
    const std::string fast = outcome(line);
    EXPECT_EQ(fast, outcome("{ " + line.substr(1))) << line;
    if (fast.rfind("type", 0) == 0) ++accepted;
  }
  EXPECT_GT(accepted, 50u);  // the corpus reaches the fast path, not only errors
}

// ---------------------------------------------------------------------------
// Server frame builders.
// ---------------------------------------------------------------------------

TEST(ServeFrames, ServerFramesAreOneJsonObjectWithAType) {
  core::SessionStats stats;
  stats.tenant = "t";
  stats.algorithm = "MtC";
  stats.steps = 3;
  stats.move_cost = 1.25;
  stats.service_cost = 0.5;
  stats.total_cost = 1.75;
  stats.positions = {geo::Point{1.0, 2.0}};
  core::MuxTotals totals;
  totals.sessions = 1;

  for (const std::string& line :
       {serve::outcome_frame("t", 2, 0.25, 0.5, stats, false),
        serve::busy_frame("t", 7, 64, 64), serve::error_frame(3, "boom", "t", true),
        serve::closed_frame(stats), serve::stats_frame({stats}, totals),
        serve::checkpointed_frame("/tmp/s.msrvss", 2, 100, "base", 512, 1),
        serve::bye_frame("eof", totals)}) {
    const io::Json doc = io::Json::parse(line);
    ASSERT_TRUE(doc.is_object()) << line;
    EXPECT_NE(doc.find("type"), nullptr) << line;
    EXPECT_EQ(line.find('\n'), std::string::npos) << "frames are single lines";
  }

  const io::Json outcome = io::Json::parse(serve::outcome_frame("t", 2, 0.25, 0.5, stats, false));
  EXPECT_EQ(outcome.at("t").as_uint64(), 2u);
  EXPECT_EQ(outcome.at("move").as_double(), 0.25);
  EXPECT_EQ(outcome.at("total").as_double(), 1.75);
  EXPECT_EQ(outcome.at("positions").as_array().size(), 1u);
  // Lean outcomes omit positions.
  const io::Json lean = io::Json::parse(serve::outcome_frame("t", 2, 0.25, 0.5, stats, true));
  EXPECT_EQ(lean.find("positions"), nullptr);

  const io::Json error = io::Json::parse(serve::error_frame(3, "boom", "t", true));
  EXPECT_EQ(error.at("line").as_uint64(), 3u);
  EXPECT_EQ(error.at("closed").as_bool(), true);
  // Unattributed errors carry no tenant member at all.
  const io::Json anon = io::Json::parse(serve::error_frame(0, "boom", "", false));
  EXPECT_EQ(anon.find("tenant"), nullptr);
  EXPECT_EQ(anon.find("line"), nullptr);
}

// outcome_frame writes its line directly instead of through a Json object;
// the bytes must stay the ones the object would dump, member order included.
TEST(ServeFrames, OutcomeFrameMatchesTheJsonDump) {
  const auto reference = [](const std::string& tenant, std::size_t t, double move_delta,
                            double service_delta, const core::SessionStats& stats, bool lean) {
    io::Json doc = io::Json::object();
    doc.set("type", "outcome");
    doc.set("tenant", tenant);
    doc.set("t", t);
    doc.set("move", move_delta);
    doc.set("service", service_delta);
    doc.set("move_total", stats.move_cost);
    doc.set("service_total", stats.service_cost);
    doc.set("total", stats.total_cost);
    if (!lean) {
      io::Json positions = io::Json::array();
      for (const geo::Point& p : stats.positions) {
        io::Json coords = io::Json::array();
        for (int i = 0; i < p.dim(); ++i) coords.push_back(p[i]);
        positions.push_back(std::move(coords));
      }
      doc.set("positions", std::move(positions));
    }
    return doc.dump();
  };
  core::SessionStats stats;
  stats.move_cost = 0.1 + 0.2;
  stats.service_cost = 1e300;
  stats.total_cost = 5e-324;
  stats.positions = {geo::Point{-0.0, 2.5}, geo::Point{1.0 / 3.0, -7.0}};
  core::SessionStats one_dim;
  one_dim.positions = {geo::Point{123456.789}};
  core::SessionStats no_servers;
  for (const std::string& tenant :
       {std::string("t0"), std::string("q\"u\\o\nte\r\t\b\f"), std::string("c\x01\x1f"),
        std::string("\xc3\xa9t\xc3\xa9")}) {
    for (const bool lean : {false, true}) {
      for (const core::SessionStats* s : {&stats, &one_dim, &no_servers}) {
        for (const std::size_t t : {std::size_t{0}, std::size_t{41}, ~std::size_t{0}}) {
          EXPECT_EQ(serve::outcome_frame(tenant, t, -0.0, 0.25, *s, lean),
                    reference(tenant, t, -0.0, 0.25, *s, lean));
          EXPECT_EQ(serve::outcome_frame(tenant, t, 1e-7, -3.5e12, *s, lean),
                    reference(tenant, t, 1e-7, -3.5e12, *s, lean));
        }
      }
    }
  }
}

}  // namespace
}  // namespace mobsrv
