// Real-transport backend (DESIGN.md §14): wire-codec bit-exactness and
// rejection gates, hex repro helpers, transport-layer byte accounting,
// scripted workloads, the FlatJson status reader, loopback UDP sockets,
// fleet-fingerprint assembly, and the headline contract — a two-daemon
// in-process UDP fleet whose world fingerprint is byte-identical to the
// in-sim world-sharded oracle's.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "check/scenario_fuzz.hpp"
#include "core/config.hpp"
#include "core/metrics.hpp"
#include "core/scenario.hpp"
#include "core/world_scenario.hpp"
#include "net/message_stats.hpp"
#include "net/packet.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "transport/node_daemon.hpp"
#include "transport/udp_socket.hpp"
#include "transport/wire_format.hpp"
#include "workload/workload_script.hpp"

namespace {

using namespace precinct;
namespace tw = transport;

// ---- wire codec -------------------------------------------------------------

/// Encode -> decode -> encode must be a byte-level fixed point and the
/// decoded packet bit-identical; shared by the per-kind sweep below.
void expect_round_trip(const net::Packet& p) {
  tw::WireWriter w;
  tw::encode_packet(p, w);
  ASSERT_EQ(w.size(), tw::wire_size(p));

  net::Packet back;
  tw::WireReader r(w.data().data(), w.size());
  ASSERT_TRUE(tw::decode_packet(r, back)) << tw::to_hex(w.data());
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_TRUE(tw::packets_identical(p, back)) << tw::to_hex(w.data());

  tw::WireWriter again;
  tw::encode_packet(back, again);
  EXPECT_EQ(again.data(), w.data());
}

TEST(WireCodec, RoundTripsEveryKindBitExact) {
  support::Rng rng(0xC0DEC5u);
  for (std::size_t kind = 0; kind < net::kPacketKindCount; ++kind) {
    for (int rep = 0; rep < 16; ++rep) {
      expect_round_trip(
          tw::random_wire_packet(rng, static_cast<net::PacketKind>(kind)));
    }
  }
}

TEST(WireCodec, HostileDoublesSurvive) {
  net::Packet p;
  p.kind = net::PacketKind::kResponse;
  p.ttr_s = std::numeric_limits<double>::quiet_NaN();
  p.src_location = {-0.0, 0.0};
  p.created_at = std::numeric_limits<double>::infinity();
  p.dest_location = {-std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::denorm_min()};
  expect_round_trip(p);
}

TEST(WireCodec, OptionalBlocksGateTheEncodedSize) {
  // A default Packet needs no optional block: the fixed header only.
  net::Packet p;
  const std::size_t base = tw::wire_size(p);
  EXPECT_EQ(base, 107u);

  net::Packet with_dest = p;
  with_dest.dest_node = 7;
  EXPECT_EQ(tw::wire_size(with_dest), base + 4);

  net::Packet with_region = p;
  with_region.dest_region = 3;
  EXPECT_EQ(tw::wire_size(with_region), base + 4);

  net::Packet with_perimeter = p;
  with_perimeter.perimeter_entry_node = 2;
  EXPECT_EQ(tw::wire_size(with_perimeter), base + 24);

  net::Packet with_response = p;
  with_response.version = 1;
  EXPECT_EQ(tw::wire_size(with_response), base + 21);

  // Presence is decided on bit patterns: ttr = -0.0 forces the response
  // block even though -0.0 == 0.0 numerically.
  net::Packet with_neg_zero = p;
  with_neg_zero.ttr_s = -0.0;
  EXPECT_EQ(tw::wire_size(with_neg_zero), base + 21);
  expect_round_trip(with_neg_zero);
}

TEST(WireCodec, EveryTruncationIsRejected) {
  support::Rng rng(0x7123u);
  const net::Packet p = tw::random_wire_packet(rng, net::PacketKind::kResponse);
  tw::WireWriter w;
  tw::encode_packet(p, w);
  for (std::size_t cut = 0; cut < w.size(); ++cut) {
    net::Packet t;
    tw::WireReader r(w.data().data(), cut);
    EXPECT_FALSE(tw::decode_packet(r, t)) << "accepted at " << cut;
  }
}

TEST(WireCodec, EnvelopeRejectsVersionMagicTypeAndTruncation) {
  tw::Envelope e;
  e.type = tw::MsgType::kFrame;
  e.src_domain = 4;
  e.seq = 99;
  tw::WireWriter w;
  tw::encode_envelope(e, w);
  ASSERT_EQ(w.size(), tw::kEnvelopeBytes);

  {
    tw::WireReader r(w.data().data(), w.size());
    tw::Envelope back;
    ASSERT_TRUE(tw::decode_envelope(r, back));
    EXPECT_EQ(back.type, e.type);
    EXPECT_EQ(back.src_domain, e.src_domain);
    EXPECT_EQ(back.seq, e.seq);
  }

  auto rejected = [](std::vector<std::uint8_t> bytes) {
    tw::WireReader r(bytes.data(), bytes.size());
    tw::Envelope back;
    return !tw::decode_envelope(r, back);
  };

  std::vector<std::uint8_t> bent = w.data();
  bent[tw::kMagicBytes] = tw::kWireVersion + 1;  // version byte
  EXPECT_TRUE(rejected(bent));

  bent = w.data();
  bent[0] ^= 0xFF;  // magic
  EXPECT_TRUE(rejected(bent));

  bent = w.data();
  bent[tw::kMagicBytes + 1] = 0;  // MsgType 0 is unassigned
  EXPECT_TRUE(rejected(bent));
  bent[tw::kMagicBytes + 1] = 200;  // far out of range
  EXPECT_TRUE(rejected(bent));

  for (std::size_t cut = 0; cut < w.size(); ++cut) {
    EXPECT_TRUE(rejected({w.data().begin(), w.data().begin() + cut}));
  }
}

TEST(WireCodec, WindowEndRoundTripsAndRejectsTruncationAndVersionOne) {
  tw::WindowEndMsg m;
  m.window = 6224;
  m.cum_sent = 1283;
  m.prev_cum_sent = 1279;
  m.acked_cum = 1001;
  m.window_end_s = 18.5;
  // A daemon with nothing pending publishes +inf; the bound one window
  // earlier was finite.
  m.next_due = std::numeric_limits<double>::infinity();
  m.prev_next_due = 18.4996;

  tw::Envelope e;
  e.type = tw::MsgType::kWindowEnd;
  e.src_domain = 3;
  tw::WireWriter w;
  tw::encode_envelope(e, w);
  tw::encode_window_end(m, w);
  ASSERT_EQ(w.size(), tw::kEnvelopeBytes + 4 * 8 + 3 * 8);

  {
    tw::WireReader r(w.data().data(), w.size());
    tw::Envelope env;
    tw::WindowEndMsg back;
    ASSERT_TRUE(tw::decode_envelope(r, env));
    EXPECT_EQ(env.type, tw::MsgType::kWindowEnd);
    ASSERT_TRUE(tw::decode_window_end(r, back));
    EXPECT_EQ(r.remaining(), 0u);
    EXPECT_EQ(back.window, m.window);
    EXPECT_EQ(back.cum_sent, m.cum_sent);
    EXPECT_EQ(back.prev_cum_sent, m.prev_cum_sent);
    EXPECT_EQ(back.acked_cum, m.acked_cum);
    EXPECT_EQ(back.window_end_s, m.window_end_s);
    EXPECT_EQ(back.next_due, std::numeric_limits<double>::infinity());
    EXPECT_EQ(back.prev_next_due, m.prev_next_due);
  }

  // Every strict truncation of the body is rejected.
  tw::WireWriter body;
  tw::encode_window_end(m, body);
  for (std::size_t cut = 0; cut < body.size(); ++cut) {
    tw::WireReader r(body.data().data(), cut);
    tw::WindowEndMsg t;
    EXPECT_FALSE(tw::decode_window_end(r, t)) << "accepted at " << cut;
  }

  // A version-1 peer (whose markers lack the next-event bounds) cannot
  // join: its envelope is refused before the body is read.
  std::vector<std::uint8_t> v1 = w.data();
  v1[tw::kMagicBytes] = 1;
  tw::WireReader r(v1.data(), v1.size());
  tw::Envelope env;
  EXPECT_FALSE(tw::decode_envelope(r, env));
}

TEST(WireCodec, HexHelpersRoundTrip) {
  const std::vector<std::uint8_t> bytes{0x00, 0x0f, 0xa5, 0xff};
  const std::string hex = tw::to_hex(bytes);
  EXPECT_EQ(hex, "000fa5ff");
  EXPECT_EQ(tw::from_hex(hex), bytes);
  EXPECT_TRUE(tw::from_hex("").empty());
  EXPECT_THROW((void)tw::from_hex("abc"), std::invalid_argument);
  EXPECT_THROW((void)tw::from_hex("zz"), std::invalid_argument);
}

TEST(WireCodec, PacketHexReplayJudgesTheFixedPoint) {
  support::Rng rng(0xBEEFu);
  const net::Packet p = tw::random_wire_packet(rng, net::PacketKind::kRequest);
  tw::WireWriter w;
  tw::encode_packet(p, w);

  const check::FuzzVerdict good = check::replay_packet_hex(tw::to_hex(w.data()));
  EXPECT_TRUE(good.ok) << good.detail;

  // Trailing garbage and truncation both fail the replay.
  EXPECT_FALSE(check::replay_packet_hex(tw::to_hex(w.data()) + "00").ok);
  EXPECT_FALSE(check::replay_packet_hex("00").ok);
  EXPECT_FALSE(check::replay_packet_hex("nothex").ok);
}

TEST(WireCodec, WireCodecFuzzPropertyIsWired) {
  // Case seeds rotate over the properties in enum order, so the seed
  // equal to the codec property's index draws a codec case — which must
  // pass.
  const auto seed = static_cast<std::uint64_t>(check::Property::kWireCodec);
  const check::FuzzCase fc = check::draw_scenario(seed);
  ASSERT_EQ(fc.property, check::Property::kWireCodec);
  const check::FuzzVerdict verdict = check::run_fuzz_case(fc);
  EXPECT_TRUE(verdict.ok) << verdict.detail;
}

// ---- transport-layer byte accounting ---------------------------------------

TEST(WireStats, MessageStatsTracksWireBytesPerKind) {
  net::MessageStats stats;
  stats.count_wire_sent(net::PacketKind::kRequest, 107);
  stats.count_wire_sent(net::PacketKind::kRequest, 111);
  stats.count_wire_received(net::PacketKind::kResponse, 132);
  EXPECT_EQ(stats.wire_bytes_sent(net::PacketKind::kRequest), 218u);
  EXPECT_EQ(stats.wire_bytes_received(net::PacketKind::kResponse), 132u);
  EXPECT_EQ(stats.total_wire_bytes_sent(), 218u);
  EXPECT_EQ(stats.total_wire_bytes_received(), 132u);
  // Wire accounting is a parallel ledger: the paper's payload metric is
  // untouched by it.
  EXPECT_EQ(stats.total_bytes(), 0u);
}

TEST(WireStats, ScenarioCountsWireBytesButFingerprintExcludesThem) {
  core::PrecinctConfig c;
  c.n_nodes = 16;
  c.area = {{0.0, 0.0}, {600.0, 600.0}};
  c.regions_x = c.regions_y = 2;
  c.catalog.n_items = 200;
  c.mean_request_interval_s = 3.0;
  c.warmup_s = 2.0;
  c.measure_s = 6.0;
  c.seed = 21;
  c.validate();

  const core::Metrics m = core::run_scenario(c);
  EXPECT_GT(m.wire_bytes_sent, 0u);
  // A broadcast charges one receive per in-range receiver, so the
  // received ledger normally dwarfs the sent one.
  EXPECT_GT(m.wire_bytes_received, 0u);

  // The pinned sim fingerprints predate the wire ledger and must stay
  // byte-identical: the fingerprint must not mention it.
  const std::string fp = core::fingerprint(m);
  EXPECT_EQ(fp.find("wire"), std::string::npos);
}

// ---- scripted workload ------------------------------------------------------

TEST(WorkloadScript, ParsesEventsAndIgnoresComments) {
  const std::string text =
      "# header comment\n"
      "\n"
      "0.5 request 3 0\n"
      "  2.25\tupdate 14 7  # trailing comment\n";
  const std::vector<workload::ScriptEvent> events =
      workload::parse_script(text);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_DOUBLE_EQ(events[0].t_s, 0.5);
  EXPECT_EQ(events[0].op, workload::ScriptEvent::Op::kRequest);
  EXPECT_EQ(events[0].node, 3u);
  EXPECT_EQ(events[0].rank, 0u);
  EXPECT_DOUBLE_EQ(events[1].t_s, 2.25);
  EXPECT_EQ(events[1].op, workload::ScriptEvent::Op::kUpdate);
  EXPECT_EQ(events[1].node, 14u);
  EXPECT_EQ(events[1].rank, 7u);
}

TEST(WorkloadScript, RejectsMalformedLines) {
  EXPECT_THROW((void)workload::parse_script("1.0 fetch 3 0\n"),
               std::invalid_argument);
  EXPECT_THROW((void)workload::parse_script("-1.0 request 3 0\n"),
               std::invalid_argument);
  EXPECT_THROW((void)workload::parse_script("1.0 request 3\n"),
               std::invalid_argument);
  EXPECT_THROW((void)workload::parse_script("1.0 request 3 0 junk\n"),
               std::invalid_argument);
}

// ---- FlatJson ---------------------------------------------------------------

TEST(FlatJson, ReadsBackWhatJsonObjectWrites) {
  support::JsonObject obj;
  obj.set("state", std::string("done"));
  obj.set("domain", std::uint64_t{3});
  obj.set("sim_now_s", 12.5);
  obj.set("clean", true);
  obj.set("note", std::string("a \"quoted\"\nline"));

  for (const bool pretty : {false, true}) {
    const support::FlatJson parsed = support::FlatJson::parse(obj.str(pretty));
    EXPECT_EQ(parsed.get_string("state"), "done");
    EXPECT_EQ(parsed.get_u64("domain"), 3u);
    EXPECT_DOUBLE_EQ(parsed.get_double("sim_now_s"), 12.5);
    EXPECT_EQ(parsed.get_string("note"), "a \"quoted\"\nline");
    EXPECT_TRUE(parsed.has("clean"));
    EXPECT_FALSE(parsed.has("missing"));
    EXPECT_THROW((void)parsed.get_u64("state"), std::invalid_argument);
    EXPECT_THROW((void)parsed.get_string("missing"), std::invalid_argument);
  }
}

TEST(FlatJson, RejectsNestingAndGarbage) {
  EXPECT_THROW((void)support::FlatJson::parse(""), std::invalid_argument);
  EXPECT_THROW((void)support::FlatJson::parse("{\"a\": {\"b\": 1}}"),
               std::invalid_argument);
  EXPECT_THROW((void)support::FlatJson::parse("{\"a\": [1, 2]}"),
               std::invalid_argument);
  EXPECT_THROW((void)support::FlatJson::parse("{\"a\": 1,}"),
               std::invalid_argument);
  EXPECT_THROW((void)support::FlatJson::parse("{\"a\" 1}"),
               std::invalid_argument);
}

// ---- UDP socket -------------------------------------------------------------

TEST(UdpSocketTest, ParseAddressRoundTrips) {
  const tw::UdpAddress a = tw::parse_address("127.0.0.1:47401");
  EXPECT_EQ(a.host, tw::kLoopbackHost);
  EXPECT_EQ(a.port, 47401);
  EXPECT_EQ(tw::to_string(a), "127.0.0.1:47401");
  EXPECT_THROW((void)tw::parse_address("127.0.0.1"), std::invalid_argument);
  EXPECT_THROW((void)tw::parse_address("nothost:12"), std::invalid_argument);
  EXPECT_THROW((void)tw::parse_address("127.0.0.1:99999"),
               std::invalid_argument);
}

TEST(UdpSocketTest, LoopbackDatagramDelivery) {
  tw::UdpSocket a(tw::UdpAddress{tw::kLoopbackHost, 0});
  tw::UdpSocket b(tw::UdpAddress{tw::kLoopbackHost, 0});
  ASSERT_NE(a.local_port(), 0);
  ASSERT_NE(b.local_port(), 0);

  const std::uint8_t payload[] = {1, 2, 3, 4};
  ASSERT_TRUE(a.send_to(tw::UdpAddress{tw::kLoopbackHost, b.local_port()},
                        payload, sizeof payload));
  ASSERT_TRUE(b.wait_readable(2000));
  std::vector<std::uint8_t> got;
  tw::UdpAddress from;
  ASSERT_TRUE(b.recv_from(got, &from));
  EXPECT_EQ(got, std::vector<std::uint8_t>(payload, payload + sizeof payload));
  EXPECT_EQ(from.host, tw::kLoopbackHost);
  EXPECT_EQ(from.port, a.local_port());
}

// ---- fleet fingerprint ------------------------------------------------------

TEST(FleetFingerprint, ValidatesDomainOrderAndAgreement) {
  tw::DomainReport d0;
  d0.domain = 0;
  d0.n_domains = 2;
  d0.lookahead_s = 0.25;
  d0.counters.windows = 10;
  tw::DomainReport d1 = d0;
  d1.domain = 1;

  const std::string fp = tw::fleet_fingerprint({d0, d1});
  EXPECT_EQ(fp.rfind("domains=2\n", 0), 0u) << fp;
  EXPECT_NE(fp.find("--- domain 0 ---"), std::string::npos);
  EXPECT_NE(fp.find("--- domain 1 ---"), std::string::npos);

  EXPECT_THROW((void)tw::fleet_fingerprint(std::vector<tw::DomainReport>{}),
               std::invalid_argument);
  EXPECT_THROW((void)tw::fleet_fingerprint({d1, d0}), std::invalid_argument);

  tw::DomainReport lagging = d1;
  lagging.counters.windows = 9;
  EXPECT_THROW((void)tw::fleet_fingerprint({d0, lagging}),
               std::invalid_argument);

  tw::DomainReport other_lookahead = d1;
  other_lookahead.lookahead_s = 0.5;
  EXPECT_THROW((void)tw::fleet_fingerprint({d0, other_lookahead}),
               std::invalid_argument);
}

// ---- two-daemon fleet vs the DES oracle ------------------------------------

/// A small 2-domain world busy enough to push frames and halo deltas
/// across the cut in both directions.
core::PrecinctConfig two_domain_config() {
  core::PrecinctConfig c;
  c.n_nodes = 24;
  c.area = {{0.0, 0.0}, {600.0, 600.0}};
  c.regions_x = c.regions_y = 2;
  c.v_max = 6.0;
  c.pause_s = 1.0;
  c.catalog.n_items = 200;
  c.mean_request_interval_s = 4.0;
  c.updates_enabled = true;
  c.consistency = consistency::Mode::kPushAdaptivePull;
  c.mean_update_interval_s = 10.0;
  c.warmup_s = 2.0;
  c.measure_s = 6.0;
  c.seed = 11;
  c.transport_retry_s = 0.02;
  c.transport_timeout_s = 20.0;
  c.transport_linger_s = 1.0;
  c.validate();
  return c;
}

TEST(TransportFleet, TwoDaemonFleetMatchesTheSimOracle) {
  const core::PrecinctConfig config = two_domain_config();

  // Let the OS pick two distinct free ports, then hand them to the
  // daemons (both sockets are alive while we read the ports, so they
  // cannot collide with each other).
  std::uint16_t port0 = 0;
  std::uint16_t port1 = 0;
  {
    tw::UdpSocket probe0(tw::UdpAddress{tw::kLoopbackHost, 0});
    tw::UdpSocket probe1(tw::UdpAddress{tw::kLoopbackHost, 0});
    port0 = probe0.local_port();
    port1 = probe1.local_port();
  }
  const std::vector<tw::UdpAddress> peers{
      {tw::kLoopbackHost, port0}, {tw::kLoopbackHost, port1}};

  std::vector<tw::DomainReport> reports(2);
  std::vector<std::string> errors(2);
  std::vector<std::thread> threads;
  for (std::uint32_t domain = 0; domain < 2; ++domain) {
    threads.emplace_back([&, domain] {
      try {
        tw::NodeDaemon::Options opts;
        opts.config = config;
        opts.domain = domain;
        opts.peers = peers;
        tw::NodeDaemon daemon(opts);
        const tw::NodeDaemon::Outcome outcome =
            daemon.run([] { return false; });
        if (outcome != tw::NodeDaemon::Outcome::kDone) {
          errors[domain] = "daemon did not run to the horizon";
          return;
        }
        reports[domain] = daemon.report();
      } catch (const std::exception& e) {
        errors[domain] = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_TRUE(errors[0].empty()) << "domain 0: " << errors[0];
  ASSERT_TRUE(errors[1].empty()) << "domain 1: " << errors[1];

  const std::string fleet = tw::fleet_fingerprint(reports);
  const std::string oracle =
      tw::fleet_fingerprint(core::run_world_scenario(config));
  EXPECT_EQ(fleet, oracle);

  // The run must have exercised the wire for real in both directions.
  for (const tw::DomainReport& r : reports) {
    EXPECT_GT(r.counters.datagrams_sent, 0u);
    EXPECT_GT(r.counters.datagrams_received, 0u);
    EXPECT_GT(r.metrics.wire_bytes_sent + r.metrics.wire_bytes_received, 0u);
  }
}

TEST(TransportFleet, InjectedRequestHoldsBackTheNextWindow) {
  // A quiet world — static nodes, no workload, no updates — where the
  // agreed next window can lie far ahead.  An operator request that is
  // queued before run() is applied after the first window and before the
  // daemon publishes its next-event bound, so the windows its frames need
  // are kept.  Applied after the barrier instead, its first cross-cut
  // frame would be due before the agreed window end and abort the run.
  core::PrecinctConfig config = two_domain_config();
  config.mobile = false;
  config.updates_enabled = false;
  config.mean_request_interval_s = 1e9;
  config.warmup_s = 0.0;
  config.measure_s = 4.0;
  config.validate();

  std::vector<tw::UdpAddress> peers;
  {
    tw::UdpSocket probe0(tw::UdpAddress{tw::kLoopbackHost, 0});
    tw::UdpSocket probe1(tw::UdpAddress{tw::kLoopbackHost, 0});
    peers = {{tw::kLoopbackHost, probe0.local_port()},
             {tw::kLoopbackHost, probe1.local_port()}};
  }
  std::vector<std::unique_ptr<tw::NodeDaemon>> daemons;
  for (std::uint32_t domain = 0; domain < 2; ++domain) {
    tw::NodeDaemon::Options opts;
    opts.config = config;
    opts.domain = domain;
    opts.peers = peers;
    daemons.push_back(std::make_unique<tw::NodeDaemon>(opts));
  }

  // What `precinct_ctl inject` sends: every daemon hears it, only node
  // 0's owner applies it.
  tw::InjectMsg inject;
  inject.inject_id = 7;
  inject.op = 0;
  inject.node = 0;
  inject.key_rank = 0;
  tw::Envelope env;
  env.type = tw::MsgType::kInject;
  env.src_domain = tw::kCtlDomain;
  tw::WireWriter w;
  tw::encode_envelope(env, w);
  tw::encode_inject(inject, w);
  tw::UdpSocket ctl(tw::UdpAddress{tw::kLoopbackHost, 0});
  for (const tw::UdpAddress& peer : peers) {
    ASSERT_TRUE(ctl.send_to(peer, w.data().data(), w.size()));
  }

  std::vector<std::string> errors(2);
  std::vector<std::thread> threads;
  for (std::uint32_t domain = 0; domain < 2; ++domain) {
    threads.emplace_back([&, domain] {
      try {
        if (daemons[domain]->run([] { return false; }) !=
            tw::NodeDaemon::Outcome::kDone) {
          errors[domain] = "daemon did not run to the horizon";
        }
      } catch (const std::exception& e) {
        errors[domain] = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_TRUE(errors[0].empty()) << "domain 0: " << errors[0];
  ASSERT_TRUE(errors[1].empty()) << "domain 1: " << errors[1];

  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  for (const auto& daemon : daemons) {
    issued += daemon->report().metrics.requests_issued;
    completed += daemon->report().metrics.requests_completed;
  }
  EXPECT_EQ(issued, 1u);
  EXPECT_EQ(completed, 1u);
  // The quiet world really skipped windows: far fewer than the grid's.
  EXPECT_LT(daemons[0]->report().counters.windows,
            static_cast<std::uint64_t>(config.measure_s /
                                       daemons[0]->lookahead_s()) /
                2);
}

}  // namespace
