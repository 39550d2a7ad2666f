#include "check/scenario_fuzz.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <utility>
#include <vector>

#include "check/invariant_violation.hpp"
#include "core/config_io.hpp"
#include "core/scenario.hpp"
#include "core/world_scenario.hpp"
#include "net/packet.hpp"
#include "support/rng.hpp"
#include "transport/wire_format.hpp"

namespace precinct::check {

namespace {

/// Draw one candidate config; the caller filters through validate().
/// Deliberately free-ranging: invalid combinations (e.g. a flooding
/// baseline with a polling consistency scheme) are drawn, rejected and
/// redrawn, so the validate() filter is exercised for real.
core::PrecinctConfig draw_candidate(support::Rng& rng,
                                    std::uint64_t case_seed) {
  core::PrecinctConfig c;
  c.n_nodes = 12 + rng.uniform_int(37);  // 12..48
  const double side = 400.0 + 100.0 * static_cast<double>(rng.uniform_int(7));
  c.area = {{0.0, 0.0}, {side, side}};
  c.regions_x = c.regions_y = static_cast<std::uint32_t>(2 + rng.uniform_int(2));

  c.mobile = rng.uniform() < 0.7;
  if (c.mobile) {
    static const char* const kMobility[] = {"random-waypoint",
                                            "random-direction", "gauss-markov",
                                            "manhattan", "commuter"};
    c.mobility_model = kMobility[rng.uniform_int(5)];
    c.v_max = rng.uniform(2.0, 8.0);
    if (c.mobility_model == "manhattan") {
      c.street_spacing_m = 80.0 + 20.0 * static_cast<double>(rng.uniform_int(4));
      c.turn_probability = rng.uniform(0.0, 1.0);
    } else if (c.mobility_model == "commuter") {
      c.commuter_period_s = rng.uniform(40.0, 120.0);
      c.commuter_hubs = 1 + rng.uniform_int(4);
    }
  } else {
    c.mobility_model = "static";
  }

  // Heterogeneous fleets (DESIGN.md §15): a quarter of the draws split
  // the fleet into two classes, sometimes pinning one as fixed roadside
  // units with their own cache budget.
  if (rng.uniform() < 0.25 && c.n_nodes >= 4) {
    const std::size_t first = 1 + rng.uniform_int(c.n_nodes - 2);
    core::NodeClassConfig a;
    a.name = "m0";
    a.count = first;
    if (rng.uniform() < 0.5) a.speed = rng.uniform(1.0, 6.0);
    core::NodeClassConfig b;
    b.name = "m1";
    b.count = c.n_nodes - first;
    if (rng.uniform() < 0.5) {
      b.fixed = true;
      b.cache_kb = rng.uniform(4.0, 64.0);
    }
    c.node_classes = {a, b};
  }

  c.catalog.n_items = 200 + 100 * rng.uniform_int(4);
  c.zipf_theta = rng.uniform(0.4, 1.0);
  c.mean_request_interval_s = rng.uniform(4.0, 12.0);
  c.cache_fraction = rng.uniform(0.005, 0.03);
  c.prefetch_count = rng.uniform_int(3);
  c.replica_count = rng.uniform_int(3);  // may exceed the grid: validate()
                                         // rejects and the case is redrawn

  static const core::RetrievalKind kRetrieval[] = {
      core::RetrievalKind::kPrecinct, core::RetrievalKind::kFlooding,
      core::RetrievalKind::kExpandingRing};
  c.retrieval = kRetrieval[rng.uniform_int(3)];
  static const consistency::Mode kConsistency[] = {
      consistency::Mode::kNone, consistency::Mode::kPlainPush,
      consistency::Mode::kPullEveryTime, consistency::Mode::kPushAdaptivePull};
  c.consistency = kConsistency[rng.uniform_int(4)];
  if (c.consistency != consistency::Mode::kNone) {
    c.updates_enabled = true;
    c.mean_update_interval_s = rng.uniform(8.0, 30.0);
  }

  c.use_beacons = rng.uniform() < 0.3;
  c.request_retries = static_cast<int>(rng.uniform_int(4));
  c.push_retries = static_cast<int>(rng.uniform_int(4));

  static const char* const kChannel[] = {"perfect", "perfect", "bernoulli",
                                         "gilbert-elliott", "distance"};
  c.wireless.channel.model = kChannel[rng.uniform_int(5)];
  c.wireless.channel.loss_p = rng.uniform(0.0, 0.3);
  c.wireless.channel.ge_enter_burst_p = rng.uniform(0.0, 0.05);

  if (rng.uniform() < 0.25) {
    c.crash_rate_per_s = 0.01;
    c.join_rate_per_s = 0.01;
    c.graceful_fraction = rng.uniform();
  }
  c.dynamic_regions = rng.uniform() < 0.2;

  c.warmup_s = 5.0 + static_cast<double>(rng.uniform_int(11));
  c.measure_s = 15.0 + static_cast<double>(rng.uniform_int(26));
  c.seed = support::hash_combine(case_seed, 0x5EEDu);
  c.check = "all";
  static const std::uint64_t kStrides[] = {1, 7, 64};
  c.check_stride = kStrides[rng.uniform_int(3)];
  return c;
}

/// Overwrite the channel with a configured-to-drop-nothing lossy model;
/// the property compares it against the perfect channel byte-for-byte.
void make_null_fault_channel(core::PrecinctConfig& c, std::uint64_t pick) {
  channel::ChannelConfig& ch = c.wireless.channel;
  switch (pick % 3) {
    case 0:
      ch.model = "bernoulli";
      ch.loss_p = 0.0;
      break;
    case 1:
      ch.model = "scripted";
      ch.blackouts.clear();
      ch.partitions.clear();
      break;
    default:
      ch.model = "gilbert-elliott";
      ch.ge_loss_good = 0.0;
      ch.ge_loss_bad = 0.0;
      break;
  }
}

std::string run_fingerprint(const core::PrecinctConfig& c) {
  return core::fingerprint(core::run_scenario(c));
}

std::string diff_detail(const char* label, const std::string& a,
                        const std::string& b) {
  return std::string(label) + "\n--- first\n" + a + "--- second\n" + b;
}

/// One wire-codec trial: draw a hostile packet of `kind`, then require
/// (a) encode matches wire_size(), (b) decode accepts its own encoding
/// exactly (no trailing bytes) and reproduces every field bit-for-bit,
/// (c) re-encoding the decoded packet is byte-identical (fixed point),
/// (d) every strict prefix of the encoding is rejected.  Returns empty on
/// success, else a detail string ending in a replayable hex repro.
std::string wire_codec_trial(support::Rng& rng, net::PacketKind kind) {
  namespace tw = transport;
  const net::Packet p = tw::random_wire_packet(rng, kind);
  tw::WireWriter w;
  tw::encode_packet(p, w);
  const std::string hex = tw::to_hex(w.data());
  const auto fail = [&](const std::string& what) {
    return "wire-codec [" + std::string(net::to_string(kind)) + "] " + what +
           "\npacket-hex: " + hex + "\nreplay: precinct_fuzz --packet-hex " +
           hex;
  };
  if (w.size() != tw::wire_size(p)) {
    return fail("wire_size() says " + std::to_string(tw::wire_size(p)) +
                " bytes but encode_packet wrote " + std::to_string(w.size()));
  }
  net::Packet back;
  {
    tw::WireReader r(w.data().data(), w.size());
    if (!tw::decode_packet(r, back)) {
      return fail("decode_packet rejected its own encoding");
    }
    if (r.remaining() != 0) {
      return fail("decode_packet left " + std::to_string(r.remaining()) +
                  " trailing bytes unread");
    }
  }
  if (!tw::packets_identical(p, back)) {
    return fail("decoded packet differs bit-for-bit from the original");
  }
  tw::WireWriter again;
  tw::encode_packet(back, again);
  if (again.data() != w.data()) {
    return fail("encode(decode(encode(p))) is not a fixed point");
  }
  for (std::size_t cut = 0; cut < w.size(); ++cut) {
    net::Packet truncated;
    tw::WireReader r(w.data().data(), cut);
    if (tw::decode_packet(r, truncated)) {
      return fail("truncation to " + std::to_string(cut) +
                  " bytes was accepted");
    }
  }
  return {};
}

/// Envelope half of the codec property: round-trip exactness plus
/// rejection of a bumped version byte, corrupt magic, and truncation.
std::string wire_envelope_trial(support::Rng& rng) {
  namespace tw = transport;
  tw::Envelope e;
  e.type = static_cast<tw::MsgType>(  // kHello..kBatch
      1 + rng.uniform_int(static_cast<std::uint64_t>(tw::MsgType::kBatch)));
  e.src_domain = static_cast<std::uint32_t>(rng.bits());
  e.seq = rng.bits();
  tw::WireWriter w;
  tw::encode_envelope(e, w);
  const auto fail = [&](const std::string& what) {
    return "wire-codec [envelope] " + what +
           "\npacket-hex: " + tw::to_hex(w.data());
  };
  if (w.size() != tw::kEnvelopeBytes) {
    return fail("encoded envelope is " + std::to_string(w.size()) +
                " bytes, expected " + std::to_string(tw::kEnvelopeBytes));
  }
  {
    tw::WireReader r(w.data().data(), w.size());
    tw::Envelope back;
    if (!tw::decode_envelope(r, back)) {
      return fail("decode_envelope rejected its own encoding");
    }
    if (back.type != e.type || back.src_domain != e.src_domain ||
        back.seq != e.seq) {
      return fail("envelope round-trip changed a field");
    }
  }
  std::vector<std::uint8_t> bent = w.data();
  bent[tw::kMagicBytes] = static_cast<std::uint8_t>(tw::kWireVersion + 1);
  {
    tw::WireReader r(bent.data(), bent.size());
    tw::Envelope back;
    if (tw::decode_envelope(r, back)) {
      return fail("wrong-version envelope was accepted");
    }
  }
  bent = w.data();
  bent[0] ^= 0xFF;
  {
    tw::WireReader r(bent.data(), bent.size());
    tw::Envelope back;
    if (tw::decode_envelope(r, back)) {
      return fail("corrupt-magic envelope was accepted");
    }
  }
  for (std::size_t cut = 0; cut < w.size(); ++cut) {
    tw::WireReader r(w.data().data(), cut);
    tw::Envelope back;
    if (tw::decode_envelope(r, back)) {
      return fail("envelope truncated to " + std::to_string(cut) +
                  " bytes was accepted");
    }
  }
  return {};
}

/// Batch half of the codec property: a random run of encoded frames plus
/// a closing WindowEnd marker, packed the way UdpNet packs a window, must
/// come back entry for entry, in order, from batches of at most
/// kMaxDatagram bytes, each filled until the next entry would not fit;
/// every strict truncation of a batch, and a batch nested in a batch,
/// must be rejected.
std::string wire_batch_trial(support::Rng& rng) {
  namespace tw = transport;
  const auto src = static_cast<std::uint32_t>(rng.bits());
  std::vector<tw::WireWriter> inner(1 + rng.uniform_int(48));
  for (std::size_t i = 0; i + 1 < inner.size(); ++i) {
    tw::FrameMsg f;
    f.due = rng.uniform(0.0, 1e4);
    f.is_unicast = rng.uniform_int(2) == 0;
    f.next_hop = static_cast<net::NodeId>(rng.bits());
    f.packet = tw::random_wire_packet(
        rng, static_cast<net::PacketKind>(
                 rng.uniform_int(net::kPacketKindCount)));
    tw::encode_envelope(tw::Envelope{tw::MsgType::kFrame, src, i}, inner[i]);
    tw::encode_frame(f, inner[i]);
  }
  tw::WindowEndMsg marker;
  marker.window = rng.bits();
  marker.cum_sent = inner.size() - 1;
  tw::encode_envelope(tw::Envelope{tw::MsgType::kWindowEnd, src, 0},
                      inner.back());
  tw::encode_window_end(marker, inner.back());

  std::vector<tw::DatagramView> entries;
  for (const tw::WireWriter& w : inner) entries.emplace_back(w.data());
  std::vector<std::vector<std::uint8_t>> batches;
  tw::BatchPacker packer;
  packer.pack(src, entries, [&](tw::DatagramView b) {
    batches.emplace_back(b.begin(), b.end());
  });

  std::size_t next = 0;  // index of the first entry of the current batch
  std::vector<tw::DatagramView> back;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const std::vector<std::uint8_t>& batch = batches[b];
    const auto fail = [&](const std::string& what) {
      return "wire-codec [batch " + std::to_string(b) + " of " +
             std::to_string(batches.size()) + "] " + what +
             "\npacket-hex: " + tw::to_hex(batch);
    };
    if (batch.size() > tw::kMaxDatagram) {
      return fail("is " + std::to_string(batch.size()) + " bytes");
    }
    tw::WireReader r(batch.data(), batch.size());
    tw::Envelope e;
    if (!tw::decode_envelope(r, e) || e.type != tw::MsgType::kBatch ||
        e.src_domain != src || !tw::decode_batch(r, back)) {
      return fail("did not decode as a batch from its sender");
    }
    for (const tw::DatagramView got : back) {
      if (next >= entries.size() ||
          !std::equal(got.begin(), got.end(), entries[next].begin(),
                      entries[next].end())) {
        return fail("entry " + std::to_string(next) +
                    " differs from what was packed");
      }
      ++next;
    }
    if (b + 1 < batches.size() &&
        batch.size() + tw::kBatchEntryHeaderBytes + entries[next].size() <=
            tw::kMaxDatagram) {
      return fail("was cut although entry " + std::to_string(next) +
                  " still fit");
    }
    for (std::size_t cut = 0; cut < batch.size(); ++cut) {
      tw::WireReader t(batch.data(), cut);
      if (tw::decode_envelope(t, e) && tw::decode_batch(t, back)) {
        return fail("truncation to " + std::to_string(cut) +
                    " bytes was accepted");
      }
    }
    tw::WireWriter nested;
    tw::encode_envelope(tw::Envelope{tw::MsgType::kBatch, src, 0}, nested);
    nested.u16(1);
    nested.u16(static_cast<std::uint16_t>(batch.size()));
    nested.bytes(batch.data(), batch.size());
    tw::WireReader n(nested.data().data(), nested.size());
    if (tw::decode_envelope(n, e) && tw::decode_batch(n, back)) {
      return fail("was accepted nested in another batch");
    }
  }
  if (next != entries.size()) {
    return "wire-codec [batch] " + std::to_string(batches.size()) +
           " batches carried " + std::to_string(next) + " of " +
           std::to_string(entries.size()) + " entries";
  }
  return {};
}

}  // namespace

const char* to_string(Property p) noexcept {
  switch (p) {
    case Property::kReplayIdentical: return "replay-identical";
    case Property::kNullFaultIdentical: return "null-fault-identical";
    case Property::kNoRetryNoResend: return "no-retry-no-resend";
    case Property::kWorldShardInvariant: return "world-shard-invariant";
    case Property::kWireCodec: return "wire-codec";
    case Property::kHeterogeneousEquivalent: return "hetero-equivalent";
  }
  return "unknown";
}

FuzzCase draw_scenario(std::uint64_t case_seed) {
  FuzzCase fc;
  fc.case_seed = case_seed;
  fc.property = static_cast<Property>(case_seed % kPropertyCount);
  support::Rng rng(support::hash_combine(case_seed, 0xF0220FuLL));
  for (int attempt = 0; attempt < 64; ++attempt) {
    core::PrecinctConfig c = draw_candidate(rng, case_seed);
    if (fc.property == Property::kNullFaultIdentical) {
      make_null_fault_channel(c, case_seed / kPropertyCount);
    } else if (fc.property == Property::kNoRetryNoResend) {
      c.request_retries = 0;
      c.push_retries = 0;
    } else if (fc.property == Property::kWorldShardInvariant) {
      // One world cut into region-column domains: dynamic_regions is a
      // global reconfiguration the cut cannot carry.  Boundary-heavy
      // mobility (fast nodes, short pauses) keeps traffic straddling the
      // cut; the case is run twice (shards = 1 vs K) so trim the windows
      // to keep it cheap.
      c.dynamic_regions = false;
      if (c.mobile) {
        c.v_max = rng.uniform(5.0, 10.0);
        c.pause_s = rng.uniform(0.0, 2.0);
      }
      c.warmup_s = 3.0;
      c.measure_s = 8.0 + static_cast<double>(rng.uniform_int(6));
    } else if (fc.property == Property::kHeterogeneousEquivalent) {
      // The property wraps the fleet in a synthetic single class itself;
      // the baseline must be genuinely homogeneous.  Run twice (or three
      // times when mobile), so trim the windows to keep it cheap.
      c.node_classes.clear();
      c.warmup_s = 3.0;
      c.measure_s = 8.0 + static_cast<double>(rng.uniform_int(6));
    } else if (fc.property == Property::kWireCodec) {
      // The codec property never runs the scenario — the config only
      // anchors the repro contract (same case seed, same case).  Keep the
      // drawn windows tiny so a curious `precinct_sim --config` replay of
      // the repro file stays cheap.
      c.warmup_s = 1.0;
      c.measure_s = 2.0;
    }
    try {
      c.validate();
    } catch (const std::invalid_argument&) {
      ++fc.draws_rejected;
      continue;
    }
    fc.config = std::move(c);
    return fc;
  }
  throw std::runtime_error(
      "scenario fuzz: 64 consecutive draws failed validate() for seed " +
      std::to_string(case_seed));
}

FuzzVerdict run_fuzz_case(const FuzzCase& fc) {
  try {
    switch (fc.property) {
      case Property::kReplayIdentical: {
        const std::string first = run_fingerprint(fc.config);
        const std::string second = run_fingerprint(fc.config);
        if (first != second) {
          return {false,
                  diff_detail("same-seed reruns diverged", first, second)};
        }
        return {};
      }
      case Property::kNullFaultIdentical: {
        core::PrecinctConfig perfect = fc.config;
        perfect.wireless.channel.model = "perfect";
        const std::string baseline = run_fingerprint(perfect);
        const std::string nulled = run_fingerprint(fc.config);
        if (baseline != nulled) {
          return {false,
                  diff_detail(("null-fault '" + fc.config.wireless.channel.model +
                               "' channel diverged from 'perfect'")
                                  .c_str(),
                              baseline, nulled)};
        }
        return {};
      }
      case Property::kNoRetryNoResend: {
        const core::Metrics first = core::run_scenario(fc.config);
        if (first.retransmissions != 0) {
          return {false, "retries disabled but retransmissions=" +
                             std::to_string(first.retransmissions)};
        }
        const core::Metrics second = core::run_scenario(fc.config);
        if (core::fingerprint(first) != core::fingerprint(second)) {
          return {false, diff_detail("no-retry reruns diverged",
                                     core::fingerprint(first),
                                     core::fingerprint(second))};
        }
        return {};
      }
      case Property::kWorldShardInvariant: {
        core::PrecinctConfig single = fc.config;
        single.shards = 1;
        core::PrecinctConfig sharded = fc.config;
        sharded.shards = static_cast<std::uint32_t>(
            2 + (fc.case_seed / kPropertyCount) % 3);  // 2..4 worker shards
        const std::string one =
            core::world_fingerprint(core::run_world_scenario(single));
        const std::string many =
            core::world_fingerprint(core::run_world_scenario(sharded));
        if (one != many) {
          return {false,
                  diff_detail(("world shards=" + std::to_string(sharded.shards) +
                               " diverged from shards=1")
                                  .c_str(),
                              one, many)};
        }
        return {};
      }
      case Property::kWireCodec: {
        // Pure codec metamorphism: several hostile packets per PacketKind,
        // plus the envelope's version/magic/truncation gates.  The rng is
        // derived from the case seed, so `--replay <seed>` reproduces the
        // exact packet sequence.
        support::Rng rng(support::hash_combine(fc.case_seed, 0xC0DECuLL));
        for (std::size_t kind = 0; kind < net::kPacketKindCount; ++kind) {
          for (int rep = 0; rep < 4; ++rep) {
            std::string detail =
                wire_codec_trial(rng, static_cast<net::PacketKind>(kind));
            if (!detail.empty()) return {false, std::move(detail)};
          }
        }
        std::string detail = wire_envelope_trial(rng);
        if (detail.empty()) detail = wire_batch_trial(rng);
        if (!detail.empty()) return {false, std::move(detail)};
        return {};
      }
      case Property::kHeterogeneousEquivalent: {
        // The class machinery must be an exact no-op when it has nothing
        // to express: one class covering the whole fleet, no overrides.
        const std::string homogeneous = run_fingerprint(fc.config);
        core::PrecinctConfig wrapped = fc.config;
        core::NodeClassConfig all;
        all.name = "all";
        all.count = fc.config.n_nodes;
        wrapped.node_classes = {all};
        const std::string single_class = run_fingerprint(wrapped);
        if (homogeneous != single_class) {
          return {false, diff_detail("single-class fleet diverged from the "
                                     "homogeneous config",
                                     homogeneous, single_class)};
        }
        if (fc.config.mobile && fc.config.mobility_model != "static") {
          // Pinning the class speed to the scenario's v_max must also be
          // a no-op: the override resolves to the same speed band.
          all.speed = fc.config.v_max;
          wrapped.node_classes = {all};
          const std::string pinned = run_fingerprint(wrapped);
          if (homogeneous != pinned) {
            return {false,
                    diff_detail("class speed pinned to v_max diverged from "
                                "the homogeneous config",
                                homogeneous, pinned)};
          }
        }
        return {};
      }
    }
    return {false, "unknown property"};
  } catch (const InvariantViolation& e) {
    return {false, std::string("invariant violation: ") + e.what()};
  } catch (const std::exception& e) {
    return {false, std::string("exception: ") + e.what()};
  }
}

std::string write_repro(const FuzzCase& fc, const std::string& dir,
                        const std::string& reason) {
  std::filesystem::create_directories(dir);
  const std::string path =
      dir + "/fuzz_" + std::to_string(fc.case_seed) + ".conf";
  std::string text = "# scenario-fuzz repro (property '" +
                     std::string(to_string(fc.property)) + "', case seed " +
                     std::to_string(fc.case_seed) + ")\n";
  // Prefix every reason line so multi-line diffs stay comments.
  std::size_t pos = 0;
  while (pos <= reason.size() && !reason.empty()) {
    const std::size_t end = std::min(reason.find('\n', pos), reason.size());
    text += "# " + reason.substr(pos, end - pos) + "\n";
    if (end >= reason.size()) break;
    pos = end + 1;
  }
  text += "# replay: precinct_sim --config " + path + "\n";
  text += core::config_to_string(fc.config);

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    throw std::runtime_error("scenario fuzz: cannot open '" + path +
                             "' for writing");
  }
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != text.size() || !closed) {
    throw std::runtime_error("scenario fuzz: short write to '" + path + "'");
  }
  return path;
}

FuzzVerdict replay_packet_hex(const std::string& hex) {
  namespace tw = transport;
  try {
    const std::vector<std::uint8_t> bytes = tw::from_hex(hex);
    net::Packet p;
    tw::WireReader r(bytes.data(), bytes.size());
    if (!tw::decode_packet(r, p)) {
      return {false, "decode_packet rejected the buffer"};
    }
    if (r.remaining() != 0) {
      return {false, "decode_packet left " + std::to_string(r.remaining()) +
                         " trailing bytes unread"};
    }
    tw::WireWriter w;
    tw::encode_packet(p, w);
    if (w.data() != bytes) {
      return {false, std::string("re-encode is not byte-identical\n") +
                         "--- input\n" + hex + "\n--- re-encoded\n" +
                         tw::to_hex(w.data())};
    }
    return {true, std::string("decoded a ") + net::to_string(p.kind) +
                      " packet; re-encode is byte-identical"};
  } catch (const std::exception& e) {
    return {false, std::string("exception: ") + e.what()};
  }
}

}  // namespace precinct::check
