#include "transport/wire_format.hpp"

#include <bit>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace precinct::transport {

namespace {

[[nodiscard]] std::uint64_t dbits(double v) noexcept {
  return std::bit_cast<std::uint64_t>(v);
}

[[nodiscard]] double dfrom(std::uint64_t bits) noexcept {
  return std::bit_cast<double>(bits);
}

[[nodiscard]] bool point_nonzero(const geo::Point& p) noexcept {
  return dbits(p.x) != 0 || dbits(p.y) != 0;
}

// Packet flags byte.
constexpr std::uint8_t kFlagPerimeter = 0x01;
constexpr std::uint8_t kFlagRecovery = 0x02;
constexpr std::uint8_t kFlagDestNode = 0x04;
constexpr std::uint8_t kFlagDestRegion = 0x08;
constexpr std::uint8_t kFlagPerimeterBlock = 0x10;
constexpr std::uint8_t kFlagResponseBlock = 0x20;
constexpr std::uint8_t kFlagKnownMask = 0x3F;

/// Presence is decided on bit patterns (never numeric comparison) so the
/// encode→decode→encode fixed point holds for -0.0 and NaN payloads too.
[[nodiscard]] bool needs_perimeter_block(const net::Packet& p) noexcept {
  return p.perimeter || point_nonzero(p.perimeter_entry) ||
         p.perimeter_entry_node != net::kNoNode ||
         p.perimeter_first_hop != net::kNoNode;
}

[[nodiscard]] bool needs_response_block(const net::Packet& p) noexcept {
  return p.version != 0 || dbits(p.ttr_s) != 0 || p.hit_class != 0 ||
         p.responder_region != geo::kInvalidRegion;
}

[[nodiscard]] std::uint8_t packet_flags(const net::Packet& p) noexcept {
  std::uint8_t flags = 0;
  if (p.perimeter) flags |= kFlagPerimeter;
  if (p.recovery) flags |= kFlagRecovery;
  if (p.dest_node != net::kNoNode) flags |= kFlagDestNode;
  if (p.dest_region != geo::kInvalidRegion) flags |= kFlagDestRegion;
  if (needs_perimeter_block(p)) flags |= kFlagPerimeterBlock;
  if (needs_response_block(p)) flags |= kFlagResponseBlock;
  return flags;
}

constexpr std::size_t kPacketFixedBytes = 107;
constexpr std::size_t kDestNodeBytes = 4;
constexpr std::size_t kDestRegionBytes = 4;
constexpr std::size_t kPerimeterBlockBytes = 24;
constexpr std::size_t kResponseBlockBytes = 21;

constexpr std::uint8_t kRouteModeCount = 3;

}  // namespace

const char* to_string(MsgType type) noexcept {
  switch (type) {
    case MsgType::kHello: return "hello";
    case MsgType::kWindowEnd: return "window-end";
    case MsgType::kFrame: return "frame";
    case MsgType::kLiveness: return "liveness";
    case MsgType::kRegion: return "region";
    case MsgType::kCatalog: return "catalog";
    case MsgType::kNack: return "nack";
    case MsgType::kBye: return "bye";
    case MsgType::kInject: return "inject";
    case MsgType::kBatch: return "batch";
  }
  return "unknown";
}

// -- writer / reader --------------------------------------------------------

void WireWriter::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void WireWriter::u32(std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    buf_.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void WireWriter::u64(std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    buf_.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void WireWriter::f64(double v) { u64(dbits(v)); }

void WireWriter::bytes(const void* data, std::size_t n) {
  const auto* b = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), b, b + n);
}

void WireWriter::patch_u16(std::size_t offset, std::uint16_t v) {
  buf_.at(offset) = static_cast<std::uint8_t>(v);
  buf_.at(offset + 1) = static_cast<std::uint8_t>(v >> 8);
}

bool WireReader::take(std::size_t n) noexcept {
  if (!ok_ || n_ - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

bool WireReader::u8(std::uint8_t& v) noexcept {
  if (!take(1)) return false;
  v = p_[pos_++];
  return true;
}

bool WireReader::u16(std::uint16_t& v) noexcept {
  if (!take(2)) return false;
  v = static_cast<std::uint16_t>(p_[pos_] |
                                 (static_cast<std::uint16_t>(p_[pos_ + 1])
                                  << 8));
  pos_ += 2;
  return true;
}

bool WireReader::u32(std::uint32_t& v) noexcept {
  if (!take(4)) return false;
  v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(p_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  return true;
}

bool WireReader::u64(std::uint64_t& v) noexcept {
  if (!take(8)) return false;
  v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(p_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  return true;
}

bool WireReader::f64(double& v) noexcept {
  std::uint64_t bits = 0;
  if (!u64(bits)) return false;
  v = dfrom(bits);
  return true;
}

bool WireReader::bytes(std::size_t n,
                       std::span<const std::uint8_t>& v) noexcept {
  if (!take(n)) return false;
  v = {p_ + pos_, n};
  pos_ += n;
  return true;
}

// -- Packet codec -----------------------------------------------------------

std::size_t wire_size(const net::Packet& p) noexcept {
  std::size_t n = kPacketFixedBytes;
  if (p.dest_node != net::kNoNode) n += kDestNodeBytes;
  if (p.dest_region != geo::kInvalidRegion) n += kDestRegionBytes;
  if (needs_perimeter_block(p)) n += kPerimeterBlockBytes;
  if (needs_response_block(p)) n += kResponseBlockBytes;
  return n;
}

void encode_packet(const net::Packet& p, WireWriter& w) {
  const std::uint8_t flags = packet_flags(p);
  w.u8(static_cast<std::uint8_t>(p.kind));
  w.u8(static_cast<std::uint8_t>(p.mode));
  w.u8(flags);
  w.u64(p.id);
  w.u32(p.origin);
  w.u32(p.src);
  w.f64(p.src_location.x);
  w.f64(p.src_location.y);
  w.f64(p.origin_location.x);
  w.f64(p.origin_location.y);
  w.f64(p.dest_location.x);
  w.f64(p.dest_location.y);
  w.u64(p.key);
  w.u64(static_cast<std::uint64_t>(p.size_bytes));
  w.u32(static_cast<std::uint32_t>(p.ttl));
  w.u32(static_cast<std::uint32_t>(p.hops));
  w.u64(p.request_id);
  w.f64(p.created_at);
  if (flags & kFlagDestNode) w.u32(p.dest_node);
  if (flags & kFlagDestRegion) w.u32(p.dest_region);
  if (flags & kFlagPerimeterBlock) {
    w.f64(p.perimeter_entry.x);
    w.f64(p.perimeter_entry.y);
    w.u32(p.perimeter_entry_node);
    w.u32(p.perimeter_first_hop);
  }
  if (flags & kFlagResponseBlock) {
    w.u64(p.version);
    w.f64(p.ttr_s);
    w.u8(p.hit_class);
    w.u32(p.responder_region);
  }
}

bool decode_packet(WireReader& r, net::Packet& p) noexcept {
  p = net::Packet{};
  std::uint8_t kind = 0;
  std::uint8_t mode = 0;
  std::uint8_t flags = 0;
  if (!r.u8(kind) || !r.u8(mode) || !r.u8(flags)) return false;
  if (kind >= net::kPacketKindCount || mode >= kRouteModeCount ||
      (flags & ~kFlagKnownMask) != 0) {
    return false;
  }
  p.kind = static_cast<net::PacketKind>(kind);
  p.mode = static_cast<net::RouteMode>(mode);
  p.perimeter = (flags & kFlagPerimeter) != 0;
  p.recovery = (flags & kFlagRecovery) != 0;
  std::uint64_t size_bytes = 0;
  std::uint32_t ttl = 0;
  std::uint32_t hops = 0;
  r.u64(p.id);
  r.u32(p.origin);
  r.u32(p.src);
  r.f64(p.src_location.x);
  r.f64(p.src_location.y);
  r.f64(p.origin_location.x);
  r.f64(p.origin_location.y);
  r.f64(p.dest_location.x);
  r.f64(p.dest_location.y);
  r.u64(p.key);
  r.u64(size_bytes);
  r.u32(ttl);
  r.u32(hops);
  r.u64(p.request_id);
  r.f64(p.created_at);
  if (flags & kFlagDestNode) r.u32(p.dest_node);
  if (flags & kFlagDestRegion) r.u32(p.dest_region);
  if (flags & kFlagPerimeterBlock) {
    r.f64(p.perimeter_entry.x);
    r.f64(p.perimeter_entry.y);
    r.u32(p.perimeter_entry_node);
    r.u32(p.perimeter_first_hop);
  }
  if (flags & kFlagResponseBlock) {
    r.u64(p.version);
    r.f64(p.ttr_s);
    r.u8(p.hit_class);
    r.u32(p.responder_region);
  }
  if (!r.ok()) return false;
  p.size_bytes = static_cast<std::size_t>(size_bytes);
  p.ttl = static_cast<int>(ttl);
  p.hops = static_cast<int>(hops);
  return true;
}

bool packets_identical(const net::Packet& a, const net::Packet& b) noexcept {
  return a.id == b.id && a.kind == b.kind && a.mode == b.mode &&
         a.origin == b.origin && a.src == b.src &&
         dbits(a.src_location.x) == dbits(b.src_location.x) &&
         dbits(a.src_location.y) == dbits(b.src_location.y) &&
         a.dest_node == b.dest_node &&
         dbits(a.origin_location.x) == dbits(b.origin_location.x) &&
         dbits(a.origin_location.y) == dbits(b.origin_location.y) &&
         dbits(a.dest_location.x) == dbits(b.dest_location.x) &&
         dbits(a.dest_location.y) == dbits(b.dest_location.y) &&
         a.dest_region == b.dest_region && a.key == b.key &&
         a.version == b.version && dbits(a.ttr_s) == dbits(b.ttr_s) &&
         a.size_bytes == b.size_bytes && a.ttl == b.ttl && a.hops == b.hops &&
         a.request_id == b.request_id &&
         dbits(a.created_at) == dbits(b.created_at) &&
         a.perimeter == b.perimeter &&
         dbits(a.perimeter_entry.x) == dbits(b.perimeter_entry.x) &&
         dbits(a.perimeter_entry.y) == dbits(b.perimeter_entry.y) &&
         a.perimeter_entry_node == b.perimeter_entry_node &&
         a.perimeter_first_hop == b.perimeter_first_hop &&
         a.recovery == b.recovery && a.hit_class == b.hit_class &&
         a.responder_region == b.responder_region;
}

namespace {

/// Hostile double generator: ordinary magnitudes, signed zeros,
/// infinities and raw bit patterns (denormals, NaNs with payloads).
[[nodiscard]] double wild_double(support::Rng& rng) {
  switch (rng.uniform_int(8)) {
    case 0: return 0.0;
    case 1: return -0.0;
    case 2: return std::numeric_limits<double>::infinity();
    case 3: return -std::numeric_limits<double>::infinity();
    case 4: return dfrom(rng.bits());
    default: return rng.uniform(-2e4, 2e4);
  }
}

[[nodiscard]] net::NodeId wild_node(support::Rng& rng) {
  if (rng.uniform_int(4) == 0) return net::kNoNode;
  return static_cast<net::NodeId>(rng.bits());
}

}  // namespace

net::Packet random_wire_packet(support::Rng& rng, net::PacketKind kind) {
  net::Packet p;
  p.id = rng.bits();
  p.kind = kind;
  p.mode = static_cast<net::RouteMode>(rng.uniform_int(kRouteModeCount));
  p.origin = wild_node(rng);
  p.src = wild_node(rng);
  p.src_location = {wild_double(rng), wild_double(rng)};
  p.dest_node = wild_node(rng);
  p.origin_location = {wild_double(rng), wild_double(rng)};
  p.dest_location = {wild_double(rng), wild_double(rng)};
  p.dest_region = rng.uniform_int(3) == 0
                      ? geo::kInvalidRegion
                      : static_cast<geo::RegionId>(rng.bits());
  p.key = rng.bits();
  p.version = rng.uniform_int(3) == 0 ? 0 : rng.bits();
  p.ttr_s = rng.uniform_int(3) == 0 ? 0.0 : wild_double(rng);
  p.size_bytes = static_cast<std::size_t>(rng.bits());
  p.ttl = static_cast<int>(static_cast<std::uint32_t>(rng.bits()));
  p.hops = static_cast<int>(static_cast<std::uint32_t>(rng.bits()));
  p.request_id = rng.bits();
  p.created_at = wild_double(rng);
  p.perimeter = rng.uniform_int(2) == 0;
  p.perimeter_entry = rng.uniform_int(2) == 0
                          ? geo::Point{}
                          : geo::Point{wild_double(rng), wild_double(rng)};
  p.perimeter_entry_node = rng.uniform_int(2) == 0 ? net::kNoNode
                                                   : wild_node(rng);
  p.perimeter_first_hop = rng.uniform_int(2) == 0 ? net::kNoNode
                                                  : wild_node(rng);
  p.recovery = rng.uniform_int(2) == 0;
  p.hit_class = static_cast<std::uint8_t>(rng.bits());
  p.responder_region = rng.uniform_int(3) == 0
                           ? geo::kInvalidRegion
                           : static_cast<geo::RegionId>(rng.bits());
  return p;
}

// -- envelope ---------------------------------------------------------------

void encode_envelope(const Envelope& e, WireWriter& w) {
  w.bytes(kMagic, kMagicBytes);
  w.u8(kWireVersion);
  w.u8(static_cast<std::uint8_t>(e.type));
  w.u32(e.src_domain);
  w.u64(e.seq);
}

bool decode_envelope(WireReader& r, Envelope& e) noexcept {
  std::uint8_t magic[kMagicBytes] = {};
  for (std::uint8_t& m : magic) {
    if (!r.u8(m)) return false;
  }
  if (std::memcmp(magic, kMagic, kMagicBytes) != 0) return false;
  std::uint8_t version = 0;
  std::uint8_t type = 0;
  if (!r.u8(version) || version != kWireVersion) return false;
  if (!r.u8(type) || type < static_cast<std::uint8_t>(MsgType::kHello) ||
      type > static_cast<std::uint8_t>(MsgType::kBatch)) {
    return false;
  }
  e.type = static_cast<MsgType>(type);
  return r.u32(e.src_domain) && r.u64(e.seq);
}

// -- message bodies ---------------------------------------------------------

void encode_frame(const FrameMsg& m, WireWriter& w) {
  w.f64(m.due);
  w.u8(m.is_unicast ? 1 : 0);
  w.u32(m.next_hop);
  encode_packet(m.packet, w);
}

bool decode_frame(WireReader& r, FrameMsg& m) noexcept {
  std::uint8_t unicast = 0;
  if (!r.f64(m.due) || !r.u8(unicast) || unicast > 1 || !r.u32(m.next_hop)) {
    return false;
  }
  m.is_unicast = unicast != 0;
  return decode_packet(r, m.packet);
}

void encode_liveness(const LivenessMsg& m, WireWriter& w) {
  w.f64(m.due);
  w.u32(m.node);
  w.u8(m.alive ? 1 : 0);
}

bool decode_liveness(WireReader& r, LivenessMsg& m) noexcept {
  std::uint8_t alive = 0;
  if (!r.f64(m.due) || !r.u32(m.node) || !r.u8(alive) || alive > 1) {
    return false;
  }
  m.alive = alive != 0;
  return true;
}

void encode_region(const RegionMsg& m, WireWriter& w) {
  w.f64(m.due);
  w.u32(m.node);
  w.u32(m.region);
}

bool decode_region(WireReader& r, RegionMsg& m) noexcept {
  return r.f64(m.due) && r.u32(m.node) && r.u32(m.region);
}

void encode_catalog(const CatalogMsg& m, WireWriter& w) {
  w.f64(m.due);
  w.u64(m.key);
  w.u64(m.version);
  w.f64(m.written_at);
}

bool decode_catalog(WireReader& r, CatalogMsg& m) noexcept {
  return r.f64(m.due) && r.u64(m.key) && r.u64(m.version) &&
         r.f64(m.written_at);
}

MsgType type_of(const DataMsg& m) noexcept {
  return static_cast<MsgType>(static_cast<std::size_t>(MsgType::kFrame) +
                              m.index());
}

double due_of(const DataMsg& m) noexcept {
  return std::visit([](const auto& body) { return body.due; }, m);
}

void encode_data(const DataMsg& m, WireWriter& w) {
  switch (type_of(m)) {
    case MsgType::kFrame:
      encode_frame(std::get<FrameMsg>(m), w);
      break;
    case MsgType::kLiveness:
      encode_liveness(std::get<LivenessMsg>(m), w);
      break;
    case MsgType::kRegion:
      encode_region(std::get<RegionMsg>(m), w);
      break;
    default:
      encode_catalog(std::get<CatalogMsg>(m), w);
      break;
  }
}

bool decode_data(MsgType type, WireReader& r, DataMsg& m) noexcept {
  switch (type) {
    case MsgType::kFrame:
      return decode_frame(r, m.emplace<FrameMsg>());
    case MsgType::kLiveness:
      return decode_liveness(r, m.emplace<LivenessMsg>());
    case MsgType::kRegion:
      return decode_region(r, m.emplace<RegionMsg>());
    case MsgType::kCatalog:
      return decode_catalog(r, m.emplace<CatalogMsg>());
    default:
      return false;
  }
}

void encode_window_end(const WindowEndMsg& m, WireWriter& w) {
  w.u64(m.window);
  w.u64(m.cum_sent);
  w.u64(m.prev_cum_sent);
  w.u64(m.acked_cum);
  w.f64(m.window_end_s);
  w.f64(m.next_due);
  w.f64(m.prev_next_due);
}

bool decode_window_end(WireReader& r, WindowEndMsg& m) noexcept {
  return r.u64(m.window) && r.u64(m.cum_sent) && r.u64(m.prev_cum_sent) &&
         r.u64(m.acked_cum) && r.f64(m.window_end_s) && r.f64(m.next_due) &&
         r.f64(m.prev_next_due);
}

void encode_hello(const HelloMsg& m, WireWriter& w) {
  w.u32(m.n_domains);
  w.u64(m.config_hash);
}

bool decode_hello(WireReader& r, HelloMsg& m) noexcept {
  return r.u32(m.n_domains) && r.u64(m.config_hash);
}

void encode_nack(const NackMsg& m, WireWriter& w) {
  w.u64(m.from_seq);
  w.u64(m.to_seq);
}

bool decode_nack(WireReader& r, NackMsg& m) noexcept {
  return r.u64(m.from_seq) && r.u64(m.to_seq);
}

void encode_bye(const ByeMsg& m, WireWriter& w) {
  w.u8(static_cast<std::uint8_t>(m.reason));
}

bool decode_bye(WireReader& r, ByeMsg& m) noexcept {
  std::uint8_t reason = 0;
  if (!r.u8(reason) ||
      reason > static_cast<std::uint8_t>(ByeReason::kAborted)) {
    return false;
  }
  m.reason = static_cast<ByeReason>(reason);
  return true;
}

void encode_inject(const InjectMsg& m, WireWriter& w) {
  w.u64(m.inject_id);
  w.u8(m.op);
  w.u32(m.node);
  w.u64(m.key_rank);
}

bool decode_inject(WireReader& r, InjectMsg& m) noexcept {
  return r.u64(m.inject_id) && r.u8(m.op) && m.op <= 1 && r.u32(m.node) &&
         r.u64(m.key_rank);
}

// -- batches ----------------------------------------------------------------

namespace {

constexpr std::size_t kTypeOffset = kMagicBytes + 1;

/// An entry a batch may carry: a whole envelope that is not a batch's.
[[nodiscard]] bool batchable(DatagramView entry) noexcept {
  return entry.size() >= kEnvelopeBytes &&
         entry[kTypeOffset] != static_cast<std::uint8_t>(MsgType::kBatch);
}

}  // namespace

void BatchPacker::pack(std::uint32_t src_domain,
                       std::span<const DatagramView> entries,
                       const std::function<void(DatagramView)>& emit) {
  constexpr std::size_t kMaxEntry =
      kMaxDatagram - kBatchHeaderBytes - kBatchEntryHeaderBytes;
  std::uint16_t count = 0;
  const auto start = [&] {
    w_.clear();
    encode_envelope(Envelope{MsgType::kBatch, src_domain, 0}, w_);
    w_.u16(0);  // entry count, patched as entries land
    count = 0;
  };
  start();
  for (const DatagramView entry : entries) {
    if (!batchable(entry) || entry.size() > kMaxEntry) {
      throw std::invalid_argument("BatchPacker: cannot batch a " +
                                  std::to_string(entry.size()) +
                                  "-byte entry");
    }
    if (w_.size() + kBatchEntryHeaderBytes + entry.size() > kMaxDatagram) {
      emit(w_.data());
      start();
    }
    w_.u16(static_cast<std::uint16_t>(entry.size()));
    w_.bytes(entry.data(), entry.size());
    w_.patch_u16(kEnvelopeBytes, ++count);
  }
  if (count > 0) emit(w_.data());
}

bool decode_batch(WireReader& r, std::vector<DatagramView>& entries) {
  entries.clear();
  std::uint16_t count = 0;
  if (!r.u16(count)) return false;
  for (std::uint16_t i = 0; i < count; ++i) {
    std::uint16_t len = 0;
    DatagramView entry;
    if (!r.u16(len) || !r.bytes(len, entry) || !batchable(entry)) {
      return false;
    }
    entries.push_back(entry);
  }
  return r.remaining() == 0;
}

// -- hex repro helpers ------------------------------------------------------

std::string to_hex(const std::uint8_t* data, std::size_t n) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(n * 2);
  for (std::size_t i = 0; i < n; ++i) {
    out += kDigits[data[i] >> 4];
    out += kDigits[data[i] & 0xF];
  }
  return out;
}

std::string to_hex(const std::vector<std::uint8_t>& buf) {
  return to_hex(buf.data(), buf.size());
}

std::vector<std::uint8_t> from_hex(const std::string& hex) {
  const auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  if (hex.size() % 2 != 0) {
    throw std::invalid_argument("from_hex: odd-length hex string");
  }
  std::vector<std::uint8_t> out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = nibble(hex[i]);
    const int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      throw std::invalid_argument("from_hex: non-hex character");
    }
    out.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return out;
}

}  // namespace precinct::transport
