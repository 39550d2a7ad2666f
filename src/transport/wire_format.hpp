// PReCinCt wire format v3 (DESIGN.md §14, docs/PROTOCOL.md appendix A).
//
// The real-transport backend marshals the exact same `net::Packet` values
// the simulator moves between replicas — so the codec's contract is
// *bit-exact round-tripping* of every field, doubles included (they travel
// as raw IEEE-754 bit patterns, so NaNs and signed zeros survive).  All
// integers are little-endian on the wire regardless of host order.
//
// Every datagram opens with a fixed envelope:
//
//   0:4   magic "PRCT"
//   4     wire version (kWireVersion; receivers reject anything else)
//   5     message type (MsgType)
//   6:10  source domain (u32)
//   10:18 stream sequence number (u64; per (src, dst) stream for the
//         reliable data types, 0 for control messages)
//
// Packet bodies use a fixed header plus optional blocks gated by a flags
// byte, so common control frames stay small while response/perimeter
// state round-trips exactly when present (presence is decided on *bit
// patterns*, not numeric equality, so ttr = -0.0 still gets its block).
//
// A kBatch datagram (new in v3) carries several complete datagrams to one
// peer — a window's data messages and its WindowEnd marker — as a u16
// entry count followed by u16-length-prefixed entries.  Batches never
// nest.
//
// Decoding is defensive end to end: a truncated buffer, a wrong version,
// an unknown message type, an out-of-range enum value or a malformed
// batch makes decode return false (never throw, never read past the
// buffer) — a daemon fed garbage drops the datagram and keeps serving.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "net/packet.hpp"
#include "support/rng.hpp"

namespace precinct::transport {

inline constexpr std::uint8_t kWireVersion = 3;
inline constexpr std::size_t kMagicBytes = 4;
inline constexpr char kMagic[kMagicBytes + 1] = "PRCT";
inline constexpr std::size_t kEnvelopeBytes = 18;
/// Largest datagram the transport sends or receives.  The largest single
/// message (a frame with every optional packet block) is under 200 bytes;
/// batches fill up to this bound.
inline constexpr std::size_t kMaxDatagram = 4096;

/// Datagram types.  kFrame/kLiveness/kRegion/kCatalog are sequenced,
/// reliable data messages (they carry the cross-domain traffic the
/// in-process ShardExecutor would put in its mailboxes); kBatch carries
/// other datagrams; the rest are idempotent control messages resent
/// freely.
enum class MsgType : std::uint8_t {
  kHello = 1,      ///< rendezvous + config-hash check; always answered
  kWindowEnd = 2,  ///< window barrier marker (stream counts, next due)
  kFrame = 3,      ///< marshalled radio frame (WorldCoupler::post_frame)
  kLiveness = 4,   ///< halo delta: kill/revive
  kRegion = 5,     ///< halo delta: region assignment
  kCatalog = 6,    ///< halo delta: catalog version observation
  kNack = 7,       ///< resend request for a sequence range
  kBye = 8,        ///< drain notice (done / stopped / aborted)
  kInject = 9,     ///< precinct_ctl request/update injection
  kBatch = 10,     ///< several complete datagrams, none of them a batch
};

[[nodiscard]] const char* to_string(MsgType type) noexcept;

/// Little-endian byte sink.  Appends; the buffer is the datagram.
class WireWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// Raw IEEE-754 bits — exact for every double including NaN payloads.
  void f64(double v);
  void bytes(const void* data, std::size_t n);

  [[nodiscard]] const std::vector<std::uint8_t>& data() const noexcept {
    return buf_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  void clear() noexcept { buf_.clear(); }
  /// Overwrite the two bytes at `offset` (already written) with `v`.
  void patch_u16(std::size_t offset, std::uint16_t v);

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian reader: every getter returns false once
/// the buffer underruns, and stays false (sticky), so decoders can read a
/// whole struct and check ok() once.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size) noexcept
      : p_(data), n_(size) {}

  bool u8(std::uint8_t& v) noexcept;
  bool u16(std::uint16_t& v) noexcept;
  bool u32(std::uint32_t& v) noexcept;
  bool u64(std::uint64_t& v) noexcept;
  bool f64(double& v) noexcept;
  /// Take the next `n` bytes as a view into the underlying buffer.
  bool bytes(std::size_t n, std::span<const std::uint8_t>& v) noexcept;

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] std::size_t remaining() const noexcept { return n_ - pos_; }

 private:
  [[nodiscard]] bool take(std::size_t n) noexcept;

  const std::uint8_t* p_;
  std::size_t n_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// -- Packet codec -----------------------------------------------------------

/// Encoded size of `p` on the wire (fixed header + whichever
/// optional blocks its field values require).  This is also what the
/// simulator charges as "wire bytes" (MessageStats), so sim and UDP runs
/// report traffic on the same basis.
[[nodiscard]] std::size_t wire_size(const net::Packet& p) noexcept;

/// Append the wire encoding of `p` to `w`.
void encode_packet(const net::Packet& p, WireWriter& w);

/// Decode one packet from `r`.  Returns false (leaving `p` unspecified)
/// on truncation or out-of-range kind/mode; never throws.
[[nodiscard]] bool decode_packet(WireReader& r, net::Packet& p) noexcept;

/// Bit-exact field comparison (doubles compared as bit patterns, so NaN
/// == NaN and +0.0 != -0.0): the fuzz property's equality relation.
[[nodiscard]] bool packets_identical(const net::Packet& a,
                                     const net::Packet& b) noexcept;

/// Draw a packet with every field randomized (including hostile doubles:
/// raw bit patterns, infinities, signed zeros) for codec fuzzing.
[[nodiscard]] net::Packet random_wire_packet(support::Rng& rng,
                                             net::PacketKind kind);

// -- envelope ---------------------------------------------------------------

struct Envelope {
  MsgType type = MsgType::kHello;
  std::uint32_t src_domain = 0;
  std::uint64_t seq = 0;
};

void encode_envelope(const Envelope& e, WireWriter& w);

/// Returns false on bad magic, wrong version, unknown type or truncation.
[[nodiscard]] bool decode_envelope(WireReader& r, Envelope& e) noexcept;

// -- message bodies ---------------------------------------------------------

/// kFrame body: a cross-domain radio frame and its delivery instant.
struct FrameMsg {
  double due = 0.0;
  bool is_unicast = false;
  net::NodeId next_hop = net::kNoNode;
  net::Packet packet;
};

/// kLiveness body: halo kill/revive delta.
struct LivenessMsg {
  double due = 0.0;
  net::NodeId node = net::kNoNode;
  bool alive = false;
};

/// kRegion body: halo region-assignment delta.
struct RegionMsg {
  double due = 0.0;
  net::NodeId node = net::kNoNode;
  geo::RegionId region = geo::kInvalidRegion;
};

/// kCatalog body: halo catalog-version delta.  `written_at` is the write
/// instant in the updater's domain (becomes the replica's last_update_s);
/// `due` is the window boundary the delta applies at.
struct CatalogMsg {
  double due = 0.0;
  geo::Key key = 0;
  std::uint64_t version = 0;
  double written_at = 0.0;
};

/// One sequenced data message, as one domain link sends it to another
/// (core::DomainLink): alternatives in MsgType order, kFrame..kCatalog.
using DataMsg = std::variant<FrameMsg, LivenessMsg, RegionMsg, CatalogMsg>;

/// The envelope type of `m`'s alternative.
[[nodiscard]] MsgType type_of(const DataMsg& m) noexcept;
/// When `m` applies at its destination.
[[nodiscard]] double due_of(const DataMsg& m) noexcept;

/// kWindowEnd body: the barrier marker closing `window` (0 is the
/// initialization barrier before the first lookahead window).  `cum_sent`
/// counts every data message this sender has addressed to the receiver up
/// to and including that window; `prev_cum_sent` is the same count one
/// window earlier (carried so a receiver that missed the previous marker
/// can still close its barrier — peers are never more than one window
/// apart).  `next_due` is the sender's next-event bound after the window
/// (its earliest pending event or posted message, +inf when it has
/// none): the minimum over the fleet picks the next window
/// (sim::next_window_end); `prev_next_due` is the bound one window
/// earlier, for the same lost-marker path as `prev_cum_sent`.
/// `acked_cum` tells the receiver how much of *its* stream the sender has
/// merged, pruning the sender-side resend buffer.
struct WindowEndMsg {
  std::uint64_t window = 0;
  std::uint64_t cum_sent = 0;
  std::uint64_t prev_cum_sent = 0;
  std::uint64_t acked_cum = 0;
  double window_end_s = 0.0;  ///< diagnostic: the closing window's end time
  double next_due = 0.0;
  double prev_next_due = 0.0;
};

/// kHello body: rendezvous.  `config_hash` fingerprints the scenario
/// (config text + domain count + wire version); daemons refuse to run a
/// split-brain fleet.
struct HelloMsg {
  std::uint32_t n_domains = 0;
  std::uint64_t config_hash = 0;
};

/// kNack body: "resend data seqs [from_seq, to_seq) of your stream".
struct NackMsg {
  std::uint64_t from_seq = 0;
  std::uint64_t to_seq = 0;
};

/// kBye body: why the sender stopped participating.
enum class ByeReason : std::uint8_t {
  kDone = 0,     ///< ran to the horizon and finalized
  kStopped = 1,  ///< graceful operator stop (SIGTERM / precinct_ctl stop)
  kAborted = 2,  ///< error; the run's results are void
};

struct ByeMsg {
  ByeReason reason = ByeReason::kDone;
};

/// kInject body: one operator-injected request/update.  `inject_id`
/// deduplicates retries; every daemon receives the injection and only the
/// target node's owner applies it.
struct InjectMsg {
  std::uint64_t inject_id = 0;
  std::uint8_t op = 0;  ///< 0 = request, 1 = update
  net::NodeId node = net::kNoNode;
  std::uint64_t key_rank = 0;  ///< catalog popularity rank (mod catalog size)
};

void encode_frame(const FrameMsg& m, WireWriter& w);
void encode_liveness(const LivenessMsg& m, WireWriter& w);
void encode_region(const RegionMsg& m, WireWriter& w);
void encode_catalog(const CatalogMsg& m, WireWriter& w);
void encode_window_end(const WindowEndMsg& m, WireWriter& w);
void encode_hello(const HelloMsg& m, WireWriter& w);
void encode_nack(const NackMsg& m, WireWriter& w);
void encode_bye(const ByeMsg& m, WireWriter& w);
void encode_inject(const InjectMsg& m, WireWriter& w);
/// The body of whichever data message `m` holds.
void encode_data(const DataMsg& m, WireWriter& w);

[[nodiscard]] bool decode_frame(WireReader& r, FrameMsg& m) noexcept;
[[nodiscard]] bool decode_liveness(WireReader& r, LivenessMsg& m) noexcept;
[[nodiscard]] bool decode_region(WireReader& r, RegionMsg& m) noexcept;
[[nodiscard]] bool decode_catalog(WireReader& r, CatalogMsg& m) noexcept;
[[nodiscard]] bool decode_window_end(WireReader& r, WindowEndMsg& m) noexcept;
[[nodiscard]] bool decode_hello(WireReader& r, HelloMsg& m) noexcept;
[[nodiscard]] bool decode_nack(WireReader& r, NackMsg& m) noexcept;
[[nodiscard]] bool decode_bye(WireReader& r, ByeMsg& m) noexcept;
[[nodiscard]] bool decode_inject(WireReader& r, InjectMsg& m) noexcept;
/// Decode a data body of envelope type `type` into `m`; false for a
/// non-data type or on truncation.
[[nodiscard]] bool decode_data(MsgType type, WireReader& r,
                               DataMsg& m) noexcept;

// -- batches ----------------------------------------------------------------

/// One complete datagram (envelope + body), e.g. a batch entry.
using DatagramView = std::span<const std::uint8_t>;

/// Envelope plus the u16 entry count; each entry adds a u16 length.
inline constexpr std::size_t kBatchHeaderBytes = kEnvelopeBytes + 2;
inline constexpr std::size_t kBatchEntryHeaderBytes = 2;

/// Packs complete datagrams into kBatch datagrams of at most kMaxDatagram
/// bytes.  Its buffer is kept between calls, so packing window after
/// window allocates nothing once it has grown.
class BatchPacker {
 public:
  /// Pack `entries` in order, greedily: each batch takes entries until the
  /// next would take it past kMaxDatagram, and `emit` receives each
  /// finished batch in turn.  Throws std::invalid_argument for an entry
  /// that no batch can hold (shorter than an envelope, too long, or
  /// itself a batch).
  void pack(std::uint32_t src_domain, std::span<const DatagramView> entries,
            const std::function<void(DatagramView)>& emit);

 private:
  WireWriter w_;
};

/// Decode a kBatch body (what follows its envelope) into views of its
/// entries, which point into `r`'s buffer.  Returns false — `entries`
/// then unspecified — when the count or a length runs past the buffer,
/// bytes trail the last entry, an entry is shorter than an envelope, or
/// an entry is itself a batch.
[[nodiscard]] bool decode_batch(WireReader& r,
                                std::vector<DatagramView>& entries);

// -- hex repro helpers ------------------------------------------------------

/// Lowercase hex dump of a buffer (fuzz repro format: replay with
/// `precinct_fuzz --packet-hex <hex>`).
[[nodiscard]] std::string to_hex(const std::uint8_t* data, std::size_t n);
[[nodiscard]] std::string to_hex(const std::vector<std::uint8_t>& buf);

/// Parse a hex string back into bytes; throws std::invalid_argument on a
/// non-hex character or odd length.
[[nodiscard]] std::vector<std::uint8_t> from_hex(const std::string& hex);

}  // namespace precinct::transport
