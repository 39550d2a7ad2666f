// UdpNet: the cross-domain transport for a fleet of precinct_node
// processes (DESIGN.md §14).
//
// One process hosts ONE domain of a world-sharded run.  Inside the
// process the full PReCinCt stack runs on its own sim::Simulator exactly
// as in-sim, coupled to the other domains through the same
// core::DomainLink; only the ShardExecutor's SPSC mailboxes are replaced
// by UDP datagrams (send() here).  The contract is therefore bit-exact
// equivalence with core::WorldShardedScenario: the same windows and the
// same merge order (due, src domain, per-stream seq) — which is what lets
// the DES act as the fleet's test oracle.
//
// Reliability: UDP drops, duplicates and reorders; the window barrier
// restores exactly-once in-order *merge* semantics.  Data messages
// (frames + halo deltas) carry a per-(src,dst) stream sequence number and
// are buffered by the sender until acknowledged.  Closing window W means:
// for every peer, the receiver knows the peer's cumulative stream count
// and next-event bound at W (from its WindowEnd marker — or from the
// *next* marker's prev_cum_sent / prev_next_due, since peers are never
// more than one barrier apart) and holds every datagram below that count.
// Gaps are NACKed and resent on a wall-clock retry cadence; a peer silent
// past `timeout_s` aborts the run loudly — a conservative-parallel fleet
// cannot outrun a dead member.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "transport/udp_socket.hpp"
#include "transport/wire_format.hpp"

namespace precinct::transport {

/// Envelope src_domain used by precinct_ctl for kInject datagrams (it is
/// an operator, not a domain peer).
inline constexpr std::uint32_t kCtlDomain = 0xFFFFFFFFu;

/// Datagram-level diagnostics.  Retries and losses depend on wall-clock
/// timing, so these are reported but never fingerprinted.
struct DatagramCounters {
  std::uint64_t datagrams_sent = 0;
  std::uint64_t datagrams_received = 0;
  std::uint64_t datagram_bytes_sent = 0;
  std::uint64_t datagram_bytes_received = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t nacks_sent = 0;
  std::uint64_t duplicates_dropped = 0;
  std::uint64_t malformed_dropped = 0;
};

/// One merged cross-domain message, decoded and ready to schedule into
/// the local simulator at `due`.
struct MergedMsg {
  std::uint32_t src_domain = 0;
  std::uint64_t seq = 0;
  double due = 0.0;
  DataMsg msg;
};

/// Why close_barrier() returned without closing.
enum class BarrierResult {
  kClosed,         ///< all peers reported; merged batch is valid
  kStopRequested,  ///< the local stop predicate fired (SIGTERM)
  kPeerStopped,    ///< a peer sent Bye(kStopped); drain gracefully
};

class UdpNet {
 public:
  struct Options {
    std::uint32_t domain = 0;
    std::uint32_t n_domains = 1;
    std::uint64_t config_hash = 0;
    UdpAddress bind;              ///< this domain's socket address
    std::vector<UdpAddress> peer; ///< domain -> address (peer[domain] unused)
    double retry_s = 0.05;        ///< wall-clock resend/NACK cadence
    double timeout_s = 30.0;      ///< wall-clock silence budget per barrier
  };

  explicit UdpNet(const Options& opts);

  /// Sequence `msg` on our stream to `dst` and send it (the domain link's
  /// transport; called from inside the local sim's compute phase).  It is
  /// buffered for resend until `dst` acknowledges it, and lowers the
  /// next-event bound our next marker publishes.
  void send(std::uint32_t dst, const DataMsg& msg);

  /// Hello exchange: solicit every peer until all have answered (and
  /// answered *us* — replies carry the config hash, so a split-brain
  /// fleet dies here).  `stop` is polled; returning true abandons the
  /// rendezvous and returns false.  Throws on timeout or hash mismatch.
  [[nodiscard]] bool rendezvous(const std::function<bool()>& stop);

  /// Close barrier `window` (0 = the post-initialize idle merge): send
  /// WindowEnd markers, collect every peer's stream up to its marked
  /// cumulative count, NACK gaps, and return the merged batch sorted by
  /// (due, src domain, seq) — the exact ShardExecutor merge order.
  /// `next_due` is the local simulator's next-event bound; the marker
  /// carries it lowered to the earliest due posted since the last
  /// barrier.  Throws std::runtime_error on peer abort or timeout.
  [[nodiscard]] BarrierResult close_barrier(
      std::uint64_t window, double window_end_s, double next_due,
      const std::function<bool()>& stop, std::vector<MergedMsg>& out);

  /// After close_barrier() returned kClosed: the minimum next-event bound
  /// over the fleet.  Every daemon reads the same value, so every daemon
  /// picks the same next window (sim::next_window_end).
  [[nodiscard]] double agreed_next_due() const noexcept {
    return agreed_next_due_;
  }

  /// Announce shutdown to every peer (idempotent; resent during drain()).
  void send_bye(ByeReason reason);

  /// After a clean finish: keep answering NACKs/WindowEnd resends and
  /// re-sending our Bye until every peer said Bye too or `linger_s`
  /// elapses.  Lets slower peers finish their last barrier off our resend
  /// buffers instead of timing out.
  void drain(double linger_s, const std::function<bool()>& stop);

  /// Operator injections received so far (deduplicated, arrival order).
  /// Draining hands ownership to the caller.
  [[nodiscard]] std::vector<InjectMsg> take_injections();

  [[nodiscard]] const DatagramCounters& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] std::uint16_t local_port() const { return sock_.local_port(); }

 private:
  /// What a peer's WindowEnd marker says about one window.
  struct Mark {
    std::uint64_t cum = 0;  ///< stream count to merge at the barrier
    double next_due = 0.0;  ///< the peer's next-event bound
  };
  struct PeerState {
    // Sender side (messages we address to this peer).
    std::uint64_t next_seq = 0;           ///< next stream seq to assign
    std::uint64_t cum_at_prev_barrier = 0;
    std::map<std::uint64_t, std::vector<std::uint8_t>> resend;
    // Receiver side (messages this peer addresses to us).
    std::uint64_t merged_cum = 0;         ///< stream consumed up to here
    std::map<std::uint64_t, MergedMsg> pending;
    std::map<std::uint64_t, Mark> marks;  ///< window -> marker contents
    bool hello_seen = false;
    bool bye_done = false;
  };

  void send_control(std::uint32_t dst, MsgType type, const WireWriter& body);
  void send_raw(std::uint32_t dst, const std::uint8_t* data, std::size_t n);
  void send_hello(std::uint32_t dst, bool is_reply);
  void send_window_end(std::uint32_t dst, std::uint64_t window,
                       double window_end_s);
  void send_nacks_for_gaps(std::uint32_t src, std::uint64_t target_cum);

  /// Drain the socket, dispatching every pending datagram.  Throws on a
  /// peer abort or a Hello hash mismatch.
  void pump();
  void handle_datagram(const std::uint8_t* data, std::size_t n);

  /// True when every peer's cum for `window` is known and fully buffered.
  [[nodiscard]] bool barrier_complete(std::uint64_t window) const;
  /// Pop [merged_cum, cum(window)) from every peer, sorted, and agree on
  /// the fleet's next-event bound.
  void extract_batch(std::uint64_t window, std::vector<MergedMsg>& out);

  Options opts_;
  UdpSocket sock_;
  std::uint64_t last_window_ = 0;
  double last_window_end_s_ = 0.0;
  /// Earliest due posted since the last barrier.
  double posted_min_due_ = std::numeric_limits<double>::infinity();
  double next_due_ = 0.0;        ///< our marker's next_due for last_window_
  double prev_next_due_ = 0.0;   ///< ... and for the window before it
  double agreed_next_due_ = 0.0;  ///< fleet minimum at the last barrier
  ByeReason bye_reason_ = ByeReason::kDone;
  std::vector<PeerState> peers_;  // indexed by domain; [domain_] unused
  DatagramCounters counters_;
  std::set<std::uint64_t> seen_inject_ids_;
  std::vector<InjectMsg> injections_;
  bool peer_stopped_ = false;
  std::vector<std::uint8_t> rx_buf_;
};

}  // namespace precinct::transport
