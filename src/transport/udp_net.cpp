#include "transport/udp_net.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <tuple>

namespace precinct::transport {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] Clock::duration secs(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

[[nodiscard]] int ms_until(Clock::time_point deadline) {
  const auto d = deadline - Clock::now();
  if (d <= Clock::duration::zero()) return 0;
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(d).count();
  return static_cast<int>(std::min<long long>(ms + 1, 1000));
}

constexpr int kMaxNackRangesPerTick = 8;

}  // namespace

UdpNet::UdpNet(const Options& opts)
    : opts_(opts), sock_(opts.bind), peers_(opts.n_domains) {
  if (opts_.domain >= opts_.n_domains) {
    throw std::invalid_argument("UdpNet: domain out of range");
  }
  if (opts_.peer.size() != opts_.n_domains) {
    throw std::invalid_argument("UdpNet: peer table size != n_domains");
  }
  if (!(opts_.retry_s > 0.0) || !(opts_.timeout_s > opts_.retry_s)) {
    throw std::invalid_argument("UdpNet: need 0 < retry_s < timeout_s");
  }
}

// -- sending ----------------------------------------------------------------

void UdpNet::send_raw(std::uint32_t dst, const std::uint8_t* data,
                      std::size_t n) {
  // A false return is kernel-buffer pressure or an unbound peer: both are
  // datagram loss, which the NACK/retry path repairs.
  (void)sock_.send_to(opts_.peer[dst], data, n);
  ++counters_.datagrams_sent;
  counters_.datagram_bytes_sent += n;
}

void UdpNet::send(std::uint32_t dst, const DataMsg& msg) {
  if (dst >= opts_.n_domains || dst == opts_.domain) {
    throw std::logic_error("UdpNet::send: bad destination domain");
  }
  posted_min_due_ = std::min(posted_min_due_, due_of(msg));
  PeerState& peer = peers_[dst];
  Envelope e;
  e.type = type_of(msg);
  e.src_domain = opts_.domain;
  e.seq = peer.next_seq++;
  WireWriter dgram;
  encode_envelope(e, dgram);
  encode_data(msg, dgram);
  auto [it, inserted] = peer.resend.emplace(e.seq, dgram.data());
  (void)inserted;
  send_raw(dst, it->second.data(), it->second.size());
}

void UdpNet::send_control(std::uint32_t dst, MsgType type,
                          const WireWriter& body) {
  Envelope e;
  e.type = type;
  e.src_domain = opts_.domain;
  e.seq = 0;
  WireWriter dgram;
  encode_envelope(e, dgram);
  dgram.bytes(body.data().data(), body.size());
  send_raw(dst, dgram.data().data(), dgram.size());
}

void UdpNet::send_hello(std::uint32_t dst, bool is_reply) {
  HelloMsg m;
  m.n_domains = opts_.n_domains;
  m.config_hash = opts_.config_hash;
  WireWriter body;
  encode_hello(m, body);
  Envelope e;
  e.type = MsgType::kHello;
  e.src_domain = opts_.domain;
  e.seq = is_reply ? 1 : 0;  // replies are not themselves answered
  WireWriter dgram;
  encode_envelope(e, dgram);
  dgram.bytes(body.data().data(), body.size());
  send_raw(dst, dgram.data().data(), dgram.size());
}

void UdpNet::send_window_end(std::uint32_t dst, std::uint64_t window,
                             double window_end_s) {
  const PeerState& peer = peers_[dst];
  WindowEndMsg m;
  m.window = window;
  m.cum_sent = peer.next_seq;  // stable: nothing posts while waiting
  m.prev_cum_sent = peer.cum_at_prev_barrier;
  m.acked_cum = peer.merged_cum;
  m.window_end_s = window_end_s;
  m.next_due = next_due_;
  m.prev_next_due = prev_next_due_;
  WireWriter body;
  encode_window_end(m, body);
  send_control(dst, MsgType::kWindowEnd, body);
}

void UdpNet::send_bye(ByeReason reason) {
  bye_reason_ = reason;
  ByeMsg m;
  m.reason = reason;
  WireWriter body;
  encode_bye(m, body);
  for (std::uint32_t dst = 0; dst < opts_.n_domains; ++dst) {
    if (dst == opts_.domain) continue;
    send_control(dst, MsgType::kBye, body);
  }
}

void UdpNet::send_nacks_for_gaps(std::uint32_t src, std::uint64_t target_cum) {
  const PeerState& peer = peers_[src];
  int ranges = 0;
  std::uint64_t expected = peer.merged_cum;
  auto it = peer.pending.lower_bound(expected);
  while (expected < target_cum && ranges < kMaxNackRangesPerTick) {
    const std::uint64_t have =
        (it != peer.pending.end() && it->first < target_cum) ? it->first
                                                             : target_cum;
    if (expected < have) {
      NackMsg m;
      m.from_seq = expected;
      m.to_seq = have;
      WireWriter body;
      encode_nack(m, body);
      send_control(src, MsgType::kNack, body);
      ++counters_.nacks_sent;
      ++ranges;
    }
    if (it == peer.pending.end() || it->first >= target_cum) break;
    expected = it->first + 1;
    ++it;
  }
}

// -- receiving --------------------------------------------------------------

void UdpNet::pump() {
  while (sock_.recv_from(rx_buf_)) {
    ++counters_.datagrams_received;
    counters_.datagram_bytes_received += rx_buf_.size();
    handle_datagram(rx_buf_.data(), rx_buf_.size());
  }
}

void UdpNet::handle_datagram(const std::uint8_t* data, std::size_t n) {
  WireReader r(data, n);
  Envelope e;
  if (!decode_envelope(r, e)) {
    ++counters_.malformed_dropped;
    return;
  }
  if (e.type == MsgType::kInject) {
    // Comes from precinct_ctl, not a domain peer; src_domain is kCtlDomain.
    InjectMsg m;
    if (!decode_inject(r, m) || r.remaining() != 0) {
      ++counters_.malformed_dropped;
      return;
    }
    if (seen_inject_ids_.insert(m.inject_id).second) {
      injections_.push_back(m);
    }
    return;
  }
  if (e.src_domain >= opts_.n_domains || e.src_domain == opts_.domain) {
    ++counters_.malformed_dropped;
    return;
  }
  PeerState& peer = peers_[e.src_domain];
  switch (e.type) {
    case MsgType::kHello: {
      HelloMsg m;
      if (!decode_hello(r, m)) {
        ++counters_.malformed_dropped;
        return;
      }
      if (m.n_domains != opts_.n_domains ||
          m.config_hash != opts_.config_hash) {
        throw std::runtime_error(
            "UdpNet: peer domain " + std::to_string(e.src_domain) +
            " is running a different scenario (config-hash mismatch) — "
            "refusing a split-brain fleet");
      }
      peer.hello_seen = true;
      if (e.seq == 0) send_hello(e.src_domain, /*is_reply=*/true);
      return;
    }
    case MsgType::kWindowEnd: {
      WindowEndMsg m;
      if (!decode_window_end(r, m)) {
        ++counters_.malformed_dropped;
        return;
      }
      peer.marks[m.window] = Mark{m.cum_sent, m.next_due};
      if (m.window > 0) {
        // Peers are at most one barrier ahead: the marker for window W
        // doubles as a (possibly lost) marker for W-1.
        peer.marks.emplace(m.window - 1,
                           Mark{m.prev_cum_sent, m.prev_next_due});
      }
      peer.resend.erase(peer.resend.begin(),
                        peer.resend.lower_bound(m.acked_cum));
      return;
    }
    case MsgType::kFrame:
    case MsgType::kLiveness:
    case MsgType::kRegion:
    case MsgType::kCatalog: {
      if (e.seq < peer.merged_cum || peer.pending.count(e.seq) != 0) {
        ++counters_.duplicates_dropped;
        return;
      }
      MergedMsg m;
      m.src_domain = e.src_domain;
      m.seq = e.seq;
      if (!decode_data(e.type, r, m.msg) || r.remaining() != 0) {
        ++counters_.malformed_dropped;
        return;
      }
      m.due = due_of(m.msg);
      peer.pending.emplace(e.seq, std::move(m));
      return;
    }
    case MsgType::kNack: {
      NackMsg m;
      if (!decode_nack(r, m)) {
        ++counters_.malformed_dropped;
        return;
      }
      for (auto it = peer.resend.lower_bound(m.from_seq);
           it != peer.resend.end() && it->first < m.to_seq; ++it) {
        send_raw(e.src_domain, it->second.data(), it->second.size());
        ++counters_.retransmits;
      }
      return;
    }
    case MsgType::kBye: {
      ByeMsg m;
      if (!decode_bye(r, m)) {
        ++counters_.malformed_dropped;
        return;
      }
      peer.bye_done = true;
      if (m.reason == ByeReason::kStopped) peer_stopped_ = true;
      if (m.reason == ByeReason::kAborted) {
        throw std::runtime_error("UdpNet: peer domain " +
                                 std::to_string(e.src_domain) +
                                 " aborted; run results are void");
      }
      return;
    }
    default:
      ++counters_.malformed_dropped;
      return;
  }
}

// -- rendezvous / barrier / drain -------------------------------------------

bool UdpNet::rendezvous(const std::function<bool()>& stop) {
  const auto deadline = Clock::now() + secs(opts_.timeout_s);
  auto next_retry = Clock::now();
  for (;;) {
    pump();
    bool all = true;
    for (std::uint32_t d = 0; d < opts_.n_domains; ++d) {
      if (d != opts_.domain && !peers_[d].hello_seen) all = false;
    }
    if (all) return true;
    if (stop && stop()) return false;
    if (peer_stopped_) return false;
    const auto now = Clock::now();
    if (now >= deadline) {
      send_bye(ByeReason::kAborted);
      throw std::runtime_error("UdpNet: rendezvous timeout — not all peers "
                               "answered Hello");
    }
    if (now >= next_retry) {
      for (std::uint32_t d = 0; d < opts_.n_domains; ++d) {
        if (d != opts_.domain && !peers_[d].hello_seen) {
          send_hello(d, /*is_reply=*/false);
        }
      }
      next_retry = now + secs(opts_.retry_s);
    }
    sock_.wait_readable(ms_until(std::min(next_retry, deadline)));
  }
}

bool UdpNet::barrier_complete(std::uint64_t window) const {
  for (std::uint32_t d = 0; d < opts_.n_domains; ++d) {
    if (d == opts_.domain) continue;
    const PeerState& peer = peers_[d];
    const auto it = peer.marks.find(window);
    if (it == peer.marks.end()) return false;
    for (std::uint64_t seq = peer.merged_cum; seq < it->second.cum; ++seq) {
      if (peer.pending.count(seq) == 0) return false;
    }
  }
  return true;
}

void UdpNet::extract_batch(std::uint64_t window, std::vector<MergedMsg>& out) {
  agreed_next_due_ = next_due_;
  for (std::uint32_t d = 0; d < opts_.n_domains; ++d) {
    if (d == opts_.domain) continue;
    PeerState& peer = peers_[d];
    const Mark mark = peer.marks.at(window);
    agreed_next_due_ = std::min(agreed_next_due_, mark.next_due);
    for (std::uint64_t seq = peer.merged_cum; seq < mark.cum; ++seq) {
      auto it = peer.pending.find(seq);
      out.push_back(std::move(it->second));
      peer.pending.erase(it);
    }
    peer.merged_cum = mark.cum;
    peer.marks.erase(peer.marks.begin(), peer.marks.upper_bound(window));
    // Sender side: this barrier's cum becomes the next marker's
    // prev_cum_sent.
    peer.cum_at_prev_barrier = peer.next_seq;
  }
  // The ShardExecutor merge order, verbatim: (due, src domain, seq).
  std::sort(out.begin(), out.end(),
            [](const MergedMsg& a, const MergedMsg& b) {
              return std::tie(a.due, a.src_domain, a.seq) <
                     std::tie(b.due, b.src_domain, b.seq);
            });
}

BarrierResult UdpNet::close_barrier(std::uint64_t window,
                                    double window_end_s, double next_due,
                                    const std::function<bool()>& stop,
                                    std::vector<MergedMsg>& out) {
  out.clear();
  last_window_ = window;
  last_window_end_s_ = window_end_s;
  prev_next_due_ = next_due_;
  next_due_ = std::min(next_due, posted_min_due_);
  posted_min_due_ = std::numeric_limits<double>::infinity();
  const auto deadline = Clock::now() + secs(opts_.timeout_s);
  auto next_retry = Clock::now();
  for (;;) {
    pump();
    if (barrier_complete(window)) {
      extract_batch(window, out);
      return BarrierResult::kClosed;
    }
    if (peer_stopped_) return BarrierResult::kPeerStopped;
    if (stop && stop()) return BarrierResult::kStopRequested;
    const auto now = Clock::now();
    if (now >= deadline) {
      send_bye(ByeReason::kAborted);
      throw std::runtime_error(
          "UdpNet: barrier " + std::to_string(window) +
          " timed out after " + std::to_string(opts_.timeout_s) +
          "s — a peer is dead or unreachable");
    }
    if (now >= next_retry) {
      for (std::uint32_t d = 0; d < opts_.n_domains; ++d) {
        if (d == opts_.domain) continue;
        send_window_end(d, window, window_end_s);
        const auto it = peers_[d].marks.find(window);
        if (it != peers_[d].marks.end()) {
          send_nacks_for_gaps(d, it->second.cum);
        }
      }
      next_retry = now + secs(opts_.retry_s);
    }
    sock_.wait_readable(ms_until(std::min(next_retry, deadline)));
  }
}

void UdpNet::drain(double linger_s, const std::function<bool()>& stop) {
  const auto deadline = Clock::now() + secs(linger_s);
  auto next_retry = Clock::now();
  for (;;) {
    pump();
    bool all = true;
    for (std::uint32_t d = 0; d < opts_.n_domains; ++d) {
      if (d != opts_.domain && !peers_[d].bye_done) all = false;
    }
    if (all) return;
    if (stop && stop()) return;
    const auto now = Clock::now();
    if (now >= deadline) return;  // best-effort: linger is a courtesy
    if (now >= next_retry) {
      ByeMsg m;
      m.reason = bye_reason_;
      WireWriter body;
      encode_bye(m, body);
      for (std::uint32_t d = 0; d < opts_.n_domains; ++d) {
        if (d == opts_.domain || peers_[d].bye_done) continue;
        send_control(d, MsgType::kBye, body);
        // A slower peer may still be closing its last barrier off our
        // resend buffers; keep our final marker alive for it.
        send_window_end(d, last_window_, last_window_end_s_);
      }
      next_retry = now + secs(opts_.retry_s);
    }
    sock_.wait_readable(ms_until(std::min(next_retry, deadline)));
  }
}

std::vector<InjectMsg> UdpNet::take_injections() {
  std::vector<InjectMsg> out;
  out.swap(injections_);
  return out;
}

}  // namespace precinct::transport
