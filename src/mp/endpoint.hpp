// Two-sided message passing over the simulated NIC — the paper's "Message
// Passing" baseline.
//
// Protocols (paper Fig. 2b):
//  * eager      — header + payload travel in one control message into
//                 receiver-side buffering; the receiver matches and copies
//                 out. One wire transaction, two staging copies.
//  * rendezvous — RTS control message; the receiver matches, registers its
//                 buffer and answers CTS; the sender RDMA-puts the payload
//                 directly into it. The receiver completes on its NIC's
//                 delivery completion (write-with-immediate-style), the
//                 sender on the put ack. Exactly three transactions on the
//                 critical path (RTS, CTS, DATA — paper Fig. 2b), zero
//                 copies.
//
// Matching follows MPI semantics: a receive names <source, tag> with
// wildcards; messages from the same sender match posted receives in send
// order (guaranteed here by per-channel FIFO delivery plus queue order).
#pragma once

#include <cstddef>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "mp/params.hpp"
#include "mp/shared_tables.hpp"
#include "net/router.hpp"
#include "obs/metrics.hpp"

namespace narma::mp {

namespace msgkind {
constexpr std::uint32_t kEager = 0x0101;
constexpr std::uint32_t kRts = 0x0102;
constexpr std::uint32_t kCts = 0x0103;
}  // namespace msgkind

namespace detail {

enum class ReqKind : std::uint8_t { kSendEager, kSendRdzv, kRecv };

struct ReqState {
  ReqKind kind;
  bool done = false;
  Status status;

  // common
  int peer = kAnySource;
  int tag = kAnyTag;
  std::size_t bytes = 0;  // send size / recv capacity
  /// obs::MsgId of the matched incoming message (recv side); consumed by
  /// the first completion observation, which records the wakeup hop.
  std::uint64_t msg = 0;

  // recv
  void* rbuf = nullptr;
  net::MemKey rdzv_key = net::kInvalidMemKey;  // registered recv buffer
  net::PendingOps data_arrival;                // remote-delivery completion

  // send (rendezvous)
  const void* sbuf = nullptr;
  std::uint64_t send_op_id = 0;
  bool cts_received = false;
  net::PendingOps put_pending;
};

/// An arrived-but-unmatched message (eager payload or rendezvous RTS).
struct Unexpected {
  bool is_rts = false;
  int src = -1;
  int tag = -1;
  std::size_t bytes = 0;
  std::uint64_t send_op_id = 0;       // rendezvous only
  std::vector<std::byte> payload;     // eager only
  Time time = 0;
  std::uint64_t msg = 0;  // obs::MsgId of the sender's operation
};

}  // namespace detail

/// Request handle for nonblocking operations.
using Request = std::shared_ptr<detail::ReqState>;

class Endpoint {
 public:
  /// `tables` is the World's store of shared collective results.
  Endpoint(net::MsgRouter& router, MpParams params, SharedTables& tables);
  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  int rank() const { return router_.nic().rank(); }
  int nranks() const { return router_.nic().fabric().nranks(); }
  const MpParams& params() const { return params_; }
  net::MsgRouter& router() { return router_; }

  /// Where shared-result collectives (allgather) keep their one table, and
  /// this rank's sequence number for the next such collective. Every rank
  /// calls collectives in the same order, so equal numbers name the same
  /// collective.
  SharedTables& shared_tables() { return tables_; }
  std::uint64_t next_shared_seq() { return next_shared_seq_++; }

  // --- Point-to-point ------------------------------------------------------

  Request isend(const void* buf, std::size_t bytes, int dst, int tag);
  Request irecv(void* buf, std::size_t capacity, int src, int tag);
  void send(const void* buf, std::size_t bytes, int dst, int tag);
  void recv(void* buf, std::size_t capacity, int src, int tag,
            Status* status = nullptr);

  bool test(const Request& req, Status* status = nullptr);
  void wait(const Request& req, Status* status = nullptr);
  void wait_all(const std::vector<Request>& reqs);

  /// Blocks until a matching message has arrived (without receiving it) and
  /// returns its envelope.
  Status probe(int src, int tag);
  /// Nonblocking probe.
  bool iprobe(int src, int tag, Status* status);

  // --- Introspection (tests) -----------------------------------------------

  std::size_t unexpected_count() const { return unexpected_.size(); }
  std::size_t posted_count() const { return posted_.size(); }

  /// Registers this endpoint's metric families (mp.*) with the World's
  /// registry; without it every hook stays a disengaged no-op.
  void bind_metrics(obs::Registry& reg);

 private:
  void handle_eager(net::NetMsg&& m);
  void handle_rts(net::NetMsg&& m);
  void handle_cts(net::NetMsg&& m);
  void handle_cts_async(net::NetMsg&& m);  // progression-agent variant

  /// Completion check with rendezvous-receive finalization (deregisters the
  /// temporary memory key when the data has landed).
  bool is_complete(detail::ReqState& r);

  /// Completes a posted receive with an eager payload.
  void deliver_eager(detail::ReqState& r, int src, int tag,
                     std::vector<std::byte>&& payload, Time arrival,
                     std::uint64_t msg);
  /// Answers an RTS for a posted receive with a CTS.
  void answer_rts(const Request& req, int src, int tag, std::size_t bytes,
                  std::uint64_t send_op_id, std::uint64_t msg);
  /// Records the consumer-wakeup hop the first time a traced receive's
  /// completion is observed by the application.
  void note_wakeup(detail::ReqState& r);
  /// Matches the most recently queued unexpected message against the posted
  /// receives (used by self-sends, which bypass the mailbox).
  void match_newest_unexpected();

  /// Wildcard tags only match user tags: reserved tags (collectives,
  /// internal protocols) act like traffic on a separate communicator and
  /// are invisible to kAnyTag receives/probes.
  static bool envelope_matches(int want_src, int want_tag, int src, int tag) {
    if (want_src != kAnySource && want_src != src) return false;
    if (want_tag == kAnyTag) return tag < kMaxUserTag;
    return want_tag == tag;
  }

  /// Re-samples mp.unexpected_depth / mp.posted_depth after queue mutations.
  void sample_queue_depths();

  net::MsgRouter& router_;
  MpParams params_;
  SharedTables& tables_;
  std::uint64_t next_shared_seq_ = 0;
  std::uint64_t next_op_id_ = 1;

  std::deque<Request> posted_;                    // posted receives, in order
  std::deque<detail::Unexpected> unexpected_;     // arrival order
  std::unordered_map<std::uint64_t, Request> rdzv_sends_;  // by send_op_id

  // Observability (mp.* families); disengaged handles are no-ops.
  obs::Counter c_sends_eager_;
  obs::Counter c_sends_rdzv_;
  obs::Counter c_recvs_;
  obs::Gauge g_unexpected_depth_;
  obs::Gauge g_posted_depth_;
};

}  // namespace narma::mp
