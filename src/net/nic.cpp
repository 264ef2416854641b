#include "net/nic.hpp"

#include <bit>
#include <type_traits>

#include "obs/journal.hpp"
#include "obs/msgtrace.hpp"

namespace narma::net {

namespace {

/// Commits a put payload at its resolved target. All simulated ranks share
/// one address space, so the origin buffer can be the target location
/// itself — a shared collective result (mp/shared_tables.hpp) forwarded to
/// another rank's view of the same table. That exact alias already holds
/// the bytes and is not copied; a partial overlap has no defined result.
void commit_payload(std::byte* dst, const void* src, std::size_t bytes) {
  const auto d = reinterpret_cast<std::uintptr_t>(dst);
  const auto s = reinterpret_cast<std::uintptr_t>(src);
  if (d == s) return;
  NARMA_CHECK(d + bytes <= s || s + bytes <= d)
      << "put source [" << src << ", +" << bytes
      << ") partially overlaps its target " << static_cast<void*>(dst);
  std::memcpy(dst, src, bytes);
}

}  // namespace

Nic::Nic(Fabric& fabric, sim::RankCtx& ctx)
    : fabric_(fabric),
      ctx_(ctx),
      dest_cq_(fabric.params().dest_cq_capacity),
      shm_ring_(fabric.params().shm_ring_capacity),
      mailbox_(fabric.params().mailbox_capacity) {
  if (obs::Registry* m = fabric_.metrics()) {
    const int r = ctx_.id();
    g_dest_cq_depth_ = m->gauge("net.dest_cq_depth", r);
    g_shm_ring_depth_ = m->gauge("net.shm_ring_depth", r);
    g_mailbox_depth_ = m->gauge("net.mailbox_depth", r);
    g_src_pending_ = m->gauge("net.src_pending", r);
  }
}

void Nic::sample_queue_gauges() {
  const Time now = ctx_.now();
  g_dest_cq_depth_.set(static_cast<std::int64_t>(dest_cq_.size()), now);
  g_shm_ring_depth_.set(static_cast<std::int64_t>(shm_ring_.size()), now);
  g_mailbox_depth_.set(static_cast<std::int64_t>(mailbox_.size()), now);
}

// --- Registered memory -----------------------------------------------------

MemKey Nic::register_memory(void* base, std::size_t bytes) {
  NARMA_CHECK(base != nullptr || bytes == 0);
  // Reuse a deregistered slot if available to keep the table small.
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    if (!regions_[i].valid) {
      regions_[i] = {static_cast<std::byte*>(base), bytes, true};
      return static_cast<MemKey>(i);
    }
  }
  regions_.push_back({static_cast<std::byte*>(base), bytes, true});
  return static_cast<MemKey>(regions_.size() - 1);
}

void Nic::deregister_memory(MemKey key) {
  NARMA_CHECK(key < regions_.size() && regions_[key].valid)
      << "deregistering invalid memory key " << key;
  regions_[key].valid = false;
}

std::byte* Nic::resolve(MemKey key, std::uint64_t offset, std::size_t bytes) {
  NARMA_CHECK(key < regions_.size() && regions_[key].valid)
      << "remote access to invalid memory key " << key << " at rank "
      << rank();
  MemRegion& r = regions_[key];
  NARMA_CHECK(offset + bytes <= r.bytes)
      << "remote access out of bounds: offset " << offset << " + " << bytes
      << " > region size " << r.bytes << " (rank " << rank() << ", key "
      << key << ")";
  return r.base + offset;
}

// --- Hardware-queue draining -------------------------------------------------

std::size_t Nic::pop_hw_batch(std::span<HwNotification> out) {
  std::size_t n = 0;
  std::size_t cq_popped = 0;
  std::size_t shm_popped = 0;
  const Time now = ctx_.now();
  while (n < out.size()) {
    // Entries stamped in this rank's future stay queued (their delivery
    // events ran early during another rank's drain); see next_pending_time.
    const bool has_cq = !dest_cq_.empty() && dest_cq_.front().time <= now;
    const bool has_ring = !shm_ring_.empty() && shm_ring_.front().time <= now;
    if (!has_cq && !has_ring) break;
    // Merge by arrival time (ties: CQ first) so the consumer observes the
    // same global order a single merged hardware queue would produce.
    const bool take_cq =
        has_cq &&
        (!has_ring || dest_cq_.front().time <= shm_ring_.front().time);
    HwNotification& o = out[n++];
    o = HwNotification{};
    if (take_cq) {
      o.queue_slot = &dest_cq_.front();
      const Cqe c = dest_cq_.pop();
      ++cq_popped;
      o.imm = c.imm;
      o.window = c.window;
      o.bytes = c.bytes;
      o.time = c.time;
      o.msg = c.msg;
      o.backend = c.backend;
    } else {
      o.queue_slot = &shm_ring_.front();
      const ShmNotification s = shm_ring_.pop();
      ++shm_popped;
      o.imm = s.imm;
      o.window = s.window;
      o.bytes = s.bytes;
      o.time = s.time;
      o.msg = s.msg;
      o.from_shm = true;
      o.backend = BackendKind::kShm;
      o.key = s.key;
      o.offset = s.offset;
      o.inline_len = s.inline_len;
      if (s.inline_len) o.inline_data = s.inline_data;
    }
  }
  if (n) {
    const Time now = ctx_.now();
    g_dest_cq_depth_.set(static_cast<std::int64_t>(dest_cq_.size()), now);
    g_shm_ring_depth_.set(static_cast<std::int64_t>(shm_ring_.size()), now);
    FlowControl& fc = fabric_.flow();
    fc.release(rank(), FlowControl::Queue::kDestCq, cq_popped,
               fabric_.engine(), now);
    fc.release(rank(), FlowControl::Queue::kShmRing, shm_popped,
               fabric_.engine(), now);
  }
  return n;
}

NetMsg Nic::pop_mailbox() {
  NetMsg m = mailbox_.pop();
  fabric_.flow().release(rank(), FlowControl::Queue::kMailbox, 1,
                         fabric_.engine(), ctx_.now());
  return m;
}

// --- Completion delivery ----------------------------------------------------

void Nic::commit(const Cqe& cqe) {
  ++fabric_.counters().notifications;
  fabric_.note_notify(rank(), cqe.backend);
  if (cqe.msg)
    if (auto* mt = fabric_.msgtrace())
      mt->hop(cqe.msg, rank(), obs::HopKind::kDeliver, cqe.time);
  g_dest_cq_depth_.set(static_cast<std::int64_t>(dest_cq_.size()), cqe.time);
  progress_.notify(fabric_.engine(), cqe.time);
}

void Nic::commit(const ShmNotification& n) {
  ++fabric_.counters().notifications;
  fabric_.note_notify(rank(), BackendKind::kShm);
  if (n.msg)
    if (auto* mt = fabric_.msgtrace())
      mt->hop(n.msg, rank(), obs::HopKind::kDeliver, n.time);
  g_shm_ring_depth_.set(static_cast<std::int64_t>(shm_ring_.size()), n.time);
  progress_.notify(fabric_.engine(), n.time);
}

void Nic::commit(const NetMsg& msg) {
  if (msg.msg)
    if (auto* mt = fabric_.msgtrace())
      mt->hop(msg.msg, rank(), obs::HopKind::kDeliver, msg.time);
  g_mailbox_depth_.set(static_cast<std::int64_t>(mailbox_.size()), msg.time);
  progress_.notify(fabric_.engine(), msg.time);
}

template <class T>
void Nic::graceful_deliver(T entry, RingBuffer<T>& q, Spill<T>& sp,
                           const char* what) {
  // Entries parked ahead must land first (per-source FIFO); otherwise try
  // the queue directly, with the fault plan optionally forcing a transient
  // "queue full" observation on first contact.
  const bool behind = !sp.entries.empty();
  const bool forced = !behind && fabric_.faults().enabled() &&
                      fabric_.faults().next_pressure(rank());
  if (!behind && !forced && q.try_push(entry)) {
    commit(entry);
    return;
  }
  ++fabric_.counters().retries;
  if (entry.msg)
    if (auto* mt = fabric_.msgtrace())
      mt->hop(entry.msg, rank(), obs::HopKind::kRetry, entry.time);
  if (auto* j = fabric_.journal()) {
    std::uint64_t qid;
    if constexpr (std::is_same_v<T, Cqe>)
      qid = static_cast<std::uint64_t>(FlowControl::Queue::kDestCq);
    else if constexpr (std::is_same_v<T, ShmNotification>)
      qid = static_cast<std::uint64_t>(FlowControl::Queue::kShmRing);
    else
      qid = static_cast<std::uint64_t>(FlowControl::Queue::kMailbox);
    if (forced)
      j->append(obs::JournalKind::kPressure, entry.time, rank(), -1, qid);
    else
      j->append(obs::JournalKind::kOverflowSpill, entry.time, rank(), -1,
                static_cast<std::uint64_t>(q.size()),
                static_cast<std::uint64_t>(sp.entries.size() + 1));
  }
  const Time t = entry.time + fabric_.params().faults.backoff(0);
  sp.entries.push_back(std::move(entry));
  if (!sp.scheduled) {
    sp.scheduled = true;
    fabric_.engine().post(
        t, [this, &q, &sp, what, t] { drain_spill(q, sp, what, t); });
  }
}

template <class T>
void Nic::drain_spill(RingBuffer<T>& q, Spill<T>& sp, const char* what,
                      Time t) {
  sp.scheduled = false;
  while (!sp.entries.empty()) {
    T& head = sp.entries.front();
    // The entry lands now, not at its first (refused) arrival, so consumers
    // and the msgtrace see the redelivery instant.
    if (head.time < t) head.time = t;
    if (q.try_push(head)) {
      commit(head);
      sp.entries.pop_front();
      sp.head_failures = 0;
      continue;
    }
    // Still no slot. Credited traffic cannot reach this (a spilled entry's
    // slot is reserved), so this is an uncredited push racing a full queue;
    // retry with bounded exponential backoff.
    ++fabric_.counters().retries;
    ++sp.head_failures;
    // head_failures counts failed *retries* (the refused first delivery was
    // charged in graceful_deliver); `<` keeps this path's attempt count
    // identical to the credit-stall path below — fatal when the
    // max_retries-th retry also finds no slot.
    NARMA_CHECK(sp.head_failures < fabric_.params().faults.max_retries)
        << what << " redelivery retry budget exhausted after "
        << fabric_.params().faults.max_retries << " retries at rank "
        << rank() << ": depth " << q.size() << " of capacity " << q.capacity()
        << " — the consumer is not draining; raise the queue capacity or "
           "FaultParams::max_retries";
    if (head.msg)
      if (auto* mt = fabric_.msgtrace())
        mt->hop(head.msg, rank(), obs::HopKind::kRetry, t);
    const Time next = t + fabric_.params().faults.backoff(sp.head_failures);
    sp.scheduled = true;
    fabric_.engine().post(next, [this, &q, &sp, what, next] {
      drain_spill(q, sp, what, next);
    });
    return;
  }
}

void Nic::acquire_credit(int target, FlowControl::Queue q, std::uint64_t msg) {
  FlowControl& fc = fabric_.flow();
  if (!fc.active() || fc.try_acquire(target, q)) return;
  const FaultParams& fp = fabric_.params().faults;
  int attempt = 0;
  for (;;) {
    ++fabric_.counters().credit_stalls;
    NARMA_CHECK(attempt < fp.max_retries)
        << "credit-stall retry budget exhausted after " << fp.max_retries
        << " retries: rank " << rank() << " -> " << target << " ("
        << fc.in_flight(target, q) << " of " << fc.capacity(q)
        << " slots in flight) — the consumer is not draining; raise the "
           "destination queue capacity or FaultParams::max_retries";
    ctx_.wait_deadline(fc.trigger(target, q), ctx_.now() + fp.backoff(attempt),
                       "net-credit-stall");
    ctx_.drain();
    ++attempt;
    if (fc.try_acquire(target, q)) break;
  }
  // One record per stall episode (not per wait), stamped when the credit
  // finally arrives; `b` carries how many backoff waits it took.
  if (auto* j = fabric_.journal())
    j->append(obs::JournalKind::kCreditStall, ctx_.now(), rank(), target,
              static_cast<std::uint64_t>(q),
              static_cast<std::uint64_t>(attempt));
  // The op was delayed by backpressure; fold the stall into its lifecycle.
  if (msg)
    if (auto* mt = fabric_.msgtrace())
      mt->hop(msg, rank(), obs::HopKind::kRetry, ctx_.now());
}

bool Nic::drop_if_dead(FlowControl::Queue q, Time t) {
  if (fabric_.rank_up(rank())) return false;
  // Delivery into a failed rank: the payload evaporates (the rank's memory
  // is gone) instead of aborting the fabric. The sender's hardware ack still
  // fires — the wire delivered, the host died — so source-side flushes
  // complete, and the queue-slot credit the sender reserved is returned
  // (a no-op under the fatal policy) so survivors are never throttled by a
  // corpse. The ft layer replays the lost notifications from peer logs.
  ++fabric_.counters().dead_drops;
  fabric_.flow().release(rank(), q, 1, fabric_.engine(), t);
  return true;
}

void Nic::push_cqe(const Cqe& cqe) {
  if (drop_if_dead(FlowControl::Queue::kDestCq, cqe.time)) return;
  // Backends that own their overflow behavior (RAMC, verbs — see
  // NotifyCosts::graceful_overflow) absorb a full CQ through the spill +
  // bounded-retry path even under the global fatal policy; the uGNI-style
  // abort below is Aries semantics, not a fabric invariant.
  if (fabric_.flow().active() || fabric_.graceful_overflow(cqe.backend)) {
    graceful_deliver(cqe, dest_cq_, spill_cq_, "destination completion queue");
    return;
  }
  NARMA_CHECK(dest_cq_.try_push(cqe))
      << "destination completion queue overflow at rank " << rank()
      << ": depth " << dest_cq_.size() << " of capacity "
      << dest_cq_.capacity()
      << " — raise WorldParams::fabric.dest_cq_capacity, consume "
         "notifications faster, or select the backpressure overflow policy "
         "(FaultParams::overflow_policy; NARMA_OVERFLOW=backpressure in "
         "narma_cli); like uGNI, CQ overflow under the fatal policy is "
         "unrecoverable";
  commit(cqe);
}

void Nic::push_shm(const ShmNotification& n) {
  if (drop_if_dead(FlowControl::Queue::kShmRing, n.time)) return;
  if (fabric_.flow().active()) {
    graceful_deliver(n, shm_ring_, spill_shm_, "shm notification ring");
    return;
  }
  NARMA_CHECK(shm_ring_.try_push(n))
      << "shared-memory notification ring overflow at rank " << rank()
      << ": depth " << shm_ring_.size() << " of capacity "
      << shm_ring_.capacity()
      << " — raise WorldParams::fabric.shm_ring_capacity, consume "
         "notifications faster, or select the backpressure overflow policy "
         "(FaultParams::overflow_policy; NARMA_OVERFLOW=backpressure in "
         "narma_cli)";
  commit(n);
}

void Nic::push_msg(NetMsg msg) {
  if (drop_if_dead(FlowControl::Queue::kMailbox, msg.time)) return;
  if (fabric_.flow().active()) {
    if (delivery_hook_) {
      const std::uint64_t mid = msg.msg;
      const Time t = msg.time;
      if (delivery_hook_(std::move(msg))) {
        // Consumed by the async-progression agent: delivered at this
        // instant, and its mailbox slot reservation is returned unused.
        if (mid)
          if (auto* mt = fabric_.msgtrace())
            mt->hop(mid, rank(), obs::HopKind::kDeliver, t);
        fabric_.flow().release(rank(), FlowControl::Queue::kMailbox, 1,
                               fabric_.engine(), t);
        return;
      }
    }
    graceful_deliver(std::move(msg), mailbox_, spill_mail_, "mailbox");
    return;
  }
  // Recorded before the delivery hook: a hook-consumed message (async
  // progression) is delivered at this instant too.
  if (msg.msg)
    if (auto* mt = fabric_.msgtrace())
      mt->hop(msg.msg, rank(), obs::HopKind::kDeliver, msg.time);
  if (delivery_hook_ && delivery_hook_(std::move(msg))) return;
  const Time t = msg.time;
  NARMA_CHECK(mailbox_.try_push(std::move(msg)))
      << "mailbox overflow at rank " << rank() << ": depth "
      << mailbox_.size() << " of capacity " << mailbox_.capacity()
      << " — raise WorldParams::fabric.mailbox_capacity, progress the "
         "receiver, or select the backpressure overflow policy "
         "(FaultParams::overflow_policy; NARMA_OVERFLOW=backpressure in "
         "narma_cli)";
  g_mailbox_depth_.set(static_cast<std::int64_t>(mailbox_.size()), t);
  progress_.notify(fabric_.engine(), t);
}

void Nic::post_ack(int origin, Time deliver_time, Transport transport,
                   PendingOps* pending) {
  const Time ack = deliver_time + fabric_.timing(transport).ack_L;
  ++fabric_.counters().acks;
  Nic* origin_nic = &fabric_.nic(origin);
  fabric_.engine().post(ack, [origin_nic, pending, ack] {
    if (pending) ++pending->completed;
    origin_nic->g_src_pending_.add(-1, ack);
    origin_nic->progress_.notify(origin_nic->fabric_.engine(), ack);
  });
}

// --- RDMA -------------------------------------------------------------------

void Nic::put(int target, MemKey key, std::uint64_t offset, const void* src,
              std::size_t bytes, NotifyAttr na, PendingOps* pending) {
  if (na.notify) acquire_credit(target, FlowControl::Queue::kDestCq, na.msg);
  put_at(ctx_.now(), target, key, offset, src, bytes, na, pending);
}

void Nic::put_at(Time issue, int target, MemKey key, std::uint64_t offset,
                 const void* src, std::size_t bytes, NotifyAttr na,
                 PendingOps* pending) {
  const TransportBackend& be = fabric_.backend_for(rank(), target);
  const Transport tr = be.lane(bytes);
  Nic* tgt = &fabric_.nic(target);
  if (pending) ++pending->issued;
  ++fabric_.counters().data_transfers;
  g_src_pending_.add(1, issue);

  const int src_rank = rank();
  if (na.notify && be.notify_model() == NotifyModel::kCounting) {
    // RAMC-style counting completion: the data leg moves the payload with
    // no completion of its own; a ring-entry descriptor write follows on
    // the same channel, and its counting-counter update at the target
    // makes the notification visible. The channel serializes the two legs
    // in injection order, but the descriptor rides the (lower-latency) IDC
    // lane, so visibility is additionally clamped to the data commit — a
    // notification must never precede its payload.
    const Time data_deliver = fabric_.schedule_transfer(
        src_rank, target, issue, bytes, tr, Fabric::ChannelClass::kData,
        [tgt, key, offset, src, bytes, na](Time t) {
          if (bytes > 0) {
            commit_payload(tgt->resolve(key, offset, bytes), src, bytes);
          } else {
            (void)tgt->resolve(key, offset, 0);
          }
          if (na.remote_delivered) {
            ++na.remote_delivered->completed;
            tgt->progress_.notify(tgt->fabric_.engine(), t);
          }
        },
        na.msg);
    const NotifyCosts nc = be.notify_costs();
    ++fabric_.counters().ctrl_transfers;
    const Time desc_deliver = fabric_.reserve_transfer(
        src_rank, target, issue, nc.desc_bytes, be.lane(nc.desc_bytes),
        Fabric::ChannelClass::kData, na.msg);
    const Time visible = std::max(desc_deliver, data_deliver) + nc.commit;
    Cqe cqe{CqeKind::kPutNotify,
            na.imm,
            static_cast<std::uint32_t>(bytes),
            na.window,
            visible,
            na.msg,
            be.kind()};
    fabric_.engine().post(visible, [tgt, cqe] { tgt->push_cqe(cqe); });
    if (auto* tracer = fabric_.tracer())
      tracer->flow(src_rank, target, "rdma",
                   "put " + std::to_string(bytes) + "B+desc", issue, visible,
                   na.msg ? obs::MsgTrace::flow_id(na.msg) : 0);
    post_ack(src_rank, data_deliver, tr, pending);
    return;
  }

  const BackendKind bk = be.kind();
  const Time deliver = fabric_.schedule_transfer(
      src_rank, target, issue, bytes, tr, Fabric::ChannelClass::kData,
      [tgt, target, key, offset, src, bytes, na, bk](Time t) {
        if (bytes > 0) {
          commit_payload(tgt->resolve(key, offset, bytes), src, bytes);
        } else {
          // Zero-byte puts still validate the target address (paper: the
          // calls support zero-byte payloads, notification only).
          (void)tgt->resolve(key, offset, 0);
        }
        if (na.notify) {
          tgt->push_cqe(Cqe{CqeKind::kPutNotify, na.imm,
                            static_cast<std::uint32_t>(bytes), na.window, t,
                            na.msg, bk});
        } else if (na.msg) {
          // Plain put: the lifecycle's delivery hop is the data commit.
          if (auto* mt = tgt->fabric_.msgtrace())
            mt->hop(na.msg, target, obs::HopKind::kDeliver, t);
        }
        if (na.remote_delivered) {
          ++na.remote_delivered->completed;
          tgt->progress_.notify(tgt->fabric_.engine(), t);
        }
      },
      na.msg);
  if (auto* tracer = fabric_.tracer())
    tracer->flow(src_rank, target, "rdma",
                 "put " + std::to_string(bytes) + "B", issue, deliver,
                 na.msg ? obs::MsgTrace::flow_id(na.msg) : 0);
  post_ack(src_rank, deliver, tr, pending);
}

void Nic::put_iov(int target, MemKey key,
                  std::span<const IoSegment> segments, NotifyAttr na,
                  PendingOps* pending) {
  std::size_t total = 0;
  for (const auto& s : segments) total += s.bytes;
  if (na.notify) acquire_credit(target, FlowControl::Queue::kDestCq, na.msg);
  const TransportBackend& be = fabric_.backend_for(rank(), target);
  const Transport tr = be.lane(total);
  const BackendKind bk = be.kind();
  Nic* tgt = &fabric_.nic(target);
  if (pending) ++pending->issued;
  ++fabric_.counters().data_transfers;
  g_src_pending_.add(1, ctx_.now());

  const bool counting =
      na.notify && be.notify_model() == NotifyModel::kCounting;
  const int src_rank = rank();
  // Segment list captured by value: the descriptors are consumed at issue,
  // the referenced payloads at delivery (standard RDMA source semantics).
  std::vector<IoSegment> segs(segments.begin(), segments.end());
  const Time deliver = fabric_.schedule_transfer(
      src_rank, target, ctx_.now(), total, tr, Fabric::ChannelClass::kData,
      [tgt, target, key, segs = std::move(segs), na, total, bk,
       counting](Time t) {
        for (const auto& s : segs) {
          if (s.bytes == 0) continue;
          commit_payload(tgt->resolve(key, s.offset, s.bytes), s.src,
                         s.bytes);
        }
        if (na.notify && !counting) {
          tgt->push_cqe(Cqe{CqeKind::kPutNotify, na.imm,
                            static_cast<std::uint32_t>(total), na.window, t,
                            na.msg, bk});
        } else if (!na.notify && na.msg) {
          if (auto* mt = tgt->fabric_.msgtrace())
            mt->hop(na.msg, target, obs::HopKind::kDeliver, t);
        }
        if (na.remote_delivered) {
          ++na.remote_delivered->completed;
          tgt->progress_.notify(tgt->fabric_.engine(), t);
        }
      },
      na.msg);
  if (counting) {
    // Same counting-completion shape as put_at: descriptor leg on the same
    // channel, visibility clamped to the data commit.
    const NotifyCosts nc = be.notify_costs();
    ++fabric_.counters().ctrl_transfers;
    const Time desc_deliver = fabric_.reserve_transfer(
        src_rank, target, ctx_.now(), nc.desc_bytes, be.lane(nc.desc_bytes),
        Fabric::ChannelClass::kData, na.msg);
    const Time visible = std::max(desc_deliver, deliver) + nc.commit;
    Cqe cqe{CqeKind::kPutNotify,
            na.imm,
            static_cast<std::uint32_t>(total),
            na.window,
            visible,
            na.msg,
            bk};
    fabric_.engine().post(visible, [tgt, cqe] { tgt->push_cqe(cqe); });
  }
  if (auto* tracer = fabric_.tracer())
    tracer->flow(src_rank, target, "rdma",
                 "put_iov " + std::to_string(segments.size()) + "x",
                 ctx_.now(), deliver,
                 na.msg ? obs::MsgTrace::flow_id(na.msg) : 0);
  post_ack(src_rank, deliver, tr, pending);
}

void Nic::get(int target, MemKey key, std::uint64_t offset, void* dst,
              std::size_t bytes, NotifyAttr na, PendingOps* pending) {
  if (na.notify) acquire_credit(target, FlowControl::Queue::kDestCq, na.msg);
  const TransportBackend& be = fabric_.backend_for(rank(), target);
  const Transport tr = be.lane(bytes);
  const BackendKind bk = be.kind();
  Nic* tgt = &fabric_.nic(target);
  Nic* self = this;
  if (pending) ++pending->issued;
  ++fabric_.counters().data_transfers;
  g_src_pending_.add(1, ctx_.now());

  const int origin = rank();
  // Request header travels to the target; the target NIC reads the region,
  // notifies (reliable network: notification as soon as the data has been
  // read, paper Sec. VIII), and streams the response back on the response
  // channel. Local completion fires when the response has fully arrived.
  //
  // The data is snapshotted at read time: once the get-notification is
  // visible, the target may legally overwrite its buffer (that is the whole
  // point of notified reads), so the in-flight response must not observe
  // later writes.
  fabric_.schedule_transfer(
      origin, target, ctx_.now(), 0, tr, Fabric::ChannelClass::kData,
      [self, tgt, origin, target, key, offset, dst, bytes, na, tr, bk,
       pending](Time t_req) {
        auto wire = std::make_shared<std::vector<std::byte>>();
        if (bytes > 0) {
          const std::byte* s = tgt->resolve(key, offset, bytes);
          wire->assign(s, s + bytes);
        }
        if (na.notify)
          tgt->push_cqe(Cqe{CqeKind::kGetNotify, na.imm,
                            static_cast<std::uint32_t>(bytes), na.window,
                            t_req, na.msg, bk});
        ++self->fabric_.counters().responses;
        // A notified get's consumer path ends at the target CQ; a plain
        // get's lifecycle follows the response leg back to the origin.
        const std::uint64_t resp_msg = na.notify ? 0 : na.msg;
        self->fabric_.schedule_transfer(
            target, origin, t_req, bytes, tr, Fabric::ChannelClass::kResp,
            [self, origin, wire = std::move(wire), dst, bytes, pending,
             resp_msg](Time t_resp) {
              if (bytes > 0) std::memcpy(dst, wire->data(), bytes);
              if (resp_msg)
                if (auto* mt = self->fabric_.msgtrace())
                  mt->hop(resp_msg, origin, obs::HopKind::kDeliver, t_resp);
              if (pending) ++pending->completed;
              self->g_src_pending_.add(-1, t_resp);
              self->progress_.notify(self->fabric_.engine(), t_resp);
            },
            resp_msg);
      },
      na.msg);
}

void Nic::atomic(int target, MemKey key, std::uint64_t offset, AtomicOp op,
                 std::int64_t operand, std::int64_t compare,
                 std::int64_t* result, NotifyAttr na, PendingOps* pending) {
  if (na.notify) acquire_credit(target, FlowControl::Queue::kDestCq, na.msg);
  const TransportBackend& be = fabric_.backend_for(rank(), target);
  const Transport tr = be.lane(sizeof(std::int64_t));
  const BackendKind bk = be.kind();
  Nic* tgt = &fabric_.nic(target);
  Nic* self = this;
  if (pending) ++pending->issued;
  ++fabric_.counters().data_transfers;
  g_src_pending_.add(1, ctx_.now());

  const int origin = rank();
  const Time exec_cost = fabric_.params().atomic_exec;
  fabric_.schedule_transfer(
      origin, target, ctx_.now(), sizeof(std::int64_t), tr,
      Fabric::ChannelClass::kData,
      [self, tgt, origin, target, key, offset, op, operand, compare, result,
       na, tr, bk, pending, exec_cost](Time t_req) {
        std::byte* loc = tgt->resolve(key, offset, sizeof(std::int64_t));
        std::int64_t old;
        std::memcpy(&old, loc, sizeof(old));
        std::int64_t next = old;
        switch (op) {
          case AtomicOp::kAddI64: next = old + operand; break;
          case AtomicOp::kAddF64: {
            const double d =
                std::bit_cast<double>(old) + std::bit_cast<double>(operand);
            next = std::bit_cast<std::int64_t>(d);
            break;
          }
          case AtomicOp::kSwapI64: next = operand; break;
          case AtomicOp::kCasI64:
            next = (old == compare) ? operand : old;
            break;
        }
        std::memcpy(loc, &next, sizeof(next));
        const Time t_done = t_req + exec_cost;
        if (na.notify)
          tgt->push_cqe(Cqe{CqeKind::kAtomicNotify, na.imm,
                            sizeof(std::int64_t), na.window, t_done, na.msg,
                            bk});
        ++self->fabric_.counters().responses;
        const std::uint64_t resp_msg = na.notify ? 0 : na.msg;
        self->fabric_.schedule_transfer(
            target, origin, t_done, sizeof(std::int64_t), tr,
            Fabric::ChannelClass::kResp,
            [self, origin, result, old, pending, resp_msg](Time t_resp) {
              if (result) *result = old;
              if (resp_msg)
                if (auto* mt = self->fabric_.msgtrace())
                  mt->hop(resp_msg, origin, obs::HopKind::kDeliver, t_resp);
              if (pending) ++pending->completed;
              self->g_src_pending_.add(-1, t_resp);
              self->progress_.notify(self->fabric_.engine(), t_resp);
            },
            resp_msg);
      },
      na.msg);
}

// --- Control messages ---------------------------------------------------------

void Nic::send_msg(int target, NetMsg msg) {
  acquire_credit(target, FlowControl::Queue::kMailbox, msg.msg);
  const std::size_t wire =
      fabric_.params().ctrl_msg_bytes + msg.payload.size();
  const Transport tr = fabric_.transport_for(rank(), target, wire);
  Nic* tgt = &fabric_.nic(target);
  ++fabric_.counters().ctrl_transfers;
  msg.src = rank();
  const std::uint32_t kind = msg.kind;
  const std::uint64_t mid = msg.msg;
  auto shared = std::make_shared<NetMsg>(std::move(msg));
  const Time issue = ctx_.now();
  const Time deliver = fabric_.schedule_transfer(
      rank(), target, issue, wire, tr, Fabric::ChannelClass::kData,
      [tgt, shared](Time t) {
        shared->time = t;
        tgt->push_msg(std::move(*shared));
      },
      mid);
  if (auto* tracer = fabric_.tracer())
    tracer->flow(rank(), target, "ctrl",
                 "msg kind=0x" + std::to_string(kind), issue, deliver,
                 mid ? obs::MsgTrace::flow_id(mid) : 0);
}

// --- Shared-memory notification ring ------------------------------------------

void Nic::send_shm_notification(int target, ShmNotification n,
                                PendingOps* pending) {
  NARMA_CHECK(fabric_.same_node(rank(), target))
      << "shm notification to remote node (rank " << rank() << " -> "
      << target << ")";
  acquire_credit(target, FlowControl::Queue::kShmRing, n.msg);
  Nic* tgt = &fabric_.nic(target);
  if (pending) ++pending->issued;
  g_src_pending_.add(1, ctx_.now());
  // One cache line on the intra-node interconnect. Delivery at the target
  // and local completion (coherent shared memory completes at delivery)
  // happen at the same instant, so both are posted as one event batch.
  const Time deliver = fabric_.reserve_transfer(
      rank(), target, ctx_.now(), 64, Transport::kShm,
      Fabric::ChannelClass::kData, n.msg);
  if (auto* tracer = fabric_.tracer())
    tracer->flow(rank(), target, "shm", "notification", ctx_.now(), deliver,
                 n.msg ? obs::MsgTrace::flow_id(n.msg) : 0);
  Nic* self = this;
  fabric_.engine().post_batch(
      deliver,
      [tgt, n, deliver] {
        ShmNotification entry = n;
        entry.time = deliver;
        tgt->push_shm(entry);
      },
      [self, pending, deliver] {
        if (pending) ++pending->completed;
        self->g_src_pending_.add(-1, deliver);
        self->progress_.notify(self->fabric_.engine(), deliver);
      });
}

}  // namespace narma::net
