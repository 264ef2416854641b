// Shared randomized-schedule harnesses for the bit-identity property tests
// (tests/test_transport_backends.cpp, tests/test_obs_aggregate.cpp).
//
// schedule_hash(seed) runs one seeded producer/consumer workload — random
// rank count, node layout, matcher, payload sizes straddling every lane
// threshold, a mix of put/get/fetch-add notifications plus plain RMA — and
// folds every rank's final virtual time and the fabric's wire counters into
// a single 64-bit hash. Everything that feeds the hash is virtual-time
// deterministic, so the fold over many seeds pins the simulator's timing
// behavior down to the bit.
//
// kGoldenScheduleHash below was generated from the pre-TransportBackend
// tree (PR 5 head, commit 9ca08a6) over seeds 1..kGoldenScheduleCount. The
// backend refactor must reproduce it exactly: the default Aries backend is
// required to be bit-identical to the hard-coded fabric it replaced.
//
// surface_hash(seed), further down, widens the same idea to every origin
// operation shape, two-sided sends and every transport layout.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "core/world.hpp"

namespace narma::golden {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

inline std::uint64_t fnv_fold(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

/// Registry rank-sample override for the observability property tests.
/// kNone leaves the seeded draw alone (the golden-hash configuration); the
/// other two force metrics on and pin the sample, *after* the draw — the
/// RNG consumes the same values in all three variants, so every virtual
/// time is identical and full- vs partial-sample runs of one seed hash
/// equal.
enum class ObsOverride { kNone, kFullSample, kPartialSample };

/// One randomized schedule: ranks 1..n-1 produce notified accesses into
/// rank 0's window; rank 0 consumes them all with a wildcard counting
/// request. Returns the FNV fold of per-rank finish times and counters.
/// `inspect` runs on the finished world before it is torn down.
template <class Inspect>
inline std::uint64_t schedule_hash_with(std::uint64_t seed, ObsOverride ov,
                                        Inspect&& inspect) {
  Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ull + 1);

  const int nranks = 2 + static_cast<int>(rng.next_below(4));  // 2..5
  static constexpr int kRpn[] = {1, 2, 4};
  WorldParams wp;
  wp.fabric.ranks_per_node = kRpn[rng.next_below(3)];
  // NOTE: pre-refactor this knob was wp.fabric.fma_bte_threshold; the
  // per-backend parameter split moved it into the Aries block. The value —
  // and therefore every virtual time — is unchanged.
  wp.fabric.aries.fma_bte_threshold = rng.next_below(2) ? 4096 : 1024;
  wp.na.matcher = rng.next_below(3) ? na::Matcher::kIndexed
                                    : na::Matcher::kLinear;
  wp.na.enable_shm_inline = rng.next_below(4) != 0;
  wp.enable_metrics = rng.next_below(2) != 0;
  if (ov != ObsOverride::kNone) {
    wp.enable_metrics = true;
    // The default sample covers all 2..5 ranks; two sampled ranks leave the
    // rest to the remainder histogram, so both paths are exercised.
    if (ov == ObsOverride::kPartialSample) {
      wp.obs.sample_ranks = 2;
      wp.obs.outlier_k = 3;
    }
  }

  // Per-producer op plans, drawn up front so ranks never share RNG
  // state. kind: 0 = put_notify, 1 = get_notify, 2 = fetch_add_notify.
  struct Op {
    int kind;
    std::uint32_t bytes;
    int tag;
    std::uint64_t disp;
  };
  constexpr std::size_t kWinBytes = 1 << 16;
  std::vector<std::vector<Op>> plan(static_cast<std::size_t>(nranks));
  int total = 0;
  for (int p = 1; p < nranks; ++p) {
    const int k = 1 + static_cast<int>(rng.next_below(6));
    for (int m = 0; m < k; ++m) {
      Op op;
      op.kind = static_cast<int>(rng.next_below(3));
      static constexpr std::uint32_t kSizes[] = {0,  1,   8,    32,  64,
                                                 96, 512, 2048, 4096, 8192};
      op.bytes = op.kind == 2 ? 8 : kSizes[rng.next_below(10)];
      op.tag = static_cast<int>(rng.next_below(16));
      op.disp = 8 * rng.next_below((kWinBytes - 8192) / 8);
      plan[static_cast<std::size_t>(p)].push_back(op);
      ++total;
    }
  }

  World world(nranks, wp);
  std::uint64_t hash = kFnvOffset;
  world.run([&](Rank& self) {
    auto win = self.win_allocate(kWinBytes, 1);
    if (self.id() != 0) {
      std::vector<std::byte> buf(8192, std::byte{0x5a});
      std::int64_t scratch = 0;
      for (const Op& op : plan[static_cast<std::size_t>(self.id())]) {
        switch (op.kind) {
          case 0:
            self.na().put_notify(*win, {buf.data(), op.bytes}, 0, op.disp,
                                 op.tag);
            break;
          case 1:
            self.na().get_notify(*win, {buf.data(), op.bytes}, 0, op.disp,
                                 op.tag);
            break;
          default:
            self.na().fetch_add_notify_i64(*win, 0, op.disp, 3, &scratch,
                                           op.tag);
            break;
        }
        win->flush(0);
      }
    } else if (total > 0) {
      auto req = self.na().notify_init(*win, na::MatchSpec::any(),
                                       static_cast<std::uint32_t>(total));
      self.na().start(req);
      self.na().wait(req);
    }
    self.barrier();
  });

  for (int r = 0; r < nranks; ++r)
    hash = fnv_fold(hash, static_cast<std::uint64_t>(
                              world.engine().rank(r).now()));
  const net::FabricCounters& fc = world.fabric().counters();
  hash = fnv_fold(hash, fc.data_transfers);
  hash = fnv_fold(hash, fc.ctrl_transfers);
  hash = fnv_fold(hash, fc.responses);
  hash = fnv_fold(hash, fc.acks);
  hash = fnv_fold(hash, fc.notifications);
  hash = fnv_fold(hash, fc.bytes_on_wire);
  inspect(world);
  return hash;
}

inline std::uint64_t schedule_hash(std::uint64_t seed) {
  return schedule_hash_with(seed, ObsOverride::kNone, [](World&) {});
}

inline constexpr std::uint64_t kGoldenScheduleCount = 1000;

/// Fold of schedule_hash over seeds 1..n (the committed golden value below
/// was produced with n = kGoldenScheduleCount on the pre-refactor tree).
inline std::uint64_t all_schedules_hash(std::uint64_t n) {
  std::uint64_t h = kFnvOffset;
  for (std::uint64_t s = 1; s <= n; ++s) h = fnv_fold(h, schedule_hash(s));
  return h;
}

/// Generated from the pre-TransportBackend tree; see file comment. The
/// short fold (seeds 1..100) exists so Debug/sanitizer builds can assert
/// bit-identity without paying for the full thousand.
inline constexpr std::uint64_t kGoldenScheduleHash = 0x30db7fcc5f99eca0ull;
inline constexpr std::uint64_t kGoldenScheduleCountShort = 100;
inline constexpr std::uint64_t kGoldenScheduleHashShort =
    0x3acdd9c56ae77b70ull;

}  // namespace narma::golden

namespace narma::golden {

/// Full-surface randomized schedule: every origin operation shape of the
/// public API over every transport layout. Ranks 1..n-1 issue a seeded mix
/// of notified accesses into rank 0's window (put, strided put, get,
/// fetch-add, compare-and-swap), plain RMA into any other rank's window
/// (put, strided put, get, fetch-add i64/f64, compare-and-swap) and
/// two-sided sends to rank 0 straddling the eager/rendezvous threshold,
/// with asynchronous progression on or off. The inter-node fabric is
/// aries, ramc or verbs at one or two ranks per node, or all ranks share
/// one node (the shm layout). The fold covers per-rank finish times, every
/// FabricCounters field and a checksum of every rank's window plus the
/// data each origin read back (get buffers, fetched values, received
/// messages).
/// Word-wise multiplicative checksum of a byte range (cheap enough to run
/// over whole windows for every seed).
inline std::uint64_t checksum(std::span<const std::byte> b) {
  std::uint64_t h = kFnvOffset;
  std::size_t i = 0;
  for (; i + 8 <= b.size(); i += 8) {
    std::uint64_t w;
    std::memcpy(&w, b.data() + i, 8);
    h = (h ^ w) * kFnvPrime;
  }
  for (; i < b.size(); ++i)
    h = (h ^ static_cast<std::uint64_t>(b[i])) * kFnvPrime;
  return h;
}

inline std::uint64_t surface_hash(std::uint64_t seed) {
  Xoshiro256 rng(seed * 0xd1b54a32d192ed03ull + 7);

  const int nranks = 2 + static_cast<int>(rng.next_below(4));  // 2..5
  WorldParams wp;
  static constexpr net::BackendKind kInter[] = {net::BackendKind::kAries,
                                                net::BackendKind::kRamc,
                                                net::BackendKind::kVerbs};
  const std::uint64_t layout = rng.next_below(4);
  if (layout == 3) {
    wp.fabric.ranks_per_node = nranks;  // one node: every pair is shm
  } else {
    wp.fabric.inter_node = kInter[layout];
    wp.fabric.ranks_per_node = 1 + static_cast<int>(rng.next_below(2));
  }
  wp.mp.async_progression = rng.next_below(2) != 0;
  wp.mp.eager_threshold = 1024;
  wp.na.enable_shm_inline = rng.next_below(4) != 0;
  wp.enable_metrics = rng.next_below(2) != 0;

  // Op kinds. Notified (into rank 0, counted by its wildcard request):
  //   0 put_notify, 1 put_notify_strided, 2 get_notify,
  //   3 fetch_add_notify_i64, 4 compare_swap_notify_i64.
  // Plain RMA (into a random other rank, flushed): 5 put, 6 put_strided,
  //   7 get, 8 fetch_add_i64, 9 fetch_add_f64, 10 compare_swap_i64.
  // Two-sided: 11 send to rank 0.
  constexpr int kKinds = 12;
  struct Op {
    int kind;
    int target;
    std::uint32_t bytes;  // contiguous size, strided block, or message size
    std::uint32_t nblocks;
    std::uint64_t stride;  // strided target stride (bytes, disp_unit 1)
    std::uint64_t disp;
    int tag;
    std::int64_t operand;
  };
  constexpr std::size_t kWinBytes = 1 << 16;
  constexpr std::size_t kAtomicBytes = 256;  // [0, 256): 8-byte atomic slots
  constexpr std::size_t kBufBytes = 16384;
  std::vector<std::vector<Op>> plan(static_cast<std::size_t>(nranks));
  int notified = 0;
  int sends = 0;
  for (int p = 1; p < nranks; ++p) {
    const int k = 1 + static_cast<int>(rng.next_below(8));
    for (int m = 0; m < k; ++m) {
      Op op{};
      op.kind = static_cast<int>(rng.next_below(kKinds));
      if (op.kind <= 4 || op.kind == 11) {
        op.target = 0;
      } else {
        op.target = static_cast<int>(rng.next_below(
            static_cast<std::uint64_t>(nranks - 1)));
        if (op.target >= p) ++op.target;
      }
      static constexpr std::uint32_t kSizes[] = {0,   1,    8,    32,  64,
                                                 96,  512,  2048, 4096, 8192};
      static constexpr std::uint32_t kMsgSizes[] = {256, 4096, 16384};
      static constexpr std::uint32_t kBlocks[] = {8, 64, 512};
      op.bytes = kSizes[rng.next_below(10)];
      op.nblocks = 1 + static_cast<std::uint32_t>(rng.next_below(4));
      if (op.kind == 1 || op.kind == 6) {
        op.bytes = kBlocks[rng.next_below(3)];
        op.stride = op.bytes + 64 * rng.next_below(3);
      }
      if (op.kind == 11) op.bytes = kMsgSizes[rng.next_below(3)];
      op.tag = static_cast<int>(rng.next_below(16));
      op.operand = static_cast<std::int64_t>(rng.next_below(1000)) - 500;
      const bool atomic = op.kind == 3 || op.kind == 4 ||
                          (op.kind >= 8 && op.kind <= 10);
      op.disp = atomic ? 8 * rng.next_below(kAtomicBytes / 8)
                       : kAtomicBytes + 8 * rng.next_below(
                                            (kWinBytes - kAtomicBytes -
                                             8192) / 8);
      if (op.kind <= 4) ++notified;
      if (op.kind == 11) ++sends;
      plan[static_cast<std::size_t>(p)].push_back(op);
    }
  }

  World world(nranks, wp);
  std::vector<std::uint64_t> sums(static_cast<std::size_t>(nranks), 0);
  world.run([&](Rank& self) {
    const auto me = static_cast<std::size_t>(self.id());
    auto win = self.win_allocate(kWinBytes, 1);
    // Atomic slots: alternate integers and doubles; the rest a rank pattern.
    auto slots = win->local<std::int64_t>();
    for (std::size_t i = 0; i < kAtomicBytes / 8; ++i)
      slots[i] = (i % 2) ? std::bit_cast<std::int64_t>(0.5 * double(i))
                         : static_cast<std::int64_t>(i * 3 + me);
    auto bytes = win->local<std::byte>();
    for (std::size_t i = kAtomicBytes; i < kWinBytes; ++i)
      bytes[i] = static_cast<std::byte>((i * 31 + me * 7) & 0xff);
    self.barrier();

    std::uint64_t h = kFnvOffset;
    if (self.id() != 0) {
      std::vector<std::byte> buf(kBufBytes);
      for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<std::byte>((i + me * 13) & 0xff);
      std::vector<std::byte> in(kBufBytes);
      for (const Op& op : plan[me]) {
        std::int64_t old = 0;
        double fold_d = 0;
        const std::span<const std::byte> src{buf.data(), op.bytes};
        // Source stride for strided ops: one block apart plus 16 bytes.
        const std::size_t sstride = op.bytes + 16;
        const std::span<const std::byte> ssrc{
            buf.data(), (op.nblocks - 1) * sstride + op.bytes};
        switch (op.kind) {
          case 0:
            self.na().put_notify(*win, src, 0, op.disp, op.tag);
            break;
          case 1:
            self.na().put_notify_strided(*win, ssrc, op.bytes, op.nblocks,
                                         sstride, 0, op.disp, op.stride,
                                         op.tag);
            break;
          case 2:
            self.na().get_notify(*win, {in.data(), op.bytes}, 0, op.disp,
                                 op.tag);
            break;
          case 3:
            self.na().fetch_add_notify_i64(*win, 0, op.disp, op.operand, &old,
                                           op.tag);
            break;
          case 4:
            self.na().compare_swap_notify_i64(*win, 0, op.disp,
                                              static_cast<std::int64_t>(
                                                  op.disp / 8 * 3),
                                              op.operand, &old, op.tag);
            break;
          case 5:
            win->put(buf.data(), op.bytes, op.target, op.disp);
            break;
          case 6:
            win->put_strided(buf.data(), op.bytes, op.nblocks, sstride,
                             op.target, op.disp, op.stride);
            break;
          case 7:
            win->get(in.data(), op.bytes, op.target, op.disp);
            break;
          case 8:
            win->fetch_add_i64(op.target, op.disp, op.operand, &old);
            break;
          case 9:
            win->fetch_add_f64(op.target, op.disp, 0.25 * double(op.operand),
                               &fold_d);
            break;
          case 10:
            win->compare_swap_i64(op.target, op.disp,
                                  static_cast<std::int64_t>(op.disp / 8 * 3),
                                  op.operand, &old);
            break;
          default:
            self.send(buf.data(), op.bytes, 0, 5);
            break;
        }
        if (op.kind != 11) win->flush(op.target);
        h = fnv_fold(h, static_cast<std::uint64_t>(old));
        h = fnv_fold(h, std::bit_cast<std::uint64_t>(fold_d));
        if (op.kind == 2 || op.kind == 7)
          h = fnv_fold(h, checksum({in.data(), op.bytes}));
      }
    } else {
      std::vector<std::byte> in(kBufBytes);
      for (int s = 0; s < sends; ++s) {
        mp::Status st;
        self.recv(in.data(), in.size(), mp::kAnySource, 5, &st);
        h = fnv_fold(h, static_cast<std::uint64_t>(st.source));
        h = fnv_fold(h, st.bytes);
        h = fnv_fold(h, checksum({in.data(), st.bytes}));
      }
      if (notified > 0) {
        auto req = self.na().notify_init(*win, na::MatchSpec::any(),
                                         static_cast<std::uint32_t>(notified));
        self.na().start(req);
        self.na().wait(req);
      }
    }
    self.barrier();
    sums[me] = fnv_fold(h, checksum(bytes));
  });

  std::uint64_t hash = kFnvOffset;
  for (int r = 0; r < nranks; ++r) {
    hash = fnv_fold(hash, static_cast<std::uint64_t>(
                              world.engine().rank(r).now()));
    hash = fnv_fold(hash, sums[static_cast<std::size_t>(r)]);
  }
  const net::FabricCounters& fc = world.fabric().counters();
  for (const std::uint64_t v :
       {fc.data_transfers, fc.ctrl_transfers, fc.responses, fc.acks,
        fc.notifications, fc.bytes_on_wire, fc.retries, fc.drops,
        fc.credit_stalls, fc.nic_stalls, fc.dead_drops})
    hash = fnv_fold(hash, v);
  return hash;
}

/// Fold of surface_hash over seeds 1..n.
inline std::uint64_t all_surface_hash(std::uint64_t n) {
  std::uint64_t h = kFnvOffset;
  for (std::uint64_t s = 1; s <= n; ++s) h = fnv_fold(h, surface_hash(s));
  return h;
}

/// Generated at the tree before the NIC's transfer bodies were folded into
/// one write path and one request/response path; the fold must reproduce
/// them exactly. The short prefix runs in Debug/sanitizer builds.
inline constexpr std::uint64_t kSurfaceCount = 1000;
inline constexpr std::uint64_t kSurfaceHash = 0xfc177618fddc6509ull;
inline constexpr std::uint64_t kSurfaceCountShort = 100;
inline constexpr std::uint64_t kSurfaceHashShort = 0xf005fea4f429ac52ull;

}  // namespace narma::golden
