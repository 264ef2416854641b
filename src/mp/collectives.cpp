#include "mp/collectives.hpp"

#include <cstring>

namespace narma::mp {

namespace {
// Reserved tag blocks per collective, so concurrent phases of different
// collectives cannot cross-match.
constexpr int kTagBarrier = kMaxUserTag + 0x001;
constexpr int kTagBcast = kMaxUserTag + 0x100;
constexpr int kTagReduce = kMaxUserTag + 0x200;
constexpr int kTagGather = kMaxUserTag + 0x300;

Time reduce_cost(const MpParams& p, std::size_t n) {
  return p.reduce_op_per_elem * static_cast<Time>(n);
}
}  // namespace

void barrier(Endpoint& ep) {
  const int p = ep.nranks();
  const int me = ep.rank();
  if (p == 1) return;
  std::byte token{};
  for (int dist = 1; dist < p; dist <<= 1) {
    const int to = (me + dist) % p;
    const int from = (me - dist % p + p) % p;
    Request s = ep.isend(&token, 1, to, kTagBarrier);
    Request r = ep.irecv(&token, 1, from, kTagBarrier);
    ep.wait(s);
    ep.wait(r);
  }
}

void bcast(Endpoint& ep, void* buf, std::size_t bytes, int root) {
  const int p = ep.nranks();
  if (p == 1) return;
  // Rotate so the root is virtual rank 0 in a binomial tree.
  const int vrank = (ep.rank() - root + p) % p;

  // Classic binomial: receive from the parent at the lowest set bit, then
  // forward to children at all lower bit positions (MPICH scheme).
  int mask = 1;
  while (mask < p) {
    if (vrank & mask) {
      const int vparent = vrank ^ mask;
      ep.recv(buf, bytes, (vparent + root) % p, kTagBcast);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    const int vchild = vrank + mask;
    if (vchild < p) ep.send(buf, bytes, (vchild + root) % p, kTagBcast);
    mask >>= 1;
  }
}

void reduce_binomial(Endpoint& ep, const double* in, double* out,
                     std::size_t n, int root) {
  const int p = ep.nranks();
  const int vrank = (ep.rank() - root + p) % p;
  const std::size_t bytes = n * sizeof(double);

  std::vector<double> acc(in, in + n);
  std::vector<double> incoming(n);
  for (int mask = 1; mask < p; mask <<= 1) {
    if (vrank & mask) {
      const int vparent = vrank & ~mask;
      ep.send(acc.data(), bytes, (vparent + root) % p, kTagReduce);
      break;
    }
    const int vchild = vrank | mask;
    if (vchild >= p) continue;
    ep.recv(incoming.data(), bytes, (vchild + root) % p, kTagReduce);
    ep.router().nic().ctx().advance(reduce_cost(ep.params(), n));
    for (std::size_t i = 0; i < n; ++i) acc[i] += incoming[i];
  }
  if (vrank == 0) std::memcpy(out, acc.data(), bytes);
}

void reduce_kary(Endpoint& ep, const double* in, double* out, std::size_t n,
                 int arity) {
  NARMA_CHECK(arity >= 2);
  const int p = ep.nranks();
  const int me = ep.rank();
  const std::size_t bytes = n * sizeof(double);

  std::vector<double> acc(in, in + n);
  std::vector<double> incoming(n);
  // Children of rank r in a k-ary tree rooted at 0: r*k+1 .. r*k+k.
  for (int c = 1; c <= arity; ++c) {
    const long child = static_cast<long>(me) * arity + c;
    if (child >= p) break;
    ep.recv(incoming.data(), bytes, static_cast<int>(child), kTagReduce);
    ep.router().nic().ctx().advance(reduce_cost(ep.params(), n));
    for (std::size_t i = 0; i < n; ++i) acc[i] += incoming[i];
  }
  if (me != 0) {
    ep.send(acc.data(), bytes, (me - 1) / arity, kTagReduce);
  } else {
    std::memcpy(out, acc.data(), bytes);
  }
}

void allreduce(Endpoint& ep, const double* in, double* out, std::size_t n) {
  reduce_binomial(ep, in, out, n, 0);
  bcast(ep, out, n * sizeof(double), 0);
}

void gather(Endpoint& ep, const void* send, std::size_t bytes, void* recv,
            int root) {
  const int p = ep.nranks();
  const int me = ep.rank();
  if (me == root) {
    auto* dst = static_cast<std::byte*>(recv);
    std::memcpy(dst + static_cast<std::size_t>(me) * bytes, send, bytes);
    // Post all receives up front so arrivals in any order match directly.
    std::vector<Request> reqs;
    for (int r = 0; r < p; ++r) {
      if (r == root) continue;
      reqs.push_back(ep.irecv(dst + static_cast<std::size_t>(r) * bytes,
                              bytes, r, kTagGather));
    }
    ep.wait_all(reqs);
  } else {
    ep.send(send, bytes, root, kTagGather);
  }
}

SharedBytes allgather(Endpoint& ep, const void* send, std::size_t bytes) {
  const std::size_t total = bytes * static_cast<std::size_t>(ep.nranks());
  std::shared_ptr<std::vector<std::byte>> table =
      ep.shared_tables().enter(ep.next_shared_seq(), total);
  // Only rank 0's gather writes new bytes. By the time the bcast moves any
  // data the table is complete, so every delivery rewrites identical bytes:
  // an eager payload is a staged copy, and a rendezvous put's source is its
  // target — an exact alias the NIC does not copy.
  gather(ep, send, bytes, table->data(), 0);
  bcast(ep, table->data(), total, 0);
  return table;
}

}  // namespace narma::mp
