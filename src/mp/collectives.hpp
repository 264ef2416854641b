// Collective operations layered on the two-sided endpoint.
//
// These fill two roles: the library's own infrastructure (window creation
// allgathers memory keys, fence needs a barrier) and the paper's baselines —
// `reduce_binomial` models the "vendor optimized MPI_Reduce" the tree
// benchmark compares against (Fig. 4c), and `reduce_kary` is the same
// topology as the k-ary tree application so the two differ only in the
// synchronization mechanism.
//
// All collectives use reserved tags (>= mp::kMaxUserTag) and assume no
// wildcard user receive is outstanding across a collective call.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "mp/endpoint.hpp"

namespace narma::mp {

/// Dissemination barrier: ceil(log2 p) rounds of pairwise messages.
void barrier(Endpoint& ep);

/// Binomial-tree broadcast of `bytes` from `root`.
void bcast(Endpoint& ep, void* buf, std::size_t bytes, int root);

/// Binomial-tree sum-reduction of `n` doubles to `root`. Models the tuned
/// vendor reduction. in/out may alias only at the root.
void reduce_binomial(Endpoint& ep, const double* in, double* out,
                     std::size_t n, int root);

/// k-ary-tree sum-reduction of `n` doubles to rank 0 — the message-passing
/// variant of the paper's 16-ary tree computation (Sec. VI-B).
void reduce_kary(Endpoint& ep, const double* in, double* out, std::size_t n,
                 int arity);

/// reduce_binomial to rank 0 followed by bcast.
void allreduce(Endpoint& ep, const double* in, double* out, std::size_t n);

/// Root gathers `bytes` from every rank into recv (nranks * bytes).
void gather(Endpoint& ep, const void* send, std::size_t bytes, void* recv,
            int root);

/// An allgather result: every rank's contribution in rank order.
using SharedBytes = std::shared_ptr<const std::vector<std::byte>>;

/// Every rank ends up with all contributions (gather to rank 0 + bcast). The
/// result is identical on every rank, so all ranks of the World receive the
/// same table object (mp/shared_tables.hpp): rank 0's gather writes into it
/// and the bcast's receive and forwarding buffers are that same table. The
/// messages, their sizes and their charged costs are those of a per-rank
/// buffer, so virtual time does not depend on the sharing.
SharedBytes allgather(Endpoint& ep, const void* send, std::size_t bytes);

/// Typed read-only view of an allgather result: element i of a table of
/// trivially copyable T (rank i's contribution when each rank sent one T).
template <class T>
class Gathered {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  Gathered() = default;
  explicit Gathered(SharedBytes table) : table_(std::move(table)) {
    NARMA_CHECK(table_->size() % sizeof(T) == 0)
        << "a " << table_->size() << "-byte table is not an array of "
        << sizeof(T) << "-byte elements";
  }

  std::size_t size() const { return table_ ? table_->size() / sizeof(T) : 0; }
  T operator[](std::size_t i) const {
    T v;
    std::memcpy(&v, table_->data() + i * sizeof(T), sizeof(T));
    return v;
  }

 private:
  SharedBytes table_;
};

/// allgather of one T per rank.
template <class T>
Gathered<T> allgather(Endpoint& ep, const T& mine) {
  return Gathered<T>(allgather(ep, &mine, sizeof(T)));
}

}  // namespace narma::mp
