// Per-World storage for collective results that are identical on every rank.
//
// An allgather leaves the same n x bytes table on every rank. All simulated
// ranks share one address space, so instead of n copies the World keeps
// one: the first rank to enter collective number `seq` creates the table,
// every later rank of the same collective gets the same object. The message
// schedule is untouched — only host storage is shared (DESIGN.md §16).
//
// No locking: ranks run one at a time under the engine's one-runnable-
// context invariant, in both execution models.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/assert.hpp"

namespace narma::mp {

class SharedTables {
 public:
  explicit SharedTables(int nranks) : nranks_(nranks) {}
  SharedTables(const SharedTables&) = delete;
  SharedTables& operator=(const SharedTables&) = delete;

  /// One rank's entry into collective `seq`: returns the collective's
  /// zero-filled `bytes`-sized table, creating it on first entry. The
  /// registry forgets the table once all ranks have entered, so it then
  /// lives exactly as long as its holders.
  std::shared_ptr<std::vector<std::byte>> enter(std::uint64_t seq,
                                                std::size_t bytes) {
    auto [it, fresh] = entries_.try_emplace(seq);
    Entry& e = it->second;
    if (fresh) {
      e.table = std::make_shared<std::vector<std::byte>>(bytes);
      e.missing = nranks_;
    }
    NARMA_CHECK(e.table->size() == bytes)
        << "shared collective #" << seq << " entered with a " << bytes
        << "-byte result, but it was opened with " << e.table->size()
        << " bytes — ranks called collectives in different orders";
    std::shared_ptr<std::vector<std::byte>> table = e.table;
    if (--e.missing == 0) entries_.erase(it);
    return table;
  }

  /// Collectives some rank has entered but not every rank has yet. Zero
  /// after every completed World::run: a rank that skips a collective
  /// leaves its peers blocked in it, which the deadlock detector reports,
  /// so sequence numbers can restart with each run's fresh endpoints.
  std::size_t open() const { return entries_.size(); }

 private:
  struct Entry {
    std::shared_ptr<std::vector<std::byte>> table;
    int missing = 0;  // ranks yet to enter
  };
  int nranks_;
  std::unordered_map<std::uint64_t, Entry> entries_;
};

}  // namespace narma::mp
