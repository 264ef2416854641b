// Unit tests of the collectives: barrier, broadcast, reductions (binomial
// and k-ary), allreduce, gather/allgather — across several rank counts —
// and the sharing of allgather results (one table per collective per World).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include "core/world.hpp"

using namespace narma;

class CollectivesP : public ::testing::TestWithParam<int> {};

TEST_P(CollectivesP, BarrierSynchronizesClocks) {
  World world(GetParam());
  world.run([](Rank& self) {
    // Rank i idles i microseconds; after the barrier everyone's clock is at
    // least the maximum arrival time.
    self.compute(us(static_cast<double>(self.id())));
    const Time slowest_arrival = us(static_cast<double>(self.size() - 1));
    self.barrier();
    EXPECT_GE(self.now(), slowest_arrival);
  });
}

TEST_P(CollectivesP, BcastFromEveryRoot) {
  World world(GetParam());
  world.run([](Rank& self) {
    for (int root = 0; root < self.size(); ++root) {
      std::vector<int> data(5, self.id() == root ? root + 1000 : -1);
      mp::bcast(self.mp(), data.data(), data.size() * 4, root);
      for (int v : data) EXPECT_EQ(v, root + 1000);
      self.barrier();
    }
  });
}

TEST_P(CollectivesP, ReduceBinomialSums) {
  World world(GetParam());
  world.run([](Rank& self) {
    const int p = self.size();
    std::vector<double> in(3, static_cast<double>(self.id() + 1));
    std::vector<double> out(3, -1);
    mp::reduce_binomial(self.mp(), in.data(), out.data(), 3, 0);
    if (self.id() == 0) {
      const double expect = p * (p + 1) / 2.0;
      for (double v : out) EXPECT_DOUBLE_EQ(v, expect);
    }
  });
}

TEST_P(CollectivesP, ReduceBinomialNonzeroRoot) {
  World world(GetParam());
  world.run([](Rank& self) {
    const int root = self.size() - 1;
    double in = static_cast<double>(self.id() + 1), out = -1;
    mp::reduce_binomial(self.mp(), &in, &out, 1, root);
    if (self.id() == root) {
      EXPECT_DOUBLE_EQ(out, self.size() * (self.size() + 1) / 2.0);
    }
  });
}

TEST_P(CollectivesP, ReduceKarySums) {
  World world(GetParam());
  world.run([](Rank& self) {
    for (int arity : {2, 3, 16}) {
      double in = static_cast<double>(self.id() + 1), out = -1;
      mp::reduce_kary(self.mp(), &in, &out, 1, arity);
      if (self.id() == 0) {
        EXPECT_DOUBLE_EQ(out, self.size() * (self.size() + 1) / 2.0)
            << "arity " << arity;
      }
      self.barrier();
    }
  });
}

TEST_P(CollectivesP, AllreduceGivesEveryoneTheSum) {
  World world(GetParam());
  world.run([](Rank& self) {
    double in = static_cast<double>(self.id()), out = -1;
    mp::allreduce(self.mp(), &in, &out, 1);
    EXPECT_DOUBLE_EQ(out, self.size() * (self.size() - 1) / 2.0);
  });
}

TEST_P(CollectivesP, GatherCollectsInRankOrder) {
  World world(GetParam());
  world.run([](Rank& self) {
    const int me = self.id();
    std::vector<int> recv(static_cast<std::size_t>(self.size()), -1);
    mp::gather(self.mp(), &me, 4, recv.data(), 0);
    if (me == 0) {
      for (int r = 0; r < self.size(); ++r)
        EXPECT_EQ(recv[static_cast<std::size_t>(r)], r);
    }
  });
}

TEST_P(CollectivesP, AllgatherEveryoneHasAll) {
  World world(GetParam());
  world.run([](Rank& self) {
    const mp::Gathered<int> all = mp::allgather(self.mp(), self.id() * 10);
    ASSERT_EQ(all.size(), static_cast<std::size_t>(self.size()));
    for (int r = 0; r < self.size(); ++r)
      EXPECT_EQ(all[static_cast<std::size_t>(r)], r * 10);
  });
}

TEST_P(CollectivesP, AllgatherRendezvousSizedTable) {
  // 1 KiB per rank puts every table from 9 ranks up above the eager
  // threshold, so the bcast forwards it with rendezvous puts whose source
  // and target are the same shared table.
  World world(GetParam());
  world.run([](Rank& self) {
    std::array<std::uint32_t, 256> mine;
    for (std::size_t i = 0; i < mine.size(); ++i)
      mine[i] = static_cast<std::uint32_t>(self.id()) * 1000u +
                static_cast<std::uint32_t>(i);
    const mp::Gathered<std::array<std::uint32_t, 256>> all =
        mp::allgather(self.mp(), mine);
    for (int r = 0; r < self.size(); ++r) {
      const auto row = all[static_cast<std::size_t>(r)];
      EXPECT_EQ(row[0], static_cast<std::uint32_t>(r) * 1000u);
      EXPECT_EQ(row[255], static_cast<std::uint32_t>(r) * 1000u + 255u);
    }
  });
}

TEST_P(CollectivesP, AllgatherEveryRankHoldsTheSameTable) {
  const int n = GetParam();
  World world(n);
  std::vector<const void*> seen(static_cast<std::size_t>(n), nullptr);
  world.run([&](Rank& self) {
    const int v = self.id();
    const mp::SharedBytes t = mp::allgather(self.mp(), &v, sizeof v);
    seen[static_cast<std::size_t>(self.id())] = t.get();
  });
  for (int r = 0; r < n; ++r)
    EXPECT_EQ(seen[static_cast<std::size_t>(r)], seen[0]) << "rank " << r;
}

TEST_P(CollectivesP, AllgatherTableDiesWithItsLastHolder) {
  const int n = GetParam();
  auto world = std::make_unique<World>(n);
  std::vector<mp::SharedBytes> held(static_cast<std::size_t>(n));
  std::weak_ptr<const std::vector<std::byte>> watch;
  world->run([&](Rank& self) {
    const int v = self.id();
    held[static_cast<std::size_t>(self.id())] =
        mp::allgather(self.mp(), &v, sizeof v);
    if (self.id() == 0) watch = held[0];
  });
  // Every rank entered, so the registry has already let go of the table.
  EXPECT_EQ(world->shared_tables().open(), 0u);
  world.reset();
  for (int r = 0; r < n; ++r) {
    EXPECT_FALSE(watch.expired()) << "released with " << n - r << " holders";
    held[static_cast<std::size_t>(r)].reset();
  }
  EXPECT_TRUE(watch.expired());
}

TEST_P(CollectivesP, BackToBackAllgathersGetDistinctTables) {
  World world(GetParam());
  world.run([](Rank& self) {
    const int mine[2] = {self.id(), -self.id()};
    const mp::SharedBytes a = mp::allgather(self.mp(), &mine[0], sizeof(int));
    const mp::SharedBytes b = mp::allgather(self.mp(), &mine[1], sizeof(int));
    EXPECT_NE(a.get(), b.get());
    const mp::Gathered<int> ga(a), gb(b);
    for (int r = 0; r < self.size(); ++r) {
      EXPECT_EQ(ga[static_cast<std::size_t>(r)], r);
      EXPECT_EQ(gb[static_cast<std::size_t>(r)], -r);
    }
  });
  EXPECT_EQ(world.shared_tables().open(), 0u);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CollectivesP,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 16, 33));
