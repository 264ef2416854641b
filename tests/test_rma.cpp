// Unit tests of the one-sided layer: windows, put/get, flush semantics,
// atomics, fence, and PSCW synchronization.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "core/world.hpp"

using namespace narma;

TEST(Rma, WindowAllocateZeroInitialized) {
  World world(2);
  world.run([](Rank& self) {
    auto win = self.win_allocate(64 * sizeof(double), sizeof(double));
    for (double v : win->local<double>()) EXPECT_EQ(v, 0.0);
    EXPECT_EQ(win->bytes(), 64 * sizeof(double));
  });
}

TEST(Rma, PutFlushCommitsRemotely) {
  World world(2);
  world.run([](Rank& self) {
    auto win = self.win_allocate(8 * sizeof(double), sizeof(double));
    if (self.id() == 0) {
      std::vector<double> v{1, 2, 3};
      win->put(v.data(), 3 * sizeof(double), 1, 2);  // disp 2 doubles
      win->flush(1);
    }
    self.barrier();
    if (self.id() == 1) {
      auto mem = win->local<double>();
      EXPECT_EQ(mem[2], 1.0);
      EXPECT_EQ(mem[3], 2.0);
      EXPECT_EQ(mem[4], 3.0);
      EXPECT_EQ(mem[0], 0.0);
    }
    self.barrier();
  });
}

TEST(Rma, GetReadsRemote) {
  World world(2);
  world.run([](Rank& self) {
    auto win = self.win_allocate(4 * sizeof(double), sizeof(double));
    if (self.id() == 1) {
      auto mem = win->local<double>();
      mem[0] = 42.5;
      mem[3] = -1.5;
    }
    self.barrier();
    if (self.id() == 0) {
      double a = 0, b = 0;
      win->get(&a, sizeof(double), 1, 0);
      win->get(&b, sizeof(double), 1, 3);
      win->flush(1);
      EXPECT_EQ(a, 42.5);
      EXPECT_EQ(b, -1.5);
    }
    self.barrier();
  });
}

TEST(Rma, FlushTargetsIndependently) {
  World world(3);
  world.run([](Rank& self) {
    auto win = self.win_allocate(sizeof(double), sizeof(double));
    if (self.id() == 0) {
      double x = 1.0;
      win->put(&x, sizeof(double), 1, 0);
      win->put(&x, sizeof(double), 2, 0);
      EXPECT_FALSE(win->pending(1).all_done());
      win->flush(1);
      EXPECT_TRUE(win->pending(1).all_done());
      win->flush(2);
      EXPECT_TRUE(win->pending(2).all_done());
    }
    self.barrier();
  });
}

TEST(Rma, FenceSeparatesEpochs) {
  World world(4);
  world.run([](Rank& self) {
    auto win = self.win_allocate(sizeof(double) *
                                     static_cast<std::size_t>(self.size()),
                                 sizeof(double));
    // Everyone puts its id+1 into slot `id` of every rank, then fences.
    const double v = self.id() + 1.0;
    for (int t = 0; t < self.size(); ++t)
      win->put(&v, sizeof(double), t, static_cast<std::uint64_t>(self.id()));
    win->fence();
    auto mem = win->local<double>();
    for (int r = 0; r < self.size(); ++r)
      EXPECT_EQ(mem[static_cast<std::size_t>(r)], r + 1.0);
    win->fence();
  });
}

TEST(Rma, FetchAddSerializesAcrossRanks) {
  World world(5);
  world.run([](Rank& self) {
    auto win = self.win_allocate(sizeof(std::int64_t), sizeof(std::int64_t));
    std::int64_t old = -1;
    win->fetch_add_i64(0, 0, 1, &old);
    win->flush(0);
    EXPECT_GE(old, 0);
    EXPECT_LT(old, self.size());
    self.barrier();
    if (self.id() == 0) {
      EXPECT_EQ(win->local<std::int64_t>()[0], self.size());
    }
    self.barrier();
  });
}

TEST(Rma, FetchAddF64) {
  World world(2);
  world.run([](Rank& self) {
    auto win = self.win_allocate(sizeof(double), sizeof(double));
    if (self.id() == 1) win->local<double>()[0] = 10.0;
    self.barrier();
    if (self.id() == 0) {
      double old = 0;
      win->fetch_add_f64(1, 0, 2.5, &old);
      win->flush(1);
      EXPECT_EQ(old, 10.0);
    }
    self.barrier();
    if (self.id() == 1) {
      EXPECT_EQ(win->local<double>()[0], 12.5);
    }
    self.barrier();
  });
}

TEST(Rma, CompareSwapOnlyOneWinner) {
  World world(4);
  world.run([](Rank& self) {
    auto win = self.win_allocate(sizeof(std::int64_t), sizeof(std::int64_t));
    std::int64_t old = -1;
    // Everyone tries to claim slot 0 at rank 0 (0 -> id+1).
    win->compare_swap_i64(0, 0, 0, self.id() + 1, &old);
    win->flush(0);
    const bool won = old == 0;
    const mp::Gathered<double> wins =
        mp::allgather(self.mp(), won ? 1.0 : 0.0);
    double total = 0;
    for (std::size_t r = 0; r < wins.size(); ++r) total += wins[r];
    EXPECT_EQ(total, 1.0);  // exactly one winner
    self.barrier();
  });
}

TEST(Rma, PscwPairSynchronization) {
  World world(2);
  world.run([](Rank& self) {
    auto win = self.win_allocate(sizeof(double), sizeof(double));
    std::array<int, 1> zero{0}, one{1};
    if (self.id() == 0) {
      double v = 3.5;
      win->start(one);
      win->put(&v, sizeof(double), 1, 0);
      win->complete();
    } else {
      win->post(zero);
      win->wait();
      EXPECT_EQ(win->local<double>()[0], 3.5);
    }
  });
}

TEST(Rma, PscwMultipleOrigins) {
  World world(4);
  world.run([](Rank& self) {
    auto win = self.win_allocate(4 * sizeof(double), sizeof(double));
    if (self.id() == 0) {
      std::array<int, 3> origins{1, 2, 3};
      win->post(origins);
      win->wait();
      auto mem = win->local<double>();
      EXPECT_EQ(mem[1], 1.0);
      EXPECT_EQ(mem[2], 2.0);
      EXPECT_EQ(mem[3], 3.0);
    } else {
      std::array<int, 1> target{0};
      const double v = self.id();
      win->start(target);
      win->put(&v, sizeof(double), 0, static_cast<std::uint64_t>(self.id()));
      win->complete();
    }
  });
}

TEST(Rma, PscwRepeatedEpochs) {
  World world(2);
  world.run([](Rank& self) {
    auto win = self.win_allocate(sizeof(double), sizeof(double));
    std::array<int, 1> zero{0}, one{1};
    for (int epoch = 1; epoch <= 5; ++epoch) {
      if (self.id() == 0) {
        const double v = epoch * 1.5;
        win->start(one);
        win->put(&v, sizeof(double), 1, 0);
        win->complete();
      } else {
        win->post(zero);
        win->wait();
        EXPECT_EQ(win->local<double>()[0], epoch * 1.5);
      }
    }
  });
}

TEST(Rma, MultipleWindowsIndependent) {
  World world(2);
  world.run([](Rank& self) {
    auto w1 = self.win_allocate(sizeof(double), sizeof(double));
    auto w2 = self.win_allocate(sizeof(double), sizeof(double));
    EXPECT_NE(w1->id(), w2->id());
    if (self.id() == 0) {
      double a = 1.0, b = 2.0;
      w1->put(&a, sizeof(double), 1, 0);
      w2->put(&b, sizeof(double), 1, 0);
      w1->flush(1);
      w2->flush(1);
    }
    self.barrier();
    if (self.id() == 1) {
      EXPECT_EQ(w1->local<double>()[0], 1.0);
      EXPECT_EQ(w2->local<double>()[0], 2.0);
    }
    self.barrier();
    // Windows are destroyed collectively in reverse construction order.
    w2.reset();
    w1.reset();
  });
}

TEST(Rma, CreateOverUserMemory) {
  World world(2);
  world.run([](Rank& self) {
    std::vector<double> mem(16, static_cast<double>(self.id()));
    auto win = self.rma().create(mem.data(), mem.size() * sizeof(double),
                                 sizeof(double));
    if (self.id() == 0) {
      double v = 0;
      win->get(&v, sizeof(double), 1, 7);
      win->flush(1);
      EXPECT_EQ(v, 1.0);
    }
    self.barrier();
  });
}
