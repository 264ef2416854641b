// Integration tests of the pipelined stencil: every communication variant
// must produce the analytic corner value across rank counts and shapes, and
// the relative performance must match the paper's ordering.
#include <gtest/gtest.h>

#include "apps/stencil.hpp"

using namespace narma;
using namespace narma::apps;

struct StencilCase {
  int ranks;
  StencilVariant variant;
};

class StencilAll : public ::testing::TestWithParam<StencilCase> {};

TEST_P(StencilAll, CornerVerifies) {
  const auto [ranks, variant] = GetParam();
  World world(ranks);
  StencilResult res;
  world.run([&](Rank& self) {
    StencilConfig cfg;
    cfg.rows = 24;
    cfg.total_cols = 31;  // deliberately not divisible by rank counts
    cfg.iters = 3;
    cfg.variant = variant;
    const auto r = run_stencil(self, cfg);
    if (self.id() == 0) res = r;
  });
  EXPECT_TRUE(res.verified) << "corner " << res.corner << " expected "
                            << res.expected_corner;
  EXPECT_DOUBLE_EQ(res.corner, 3.0 * (24 + 31 - 2));
  EXPECT_GT(res.gmops, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    VariantsAndRanks, StencilAll,
    ::testing::Values(
        StencilCase{1, StencilVariant::kMessagePassing},
        StencilCase{1, StencilVariant::kNotified},
        StencilCase{2, StencilVariant::kMessagePassing},
        StencilCase{2, StencilVariant::kFence},
        StencilCase{2, StencilVariant::kPscw},
        StencilCase{2, StencilVariant::kNotified},
        StencilCase{4, StencilVariant::kMessagePassing},
        StencilCase{4, StencilVariant::kFence},
        StencilCase{4, StencilVariant::kPscw},
        StencilCase{4, StencilVariant::kNotified},
        StencilCase{7, StencilVariant::kMessagePassing},
        StencilCase{7, StencilVariant::kNotified},
        StencilCase{8, StencilVariant::kPscw},
        StencilCase{8, StencilVariant::kNotified}),
    [](const auto& info) {
      std::string name = std::string(to_string(info.param.variant)) + "_r" +
                         std::to_string(info.param.ranks);
      std::erase_if(name, [](char c) { return !std::isalnum(c) && c != '_'; });
      return name;
    });

TEST(StencilPerf, NotifiedBeatsFenceAndMp) {
  // The paper's ordering at scale (Figs. 1 and 4b): NA fastest, fence
  // slowest — fence pays a global barrier per pipeline step, which only
  // dominates once the barrier has depth (16 ranks here). Compute is
  // charged at a calibrated 2 ns per point rather than measured on the
  // host, so the ordering is decided in virtual time alone and holds under
  // sanitizers and parallel ctest.
  auto gmops_of = [](StencilVariant v) {
    World world(16);
    double g = 0;
    world.run([&](Rank& self) {
      StencilConfig cfg;
      cfg.rows = 64;
      cfg.total_cols = 64;
      cfg.iters = 2;
      cfg.variant = v;
      cfg.per_point = ns(2);
      const auto r = run_stencil(self, cfg);
      if (self.id() == 0) g = r.gmops;
    });
    return g;
  };
  const double na = gmops_of(StencilVariant::kNotified);
  const double mp = gmops_of(StencilVariant::kMessagePassing);
  const double fence = gmops_of(StencilVariant::kFence);
  const double pscw = gmops_of(StencilVariant::kPscw);
  EXPECT_GT(na, mp);
  EXPECT_GT(mp, fence);
  EXPECT_GT(pscw, fence);  // PSCW beats fence (pairwise vs global sync)
}

TEST(StencilIntraNode, NotifiedWorksOverShm) {
  WorldParams p = WorldParams::single_node(4);
  World world(4, p);
  StencilResult res;
  world.run([&](Rank& self) {
    StencilConfig cfg;
    cfg.rows = 16;
    cfg.total_cols = 16;
    cfg.iters = 2;
    cfg.variant = StencilVariant::kNotified;
    const auto r = run_stencil(self, cfg);
    if (self.id() == 0) res = r;
  });
  EXPECT_TRUE(res.verified);
}

TEST(StencilEdge, MinimalDomain) {
  World world(2);
  StencilResult res;
  world.run([&](Rank& self) {
    StencilConfig cfg;
    cfg.rows = 2;
    cfg.total_cols = 4;
    cfg.iters = 1;
    cfg.variant = StencilVariant::kNotified;
    const auto r = run_stencil(self, cfg);
    if (self.id() == 0) res = r;
  });
  EXPECT_TRUE(res.verified);
  EXPECT_DOUBLE_EQ(res.corner, 2 + 4 - 2.0);
}

TEST(StencilSplit, ClosedFormStartMatchesPrefixSum) {
  // stencil_first_col is O(1); it must equal the running sum of the widths
  // of all lower ranks, and the split must tile [0, total_cols) exactly.
  for (int ranks : {1, 2, 3, 4, 7, 8, 16, 33, 100, 1024}) {
    for (int cols : {ranks, ranks + 1, 2 * ranks - 1, 2 * ranks,
                     2 * ranks + 5, 3 * ranks + ranks / 2, 1000, 65536}) {
      if (cols < ranks) continue;
      int start = 0;
      for (int p = 0; p < ranks; ++p) {
        ASSERT_EQ(stencil_first_col(cols, ranks, p), start)
            << cols << " cols, " << ranks << " ranks, rank " << p;
        start += stencil_cols_of(cols, ranks, p);
      }
      EXPECT_EQ(start, cols) << cols << " cols, " << ranks << " ranks";
    }
  }
}
