#include <gtest/gtest.h>

#include <vector>

#include "grid/region_grid.h"
#include "router/id_router.h"
#include "router/route_types.h"
#include "rsmt/steiner.h"
#include "sino/nss.h"
#include "steiner/tree_builder.h"
#include "steiner/tree_cache.h"
#include "util/rng.h"

namespace rlcr::steiner {
namespace {

using geom::Point;
using rsmt::Tree;

std::vector<Point> random_pins(util::Xoshiro256& rng, std::size_t n,
                               std::int32_t spread) {
  std::vector<Point> pins;
  pins.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pins.push_back(
        Point{static_cast<std::int32_t>(
                  rng.below(static_cast<std::uint64_t>(spread))),
              static_cast<std::int32_t>(
                  rng.below(static_cast<std::uint64_t>(spread)))});
  }
  return pins;
}

/// The tree spans every pin: pins sit at nodes[0..pin_count) in input
/// order, the edge set is a spanning tree of the node set.
void expect_spans(const Tree& t, const std::vector<Point>& pins) {
  ASSERT_EQ(t.pin_count, pins.size());
  ASSERT_GE(t.nodes.size(), pins.size());
  for (std::size_t i = 0; i < pins.size(); ++i) {
    EXPECT_EQ(t.nodes[i], pins[i]) << "pin " << i << " moved";
  }
  if (pins.size() >= 2) {
    EXPECT_TRUE(t.is_tree());
  }
}

bool same_tree(const Tree& a, const Tree& b) {
  return a.pin_count == b.pin_count && a.nodes == b.nodes && a.edges == b.edges;
}

// The builder is bit-identical to a direct rsmt::rsmt() call (node list,
// edge list, pin count), with and without the cache. This is the contract
// every route-hash golden rests on.
TEST(TreeBuilderFast, BitIdenticalToRsmt) {
  util::Xoshiro256 rng(101);
  TreeCache cache;
  const TreeBuilder direct;
  const TreeBuilder cached({}, &cache);
  for (int iter = 0; iter < 60; ++iter) {
    const auto pins = random_pins(rng, 2 + rng.below(24), 30);
    const Tree want = rsmt::rsmt(pins);
    EXPECT_TRUE(same_tree(*direct.build(pins), want));
    EXPECT_TRUE(same_tree(*cached.build(pins), want));
  }
}

// Degenerate pin sets the builder must survive: empty, singleton, two-pin,
// duplicated pins, and collinear runs.
TEST(TreeBuilderDegenerate, EmptyAndSingleton) {
  const TreeBuilder builder;
  const auto empty = builder.build(std::vector<Point>{});
  EXPECT_TRUE(empty->edges.empty());
  const auto one = builder.build(std::vector<Point>{{7, 3}});
  EXPECT_EQ(one->length(), 0);
  EXPECT_TRUE(one->edges.empty());
}

TEST(TreeBuilderDegenerate, TwoPins) {
  const std::vector<Point> pins{{1, 2}, {4, 6}};
  const auto t = TreeBuilder().build(pins);
  expect_spans(*t, pins);
  EXPECT_EQ(t->length(), 7);
}

TEST(TreeBuilderDegenerate, DuplicatePinsAreFree) {
  const std::vector<Point> pins{{2, 2}, {2, 2}, {5, 2}, {2, 2}};
  const auto t = TreeBuilder().build(pins);
  expect_spans(*t, pins);
  EXPECT_EQ(t->length(), 3);
}

TEST(TreeBuilderDegenerate, CollinearPinsUseTheLine) {
  const std::vector<Point> pins{{0, 4}, {9, 4}, {3, 4}, {6, 4}};
  const auto t = TreeBuilder().build(pins);
  expect_spans(*t, pins);
  EXPECT_EQ(t->length(), 9);
}

// Translation equivariance: build(pins + t) == build(pins) + t, node for
// node and edge for edge. This is the soundness contract the cache's
// translate-to-origin keying depends on (see tree_cache.h).
TEST(TreeBuilderQuality, TranslationEquivariance) {
  util::Xoshiro256 rng(13);
  const TreeBuilder builder;
  for (int iter = 0; iter < 40; ++iter) {
    const auto pins = random_pins(rng, 3 + rng.below(20), 20);
    const std::int32_t dx = static_cast<std::int32_t>(rng.below(100)) - 50;
    const std::int32_t dy = static_cast<std::int32_t>(rng.below(100)) - 50;
    std::vector<Point> moved = pins;
    for (Point& q : moved) {
      q.x += dx;
      q.y += dy;
    }
    Tree base = *builder.build(pins);
    const Tree shifted = *builder.build(moved);
    for (Point& q : base.nodes) {
      q.x += dx;
      q.y += dy;
    }
    EXPECT_TRUE(same_tree(base, shifted)) << "iter " << iter;
  }
}

// The cache is transparent: cached results equal direct builds (after the
// translate-back), and repeated/translated queries hit.
TEST(TreeCacheBehavior, TransparentAndCountsHits) {
  util::Xoshiro256 rng(29);
  TreeCache cache;
  const TreeBuilder cached({}, &cache);
  const TreeBuilder direct;
  for (int iter = 0; iter < 45; ++iter) {
    const auto pins = random_pins(rng, 3 + rng.below(7), 16);
    EXPECT_TRUE(same_tree(*cached.build(pins), *direct.build(pins)))
        << "iter " << iter;
  }
  const TreeCache::Stats cold = cache.stats();
  EXPECT_EQ(cold.hits, 0u);
  EXPECT_EQ(cold.misses, cold.entries);

  // Identical and translated re-queries are hits that rebuild nothing.
  const std::vector<Point> pins{{3, 1}, {9, 5}, {5, 8}};
  std::vector<Point> far = pins;
  for (Point& q : far) {
    q.x += 1000;
    q.y += 2000;
  }
  const auto a = cached.build(pins);
  const TreeCache::Stats after_miss = cache.stats();
  const auto b = cached.build(pins);
  auto c = std::make_shared<Tree>(*cached.build(far));
  EXPECT_EQ(cache.stats().hits, after_miss.hits + 2u);
  EXPECT_TRUE(same_tree(*a, *b));
  for (Point& q : c->nodes) {
    q.x -= 1000;
    q.y -= 2000;
  }
  EXPECT_TRUE(same_tree(*a, *c));
}

// Both SteinerOptions fields change the tree, so each is part of the key:
// builders that differ in either never share a cache entry.
TEST(TreeCacheBehavior, DistinguishesProfilesAndOptions) {
  TreeCache cache;
  const std::vector<Point> pins{{0, 0}, {6, 0}, {3, 5}, {1, 4}};
  rsmt::SteinerOptions few_pins;
  few_pins.max_pins_exact = 2;
  rsmt::SteinerOptions few_points;
  few_points.max_steiner_points = 1;
  (void)TreeBuilder({}, &cache).build(pins);
  (void)TreeBuilder(few_pins, &cache).build(pins);
  (void)TreeBuilder(few_points, &cache).build(pins);
  const TreeCache::Stats s = cache.stats();
  EXPECT_EQ(s.entries, 3u);
  EXPECT_EQ(s.hits, 0u);
  // The RMST fallback is what the tighter pin cap buys: a cache aliasing
  // the two builders would hand back the 1-Steiner tree instead.
  ASSERT_FALSE(same_tree(rsmt::rsmt(pins), rsmt::rsmt(pins, few_pins)));
  EXPECT_TRUE(same_tree(*TreeBuilder(few_pins, &cache).build(pins),
                        rsmt::rsmt(pins, few_pins)));
}

// ------------------------------------------------ router-level wiring

grid::RegionGrid make_grid(std::int32_t cols = 12, std::int32_t rows = 12) {
  grid::RegionGridSpec s;
  s.cols = cols;
  s.rows = rows;
  s.region_w_um = 20.0;
  s.region_h_um = 25.0;
  s.h_capacity = 8;
  s.v_capacity = 8;
  return grid::RegionGrid(s);
}

// rsmt_fallback_nets counts exactly the nets whose pin count exceeds
// max_pins_exact (the 1-Steiner -> RMST fallback inside rsmt::rsmt),
// independent of thread count.
TEST(SteinerRouting, FallbackCounterPinsExceedingExactCap) {
  const grid::RegionGrid g = make_grid(24, 24);
  const sino::NssModel nss;
  std::vector<router::RouterNet> nets(3);
  const rsmt::SteinerOptions defaults;
  for (std::size_t i = 0; i < nets.size(); ++i) {
    nets[i].id = static_cast<std::int32_t>(i);
    nets[i].si = 0.3;
  }
  // Net 0: one pin over the exact cap. Nets 1, 2: comfortably under.
  for (std::size_t p = 0; p <= defaults.max_pins_exact; ++p) {
    nets[0].pins.push_back(Point{static_cast<std::int32_t>(p),
                                 static_cast<std::int32_t>((p * 5) % 24)});
  }
  nets[1].pins = {{0, 0}, {5, 5}};
  nets[2].pins = {{10, 1}, {12, 8}, {15, 3}};

  for (const int threads : {1, 4}) {
    router::IdRouterOptions opt;
    opt.threads = threads;
    const router::RoutingResult res =
        router::IdRouter(g, nss, opt).route(nets);
    EXPECT_EQ(res.stats.rsmt_fallback_nets, 1u) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace rlcr::steiner
