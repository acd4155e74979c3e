#include <gtest/gtest.h>

#include "grid/congestion.h"
#include "grid/region_grid.h"

namespace rlcr::grid {
namespace {

RegionGridSpec spec_4x3() {
  RegionGridSpec s;
  s.cols = 4;
  s.rows = 3;
  s.region_w_um = 10.0;
  s.region_h_um = 20.0;
  s.h_capacity = 5;
  s.v_capacity = 4;
  return s;
}

TEST(RegionGrid, BasicGeometry) {
  const RegionGrid g(spec_4x3());
  EXPECT_EQ(g.region_count(), 12u);
  EXPECT_DOUBLE_EQ(g.chip_w_um(), 40.0);
  EXPECT_DOUBLE_EQ(g.chip_h_um(), 60.0);
  EXPECT_EQ(g.capacity(Dir::kHorizontal), 5);
  EXPECT_EQ(g.capacity(Dir::kVertical), 4);
  EXPECT_DOUBLE_EQ(g.span_um(Dir::kHorizontal), 10.0);
  EXPECT_DOUBLE_EQ(g.span_um(Dir::kVertical), 20.0);
}

TEST(RegionGrid, IndexRoundTrip) {
  const RegionGrid g(spec_4x3());
  for (std::int32_t y = 0; y < 3; ++y) {
    for (std::int32_t x = 0; x < 4; ++x) {
      const geom::Point p{x, y};
      EXPECT_EQ(g.at(g.index(p)), p);
    }
  }
}

TEST(RegionGrid, RegionOfMapsAndClamps) {
  const RegionGrid g(spec_4x3());
  EXPECT_EQ(g.region_of({5.0, 5.0}), (geom::Point{0, 0}));
  EXPECT_EQ(g.region_of({15.0, 25.0}), (geom::Point{1, 1}));
  EXPECT_EQ(g.region_of({39.9, 59.9}), (geom::Point{3, 2}));
  // Out-of-chip coordinates clamp to the border regions.
  EXPECT_EQ(g.region_of({-5.0, 1000.0}), (geom::Point{0, 2}));
}

TEST(RegionGrid, RejectsBadSpecs) {
  RegionGridSpec s = spec_4x3();
  s.cols = 0;
  EXPECT_THROW(RegionGrid{s}, std::invalid_argument);
  s = spec_4x3();
  s.region_w_um = 0.0;
  EXPECT_THROW(RegionGrid{s}, std::invalid_argument);
  s = spec_4x3();
  s.h_capacity = 0;
  EXPECT_THROW(RegionGrid{s}, std::invalid_argument);
}

TEST(Congestion, UtilizationDensityOverflow) {
  const RegionGrid g(spec_4x3());
  CongestionMap c(g);
  c.set_segments(0, Dir::kHorizontal, 3.0);
  c.set_shields(0, Dir::kHorizontal, 1.0);
  EXPECT_DOUBLE_EQ(c.utilization(0, Dir::kHorizontal), 4.0);
  EXPECT_DOUBLE_EQ(c.density(0, Dir::kHorizontal), 0.8);
  EXPECT_DOUBLE_EQ(c.relative_overflow(0, Dir::kHorizontal), 0.0);

  c.add_segments(0, Dir::kHorizontal, 3.5);
  EXPECT_DOUBLE_EQ(c.utilization(0, Dir::kHorizontal), 7.5);
  EXPECT_DOUBLE_EQ(c.relative_overflow(0, Dir::kHorizontal), 2.5 / 5.0);
}

TEST(Congestion, Aggregates) {
  const RegionGrid g(spec_4x3());
  CongestionMap c(g);
  c.set_segments(1, Dir::kVertical, 6.0);   // overflow 2 over cap 4
  c.set_shields(2, Dir::kHorizontal, 2.0);
  EXPECT_DOUBLE_EQ(c.max_density(), 1.5);
  EXPECT_DOUBLE_EQ(c.total_overflow(), 2.0);
  EXPECT_DOUBLE_EQ(c.total_shields(), 2.0);
  c.clear();
  EXPECT_DOUBLE_EQ(c.max_density(), 0.0);
}

TEST(RoutingArea, NoOverflowMeansChipSize) {
  const RegionGrid g(spec_4x3());
  CongestionMap c(g);
  for (std::size_t r = 0; r < g.region_count(); ++r) {
    c.set_segments(r, Dir::kHorizontal, 2.0);
    c.set_segments(r, Dir::kVertical, 2.0);
  }
  const RoutingArea a = compute_routing_area(c);
  EXPECT_DOUBLE_EQ(a.width_um, 40.0);
  EXPECT_DOUBLE_EQ(a.height_um, 60.0);
  EXPECT_DOUBLE_EQ(a.area_um2(), 2400.0);
}

TEST(RoutingArea, VerticalOverflowWidensItsRow) {
  const RegionGrid g(spec_4x3());
  CongestionMap c(g);
  // Region (1, 0) needs 8 vertical tracks with capacity 4 -> widens 2x.
  c.set_segments(g.index({1, 0}), Dir::kVertical, 8.0);
  const RoutingArea a = compute_routing_area(c);
  EXPECT_DOUBLE_EQ(a.width_um, 40.0 + 10.0);  // one region doubled
  EXPECT_DOUBLE_EQ(a.height_um, 60.0);        // horizontal unaffected
}

TEST(RoutingArea, HorizontalOverflowGrowsItsColumn) {
  const RegionGrid g(spec_4x3());
  CongestionMap c(g);
  // 7.5 horizontal tracks over capacity 5 -> region 1.5x taller.
  c.set_segments(g.index({2, 1}), Dir::kHorizontal, 7.5);
  const RoutingArea a = compute_routing_area(c);
  EXPECT_DOUBLE_EQ(a.width_um, 40.0);
  EXPECT_DOUBLE_EQ(a.height_um, 60.0 + 10.0);
}

TEST(RoutingArea, MaxRowGovernsWidth) {
  const RegionGrid g(spec_4x3());
  CongestionMap c(g);
  // Two overflows in the SAME row add up; a lone overflow in another row
  // does not change the maximum.
  c.set_segments(g.index({0, 1}), Dir::kVertical, 8.0);
  c.set_segments(g.index({3, 1}), Dir::kVertical, 6.0);
  c.set_segments(g.index({2, 2}), Dir::kVertical, 5.0);
  const RoutingArea a = compute_routing_area(c);
  // Row 1: 10*2 + 10 + 10 + 10*1.5 = 55.
  EXPECT_DOUBLE_EQ(a.width_um, 55.0);
}

TEST(RoutingArea, ShieldsCountTowardExpansion) {
  const RegionGrid g(spec_4x3());
  CongestionMap c(g);
  c.set_segments(g.index({1, 1}), Dir::kVertical, 3.0);
  c.set_shields(g.index({1, 1}), Dir::kVertical, 3.0);  // total 6 over cap 4
  const RoutingArea a = compute_routing_area(c);
  EXPECT_DOUBLE_EQ(a.width_um, 40.0 + 5.0);
}

}  // namespace
}  // namespace rlcr::grid
