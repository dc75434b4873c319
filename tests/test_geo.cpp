// Unit and property tests for the geo substrate: points, segments, oriented
// rectangles (conduit geometry), polygons, projection, spatial grid, RNG,
// and the statistics helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>

#include "geo/geometry.hpp"
#include "geo/projection.hpp"
#include "geo/rng.hpp"
#include "geo/spatial_grid.hpp"
#include "geo/stats.hpp"

namespace geo = citymesh::geo;

// ---------------------------------------------------------------- Point ---

TEST(Point, Arithmetic) {
  const geo::Point a{1.0, 2.0};
  const geo::Point b{3.0, -1.0};
  EXPECT_EQ((a + b), (geo::Point{4.0, 1.0}));
  EXPECT_EQ((a - b), (geo::Point{-2.0, 3.0}));
  EXPECT_EQ((a * 2.0), (geo::Point{2.0, 4.0}));
  EXPECT_EQ((2.0 * a), (geo::Point{2.0, 4.0}));
  EXPECT_EQ((a / 2.0), (geo::Point{0.5, 1.0}));
}

TEST(Point, DotAndCross) {
  EXPECT_DOUBLE_EQ(geo::dot({1, 0}, {0, 1}), 0.0);
  EXPECT_DOUBLE_EQ(geo::dot({2, 3}, {4, 5}), 23.0);
  EXPECT_GT(geo::cross({1, 0}, {0, 1}), 0.0);  // CCW positive
  EXPECT_LT(geo::cross({0, 1}, {1, 0}), 0.0);
}

TEST(Point, DistanceAndNorm) {
  EXPECT_DOUBLE_EQ(geo::distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(geo::distance2({0, 0}, {3, 4}), 25.0);
  EXPECT_DOUBLE_EQ(geo::norm({3, 4}), 5.0);
}

TEST(Point, NormalizedHandlesZero) {
  EXPECT_EQ(geo::normalized({0, 0}), (geo::Point{0, 0}));
  const geo::Point u = geo::normalized({10, 0});
  EXPECT_DOUBLE_EQ(u.x, 1.0);
  EXPECT_DOUBLE_EQ(u.y, 0.0);
}

TEST(Point, PerpIsCcwRotation) {
  const geo::Point p = geo::perp({1, 0});
  EXPECT_DOUBLE_EQ(p.x, 0.0);
  EXPECT_DOUBLE_EQ(p.y, 1.0);
}

TEST(Point, Lerp) {
  EXPECT_EQ(geo::lerp({0, 0}, {10, 20}, 0.0), (geo::Point{0, 0}));
  EXPECT_EQ(geo::lerp({0, 0}, {10, 20}, 1.0), (geo::Point{10, 20}));
  EXPECT_EQ(geo::lerp({0, 0}, {10, 20}, 0.5), (geo::Point{5, 10}));
}

// -------------------------------------------------------------- Segment ---

TEST(Segment, PointDistance) {
  const geo::Segment s{{0, 0}, {10, 0}};
  EXPECT_DOUBLE_EQ(geo::point_segment_distance({5, 3}, s), 3.0);
  EXPECT_DOUBLE_EQ(geo::point_segment_distance({-3, 4}, s), 5.0);  // beyond endpoint
  EXPECT_DOUBLE_EQ(geo::point_segment_distance({13, 4}, s), 5.0);
  EXPECT_DOUBLE_EQ(geo::point_segment_distance({5, 0}, s), 0.0);   // on segment
}

TEST(Segment, DegenerateSegmentIsPoint) {
  const geo::Segment s{{2, 2}, {2, 2}};
  EXPECT_DOUBLE_EQ(geo::point_segment_distance({5, 6}, s), 5.0);
}

TEST(Segment, IntersectionCrossing) {
  EXPECT_TRUE(geo::segments_intersect({{0, 0}, {10, 10}}, {{0, 10}, {10, 0}}));
  EXPECT_FALSE(geo::segments_intersect({{0, 0}, {1, 1}}, {{5, 5}, {6, 4}}));
}

TEST(Segment, IntersectionTouchingEndpoint) {
  EXPECT_TRUE(geo::segments_intersect({{0, 0}, {5, 5}}, {{5, 5}, {10, 0}}));
}

TEST(Segment, CollinearOverlap) {
  EXPECT_TRUE(geo::segments_intersect({{0, 0}, {10, 0}}, {{5, 0}, {15, 0}}));
  EXPECT_FALSE(geo::segments_intersect({{0, 0}, {4, 0}}, {{5, 0}, {9, 0}}));
}

// ----------------------------------------------------------------- Rect ---

TEST(Rect, ContainsAndIntersects) {
  const geo::Rect r{{0, 0}, {10, 5}};
  EXPECT_TRUE(r.contains({5, 2}));
  EXPECT_TRUE(r.contains({0, 0}));    // boundary included
  EXPECT_TRUE(r.contains({10, 5}));
  EXPECT_FALSE(r.contains({10.01, 5}));
  EXPECT_TRUE(r.intersects({{9, 4}, {20, 20}}));
  EXPECT_FALSE(r.intersects({{11, 0}, {20, 5}}));
}

TEST(Rect, GeometryAccessors) {
  const geo::Rect r{{1, 2}, {4, 6}};
  EXPECT_DOUBLE_EQ(r.width(), 3.0);
  EXPECT_DOUBLE_EQ(r.height(), 4.0);
  EXPECT_DOUBLE_EQ(r.area(), 12.0);
  EXPECT_EQ(r.center(), (geo::Point{2.5, 4.0}));
}

TEST(Rect, Expanded) {
  const geo::Rect r = geo::Rect{{0, 0}, {2, 2}}.expanded(1.0);
  EXPECT_EQ(r.min, (geo::Point{-1, -1}));
  EXPECT_EQ(r.max, (geo::Point{3, 3}));
}

TEST(Rect, BoundingOfPoints) {
  const std::vector<geo::Point> pts{{1, 5}, {-2, 3}, {4, -1}};
  const auto r = geo::Rect::bounding(pts);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->min, (geo::Point{-2, -1}));
  EXPECT_EQ(r->max, (geo::Point{4, 5}));
  EXPECT_FALSE(geo::Rect::bounding({}).has_value());
}

// --------------------------------------------------------- OrientedRect ---

TEST(OrientedRect, AxisAlignedContainment) {
  const geo::OrientedRect r{{0, 0}, {100, 0}, 20.0};
  EXPECT_TRUE(r.contains({50, 0}));
  EXPECT_TRUE(r.contains({50, 10}));    // on the half-width boundary
  EXPECT_TRUE(r.contains({50, -10}));
  EXPECT_FALSE(r.contains({50, 10.01}));
  EXPECT_FALSE(r.contains({-0.01, 0}));  // before the start edge
  EXPECT_FALSE(r.contains({100.01, 0}));
  EXPECT_TRUE(r.contains({0, 0}));       // start edge inclusive
  EXPECT_TRUE(r.contains({100, 0}));
}

TEST(OrientedRect, DiagonalContainment) {
  const geo::OrientedRect r{{0, 0}, {100, 100}, 20.0};
  EXPECT_TRUE(r.contains({50, 50}));
  // 10/sqrt(2) ~ 7.07 perpendicular offset: inside half width 10.
  EXPECT_TRUE(r.contains({50 - 7.0, 50 + 7.0}));
  EXPECT_FALSE(r.contains({50 - 8.0, 50 + 8.0}));
}

TEST(OrientedRect, RejectsNegativeWidth) {
  EXPECT_THROW((geo::OrientedRect{{0, 0}, {1, 0}, -1.0}), std::invalid_argument);
}

TEST(OrientedRect, CornersAreConsistentWithBounds) {
  const geo::OrientedRect r{{0, 0}, {30, 40}, 10.0};
  const auto corners = r.corners();
  ASSERT_EQ(corners.size(), 4u);
  const geo::Rect b = r.bounds();
  for (const auto c : corners) {
    EXPECT_TRUE(b.contains(c));
  }
  EXPECT_DOUBLE_EQ(r.length(), 50.0);
}

TEST(OrientedRect, CenterlineDistance) {
  const geo::OrientedRect r{{0, 0}, {10, 0}, 4.0};
  EXPECT_DOUBLE_EQ(r.centerline_distance({5, 3}), 3.0);
}

// Property sweep: every point sampled inside the rect by construction is
// reported as contained, and points displaced beyond the half-width are not.
class OrientedRectProperty : public ::testing::TestWithParam<int> {};

TEST_P(OrientedRectProperty, ContainmentMatchesConstruction) {
  geo::Rng rng{static_cast<std::uint64_t>(GetParam())};
  const geo::Point from{rng.uniform(-100, 100), rng.uniform(-100, 100)};
  const geo::Point to{rng.uniform(-100, 100), rng.uniform(-100, 100)};
  if (geo::distance(from, to) < 1.0) return;
  const double width = rng.uniform(2.0, 40.0);
  const geo::OrientedRect rect{from, to, width};

  const geo::Point axis = geo::normalized(to - from);
  const geo::Point n = geo::perp(axis);
  for (int i = 0; i < 50; ++i) {
    const double along = rng.uniform(0.0, rect.length());
    const double across = rng.uniform(-width / 2 * 0.999, width / 2 * 0.999);
    const geo::Point inside = from + axis * along + n * across;
    EXPECT_TRUE(rect.contains(inside));
    const geo::Point outside = from + axis * along + n * (width / 2 * 1.01 + 0.01);
    EXPECT_FALSE(rect.contains(outside));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomRects, OrientedRectProperty, ::testing::Range(0, 20));

// -------------------------------------------------------------- Polygon ---

TEST(Polygon, AreaAndCentroidOfSquare) {
  const auto p = geo::Polygon::rectangle({{0, 0}, {10, 10}});
  EXPECT_DOUBLE_EQ(p.area(), 100.0);
  EXPECT_NEAR(p.centroid().x, 5.0, 1e-12);
  EXPECT_NEAR(p.centroid().y, 5.0, 1e-12);
  EXPECT_GT(p.signed_area(), 0.0);  // rectangle() builds CCW
}

TEST(Polygon, ClockwiseWindingNegativeSignedArea) {
  const geo::Polygon p{{{0, 0}, {0, 10}, {10, 10}, {10, 0}}};
  EXPECT_LT(p.signed_area(), 0.0);
  EXPECT_DOUBLE_EQ(p.area(), 100.0);
}

TEST(Polygon, DropsClosingVertex) {
  const geo::Polygon p{{{0, 0}, {10, 0}, {10, 10}, {0, 0}}};
  EXPECT_EQ(p.size(), 3u);
}

TEST(Polygon, ContainsConvex) {
  const auto p = geo::Polygon::rectangle({{0, 0}, {10, 10}});
  EXPECT_TRUE(p.contains({5, 5}));
  EXPECT_FALSE(p.contains({-1, 5}));
  EXPECT_FALSE(p.contains({5, 11}));
}

TEST(Polygon, ContainsConcave) {
  // L-shape: the notch must test outside.
  const geo::Polygon l{{{0, 0}, {10, 0}, {10, 4}, {4, 4}, {4, 10}, {0, 10}}};
  EXPECT_TRUE(l.contains({2, 2}));
  EXPECT_TRUE(l.contains({8, 2}));
  EXPECT_TRUE(l.contains({2, 8}));
  EXPECT_FALSE(l.contains({8, 8}));  // inside the notch
}

TEST(Polygon, EmptyAndDegenerate) {
  const geo::Polygon empty{};
  EXPECT_TRUE(empty.empty());
  EXPECT_FALSE(empty.contains({0, 0}));
  EXPECT_DOUBLE_EQ(empty.area(), 0.0);
  EXPECT_FALSE(empty.bounds().has_value());

  const geo::Polygon line{{{0, 0}, {5, 0}, {10, 0}}};  // zero area
  EXPECT_DOUBLE_EQ(line.area(), 0.0);
  // Centroid falls back to the vertex mean.
  EXPECT_NEAR(line.centroid().x, 5.0, 1e-12);
}

TEST(Polygon, CentroidOfTriangle) {
  const geo::Polygon t{{{0, 0}, {6, 0}, {0, 6}}};
  EXPECT_NEAR(t.centroid().x, 2.0, 1e-12);
  EXPECT_NEAR(t.centroid().y, 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(t.area(), 18.0);
}

// Property: contains() of a convex polygon agrees with the centroid ray.
class PolygonProperty : public ::testing::TestWithParam<int> {};

TEST_P(PolygonProperty, InteriorMixtureOfVerticesIsInside) {
  geo::Rng rng{static_cast<std::uint64_t>(GetParam()) * 17 + 1};
  // Random convex polygon via hull of random points.
  std::vector<geo::Point> pts;
  for (int i = 0; i < 12; ++i) {
    pts.push_back({rng.uniform(-50, 50), rng.uniform(-50, 50)});
  }
  const auto hull = geo::convex_hull(pts);
  if (hull.size() < 3) return;
  const geo::Polygon poly{hull};
  // Any strict convex combination of the vertices lies inside.
  for (int trial = 0; trial < 30; ++trial) {
    double wsum = 0.0;
    geo::Point combo{};
    for (const auto v : hull) {
      const double w = rng.uniform(0.05, 1.0);
      combo += v * w;
      wsum += w;
    }
    combo = combo / wsum;
    EXPECT_TRUE(poly.contains(combo));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomPolygons, PolygonProperty, ::testing::Range(0, 15));

// ---------------------------------------------------------- Convex hull ---

TEST(ConvexHull, Square) {
  const auto hull =
      geo::convex_hull({{0, 0}, {10, 0}, {10, 10}, {0, 10}, {5, 5}, {2, 3}});
  EXPECT_EQ(hull.size(), 4u);
}

TEST(ConvexHull, CollinearPointsCollapse) {
  const auto hull = geo::convex_hull({{0, 0}, {5, 0}, {10, 0}});
  EXPECT_EQ(hull.size(), 2u);
}

TEST(ConvexHull, SmallInputs) {
  EXPECT_TRUE(geo::convex_hull({}).empty());
  EXPECT_EQ(geo::convex_hull({{1, 1}}).size(), 1u);
  EXPECT_EQ(geo::convex_hull({{1, 1}, {1, 1}}).size(), 1u);  // duplicates removed
}

TEST(MaxPairwiseDistance, MatchesBruteForce) {
  geo::Rng rng{99};
  std::vector<geo::Point> pts;
  for (int i = 0; i < 60; ++i) pts.push_back({rng.uniform(0, 100), rng.uniform(0, 100)});
  double brute = 0.0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = i + 1; j < pts.size(); ++j) {
      brute = std::max(brute, geo::distance(pts[i], pts[j]));
    }
  }
  EXPECT_NEAR(geo::max_pairwise_distance(pts), brute, 1e-9);
}

TEST(MaxPairwiseDistance, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(geo::max_pairwise_distance({}), 0.0);
  EXPECT_DOUBLE_EQ(geo::max_pairwise_distance({{3, 3}}), 0.0);
  EXPECT_DOUBLE_EQ(geo::max_pairwise_distance({{0, 0}, {3, 4}}), 5.0);
}

// ----------------------------------------------------------- Projection ---

TEST(Projection, RoundTrip) {
  const geo::Projection proj{{42.36, -71.09}};  // Boston-ish
  const geo::LatLon ll{42.37, -71.10};
  const geo::Point p = proj.to_local(ll);
  const geo::LatLon back = proj.to_latlon(p);
  EXPECT_NEAR(back.lat, ll.lat, 1e-9);
  EXPECT_NEAR(back.lon, ll.lon, 1e-9);
}

TEST(Projection, OriginMapsToZero) {
  const geo::Projection proj{{42.36, -71.09}};
  const geo::Point p = proj.to_local({42.36, -71.09});
  EXPECT_NEAR(p.x, 0.0, 1e-9);
  EXPECT_NEAR(p.y, 0.0, 1e-9);
}

TEST(Projection, OneDegreeLatitudeIsAbout111Km) {
  const geo::Projection proj{{42.0, -71.0}};
  const geo::Point p = proj.to_local({43.0, -71.0});
  EXPECT_NEAR(p.y, 111'195.0, 200.0);  // R * 1 degree in radians
  EXPECT_NEAR(p.x, 0.0, 1e-6);
}

TEST(Projection, LongitudeScalesByCosLat) {
  const geo::Projection proj{{60.0, 0.0}};  // cos(60 deg) = 0.5
  const geo::Point p = proj.to_local({60.0, 1.0});
  EXPECT_NEAR(p.x, 111'195.0 * 0.5, 200.0);
}

// ---------------------------------------------------------- SpatialGrid ---

TEST(SpatialGrid, RejectsBadCellSize) {
  EXPECT_THROW(geo::SpatialGrid{0.0}, std::invalid_argument);
  EXPECT_THROW(geo::SpatialGrid{-5.0}, std::invalid_argument);
}

TEST(SpatialGrid, RadiusQueryMatchesBruteForce) {
  geo::Rng rng{7};
  std::vector<geo::Point> pts;
  for (int i = 0; i < 500; ++i) pts.push_back({rng.uniform(0, 1000), rng.uniform(0, 1000)});
  const geo::SpatialGrid grid{50.0, pts};
  EXPECT_EQ(grid.size(), 500u);

  for (int trial = 0; trial < 20; ++trial) {
    const geo::Point center{rng.uniform(0, 1000), rng.uniform(0, 1000)};
    const double radius = rng.uniform(10.0, 200.0);
    auto got = grid.query_radius(center, radius);
    std::sort(got.begin(), got.end());
    std::vector<std::uint32_t> expected;
    for (std::uint32_t i = 0; i < pts.size(); ++i) {
      if (geo::distance(pts[i], center) <= radius) expected.push_back(i);
    }
    EXPECT_EQ(got, expected);
  }
}

TEST(SpatialGrid, RectQueryMatchesBruteForce) {
  geo::Rng rng{8};
  std::vector<geo::Point> pts;
  for (int i = 0; i < 300; ++i) pts.push_back({rng.uniform(0, 500), rng.uniform(0, 500)});
  const geo::SpatialGrid grid{30.0, pts};
  for (int trial = 0; trial < 20; ++trial) {
    const geo::Point a{rng.uniform(0, 500), rng.uniform(0, 500)};
    const geo::Rect r{{a.x, a.y}, {a.x + rng.uniform(10, 200), a.y + rng.uniform(10, 200)}};
    auto got = grid.query_rect(r);
    std::sort(got.begin(), got.end());
    std::vector<std::uint32_t> expected;
    for (std::uint32_t i = 0; i < pts.size(); ++i) {
      if (r.contains(pts[i])) expected.push_back(i);
    }
    EXPECT_EQ(got, expected);
  }
}

TEST(SpatialGrid, NegativeCoordinatesWork) {
  geo::SpatialGrid grid{10.0};
  grid.insert(0, {-95.0, -95.0});
  grid.insert(1, {-105.0, -95.0});
  const auto hits = grid.query_radius({-100.0, -95.0}, 6.0);
  EXPECT_EQ(hits.size(), 2u);
}

TEST(SpatialGrid, EmptyRadiusAndPosition) {
  geo::SpatialGrid grid{10.0};
  grid.insert(3, {1.0, 2.0});
  EXPECT_EQ(grid.position(3), (geo::Point{1.0, 2.0}));
  EXPECT_TRUE(grid.query_radius({1.0, 2.0}, -1.0).empty());
}

namespace {

/// Brute-force reference for the grid's visit order: every item passing
/// `keep`, sorted by (row, column, insertion order) of its cell.
template <class Keep>
std::vector<std::uint32_t> reference_order(double cell, const std::vector<std::uint32_t>& ids,
                                           const std::vector<geo::Point>& pts, Keep keep) {
  struct Hit {
    std::int64_t row, col;
    std::size_t order;
    std::uint32_t id;
  };
  std::vector<Hit> hits;
  for (std::size_t k = 0; k < ids.size(); ++k) {
    if (!keep(pts[k])) continue;
    hits.push_back({static_cast<std::int64_t>(std::floor(pts[k].y / cell)),
                    static_cast<std::int64_t>(std::floor(pts[k].x / cell)), k, ids[k]});
  }
  std::sort(hits.begin(), hits.end(), [](const Hit& a, const Hit& b) {
    if (a.row != b.row) return a.row < b.row;
    if (a.col != b.col) return a.col < b.col;
    return a.order < b.order;
  });
  std::vector<std::uint32_t> out;
  for (const Hit& h : hits) out.push_back(h.id);
  return out;
}

}  // namespace

// Visit order is load-bearing (place_aps draws link_rng per candidate), so
// both query kinds must yield (row, column, insertion) order exactly — with
// negative coordinates, sparse shuffled ids, and clustered points sharing
// cells.
TEST(SpatialGrid, VisitOrderMatchesRowColumnInsertionReference) {
  geo::Rng rng{21};
  std::vector<std::uint32_t> ids;
  std::vector<geo::Point> pts;
  for (std::uint32_t i = 0; i < 600; ++i) {
    ids.push_back(i * 7 + 3);  // sparse
    // Half spread over [-400, 400)^2, half clustered into a few cells.
    pts.push_back(i % 2 == 0 ? geo::Point{rng.uniform(-400, 400), rng.uniform(-400, 400)}
                             : geo::Point{rng.uniform(-30, 10), rng.uniform(-10, 30)});
  }
  for (std::size_t k = ids.size(); k > 1; --k) std::swap(ids[k - 1], ids[rng.uniform_int(k)]);
  const double cell = 25.0;
  const geo::SpatialGrid grid{cell, ids, pts};
  EXPECT_EQ(grid.size(), ids.size());
  for (std::size_t k = 0; k < ids.size(); ++k) EXPECT_EQ(grid.position(ids[k]), pts[k]);

  for (int trial = 0; trial < 40; ++trial) {
    const geo::Point c{rng.uniform(-450, 450), rng.uniform(-450, 450)};
    const double radius = rng.uniform(0.0, 150.0);
    std::vector<std::uint32_t> got;
    std::vector<geo::Point> got_pts;
    grid.for_each_in_radius(c, radius, [&](std::uint32_t id, geo::Point p) {
      got.push_back(id);
      got_pts.push_back(p);
    });
    EXPECT_EQ(got, reference_order(cell, ids, pts, [&](geo::Point p) {
                return geo::distance2(p, c) <= radius * radius;
              }));
    for (std::size_t k = 0; k < got.size(); ++k) EXPECT_EQ(got_pts[k], grid.position(got[k]));

    const geo::Rect r{{c.x, c.y}, {c.x + rng.uniform(0, 300), c.y + rng.uniform(0, 300)}};
    EXPECT_EQ(grid.query_rect(r),
              reference_order(cell, ids, pts, [&](geo::Point p) { return r.contains(p); }));
  }
}

// for_each_pair must visit exactly the pairs a brute-force double loop over
// grid_order() finds, in its (i, then j) order, with a per-item reach, and
// give no pairs to an item whose reach is negative or NaN.
TEST(SpatialGrid, PairSweepMatchesBruteForce) {
  geo::Rng rng{33};
  std::vector<std::uint32_t> ids;
  std::vector<geo::Point> pts;
  for (std::uint32_t i = 0; i < 500; ++i) {
    ids.push_back(i * 3 + 1);
    pts.push_back(i % 3 == 0 ? geo::Point{rng.uniform(-300, 300), rng.uniform(-300, 300)}
                             : geo::Point{25.0 * static_cast<int>(rng.uniform(-4, 4)),
                                          rng.uniform(-20, 20)});  // on cell edges
  }
  pts[7] = pts[8];  // coincident
  pts[9] = {1e300, 1e300};
  pts[10] = {std::numeric_limits<double>::infinity(), 0.0};
  for (std::size_t k = ids.size(); k > 1; --k) std::swap(ids[k - 1], ids[rng.uniform_int(k)]);
  const geo::SpatialGrid grid{25.0, ids, pts};
  const auto reach = [](std::uint32_t id) {
    if (id % 50 == 1) return -1.0;
    if (id % 50 == 4) return std::numeric_limits<double>::quiet_NaN();
    return id % 7 == 0 ? 180.0 : 5.0 + id % 40;
  };
  const auto order = grid.grid_order();
  ASSERT_EQ(order.size(), ids.size());
  std::vector<std::tuple<std::uint32_t, std::uint32_t, double>> want;
  for (std::uint32_t i = 0; i < order.size(); ++i) {
    const double r = reach(order[i]);
    for (std::uint32_t j = i + 1; j < order.size(); ++j) {
      const double d2 = geo::distance2(grid.position(order[j]), grid.position(order[i]));
      if (r >= 0.0 && d2 <= r * r) want.emplace_back(i, j, d2);
    }
  }
  std::vector<std::tuple<std::uint32_t, std::uint32_t, double>> got;
  grid.for_each_pair(reach, [&](std::uint32_t i, std::uint32_t j, double d2) {
    got.emplace_back(i, j, d2);
  });
  EXPECT_GT(want.size(), 1000u);
  EXPECT_EQ(got, want);
}

// insert() is a slow path, but it must index exactly like a bulk build of
// the same items in the same order.
TEST(SpatialGrid, InsertMatchesBulkBuild) {
  geo::Rng rng{5};
  std::vector<std::uint32_t> ids;
  std::vector<geo::Point> pts;
  geo::SpatialGrid incremental{20.0};
  for (std::uint32_t i = 0; i < 80; ++i) {
    ids.push_back(200 - i);
    pts.push_back({rng.uniform(-60, 60), rng.uniform(-60, 60)});
    incremental.insert(ids.back(), pts.back());
  }
  const geo::SpatialGrid bulk{20.0, ids, pts};
  for (int trial = 0; trial < 20; ++trial) {
    const geo::Point c{rng.uniform(-70, 70), rng.uniform(-70, 70)};
    EXPECT_EQ(incremental.query_radius(c, 35.0), bulk.query_radius(c, 35.0));
  }
  EXPECT_THROW(incremental.insert(200, {0.0, 0.0}), std::invalid_argument);
  const std::vector<std::uint32_t> twice{1, 2, 1};
  const std::vector<geo::Point> three(3);
  EXPECT_THROW((geo::SpatialGrid{1.0, twice, three}), std::invalid_argument);
}

// A city-sized query rectangle over sparse points must return the brute
// force set (the grid visits occupied cells only), and hostile coordinates
// must neither crash nor match anything they should not.
TEST(SpatialGrid, HugeQueriesAndHostileCoordinates) {
  std::vector<geo::Point> pts{{0.0, 0.0}, {-5e6, 3e6}, {9e6, -9e6}, {1e300, 1e300},
                              {std::numeric_limits<double>::infinity(), 0.0}};
  const geo::SpatialGrid grid{50.0, pts};
  auto all = grid.query_radius({0.0, 0.0}, 2e7);
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(grid.query_rect({{-1e7, -1e7}, {1e7, 1e7}}).size(), 3u);
  EXPECT_EQ(grid.query_radius({1e300, 1e300}, 1.0), (std::vector<std::uint32_t>{3}));
  EXPECT_TRUE(grid.query_radius({0.0, 0.0}, std::numeric_limits<double>::quiet_NaN()).empty());
}

// ------------------------------------------------------------------ Rng ---

TEST(Rng, DeterministicForSeed) {
  geo::Rng a{123};
  geo::Rng b{123};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  geo::Rng a{1};
  geo::Rng b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  geo::Rng rng{5};
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntBounds) {
  geo::Rng rng{6};
  std::vector<int> histogram(10, 0);
  for (int i = 0; i < 100000; ++i) {
    const auto v = rng.uniform_int(10);
    ASSERT_LT(v, 10u);
    ++histogram[v];
  }
  // Roughly uniform: each bucket within 10% of the expectation.
  for (const int count : histogram) EXPECT_NEAR(count, 10000, 1000);
}

TEST(Rng, NormalMoments) {
  geo::Rng rng{9};
  geo::RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Rng, ForkProducesIndependentStream) {
  geo::Rng a{42};
  geo::Rng child = a.fork(1);
  geo::Rng a2{42};
  geo::Rng child2 = a2.fork(1);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(child.next(), child2.next());
  // And the fork differs from the parent's continued stream.
  EXPECT_NE(child.next(), a.next());
}

TEST(Rng, ChanceExtremes) {
  geo::Rng rng{11};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

// ---------------------------------------------------------------- Stats ---

TEST(Stats, QuantileBasics) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(geo::quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(geo::quantile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(geo::quantile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(geo::quantile(v, 0.25), 2.0);
}

TEST(Stats, QuantileInterpolates) {
  std::vector<double> v{0, 10};
  EXPECT_DOUBLE_EQ(geo::quantile(v, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(geo::quantile(v, 0.75), 7.5);
}

TEST(Stats, QuantileEdgeCases) {
  EXPECT_DOUBLE_EQ(geo::quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(geo::quantile({7.0}, 0.99), 7.0);
  EXPECT_DOUBLE_EQ(geo::quantile({3.0, 1.0}, -0.5), 1.0);  // clamped
  EXPECT_DOUBLE_EQ(geo::quantile({3.0, 1.0}, 1.5), 3.0);
}

TEST(Stats, EmpiricalCdfIsMonotone) {
  const auto cdf = geo::empirical_cdf({5, 1, 3, 3, 2});
  ASSERT_EQ(cdf.size(), 5u);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LE(cdf[i - 1].value, cdf[i].value);
    EXPECT_LT(cdf[i - 1].fraction, cdf[i].fraction);
  }
  EXPECT_DOUBLE_EQ(cdf.back().fraction, 1.0);
}

TEST(Stats, RunningStatsMatchesClosedForm) {
  geo::RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Stats, RunningStatsEmptyAndSingle) {
  geo::RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}
