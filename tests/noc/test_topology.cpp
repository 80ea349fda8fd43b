#include "noc/topology.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace scc::noc {
namespace {

TEST(Topology, SccDefaultGeometry) {
  const Topology t;
  EXPECT_EQ(t.tiles_x(), 6);
  EXPECT_EQ(t.tiles_y(), 4);
  EXPECT_EQ(t.num_tiles(), 24);
  EXPECT_EQ(t.num_cores(), 48);
  EXPECT_EQ(t.cores_per_tile(), 2);
}

TEST(Topology, TileOfPairsCores) {
  const Topology t;
  EXPECT_EQ(t.tile_of(0), 0);
  EXPECT_EQ(t.tile_of(1), 0);
  EXPECT_EQ(t.tile_of(2), 1);
  EXPECT_EQ(t.tile_of(47), 23);
}

TEST(Topology, CoordsRowMajor) {
  const Topology t;
  EXPECT_EQ(t.coord_of_tile(0), (TileCoord{0, 0}));
  EXPECT_EQ(t.coord_of_tile(5), (TileCoord{5, 0}));
  EXPECT_EQ(t.coord_of_tile(6), (TileCoord{0, 1}));
  EXPECT_EQ(t.coord_of_tile(23), (TileCoord{5, 3}));
}

TEST(Topology, HopsSameTileIsZero) {
  const Topology t;
  EXPECT_EQ(t.hops(0, 1), 0);
  EXPECT_EQ(t.hops(46, 47), 0);
}

TEST(Topology, HopsManhattanDistance) {
  const Topology t;
  // Core 0 at tile (0,0); core 47 at tile (5,3).
  EXPECT_EQ(t.hops(0, 47), 8);
  // Core 0 -> core 2 (tile 1, adjacent).
  EXPECT_EQ(t.hops(0, 2), 1);
}

TEST(Topology, HopsSymmetric) {
  const Topology t;
  for (int a = 0; a < t.num_cores(); a += 7)
    for (int b = 0; b < t.num_cores(); b += 5)
      EXPECT_EQ(t.hops(a, b), t.hops(b, a));
}

TEST(Topology, HopsTriangleInequality) {
  const Topology t;
  for (int a = 0; a < t.num_cores(); a += 9)
    for (int b = 0; b < t.num_cores(); b += 7)
      for (int c = 0; c < t.num_cores(); c += 11)
        EXPECT_LE(t.hops(a, c), t.hops(a, b) + t.hops(b, c));
}

TEST(Topology, McCoordsOnEdges) {
  const Topology t;
  EXPECT_EQ(t.mc_coord(0), (TileCoord{0, 0}));
  EXPECT_EQ(t.mc_coord(1), (TileCoord{5, 0}));
  EXPECT_EQ(t.mc_coord(2), (TileCoord{0, 2}));
  EXPECT_EQ(t.mc_coord(3), (TileCoord{5, 2}));
}

TEST(Topology, EveryCoreHasAnMcInItsQuadrant) {
  const Topology t;
  for (int c = 0; c < t.num_cores(); ++c) {
    const int mc = t.mc_of(c);
    EXPECT_GE(mc, 0);
    EXPECT_LT(mc, 4);
    // Worst case inside a 3x2 quadrant.
    EXPECT_LE(t.weighted_hops_to_mc(c), 4.0);
  }
}

TEST(Topology, RouteLengthEqualsHops) {
  const Topology t;
  for (int a = 0; a < t.num_cores(); a += 3)
    for (int b = 0; b < t.num_cores(); b += 5)
      EXPECT_EQ(static_cast<int>(t.route(a, b).size()), t.hops(a, b));
}

TEST(Topology, RouteIsXThenY) {
  const Topology t;
  // Core 0 (0,0) -> core 47 (5,3): first 5 X-links, then 3 Y-links.
  std::vector<LinkId> links;
  for (const std::uint32_t link : t.route(0, 47)) links.push_back(t.link(link));
  ASSERT_EQ(links.size(), 8u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_NE(links[static_cast<std::size_t>(i)].from.x,
              links[static_cast<std::size_t>(i)].to.x);
    EXPECT_EQ(links[static_cast<std::size_t>(i)].from.y,
              links[static_cast<std::size_t>(i)].to.y);
  }
  for (int i = 5; i < 8; ++i) {
    EXPECT_EQ(links[static_cast<std::size_t>(i)].from.x,
              links[static_cast<std::size_t>(i)].to.x);
    EXPECT_NE(links[static_cast<std::size_t>(i)].from.y,
              links[static_cast<std::size_t>(i)].to.y);
  }
}

TEST(Topology, RouteIsAViewIntoOneTable) {
  const Topology t;
  for (int a = 0; a < t.num_cores(); ++a) {
    for (int b = 0; b < t.num_cores(); ++b) {
      // The same storage on every call, shared by the cores of a tile.
      EXPECT_EQ(t.route(a, b).data(), t.route(a, b).data());
      EXPECT_EQ(t.route(a, b).data(), t.route(a ^ 1, b ^ 1).data());
      EXPECT_EQ(t.route(a, b).size(), t.route(a ^ 1, b ^ 1).size());
    }
  }
}

TEST(Topology, LinkIsLinkIndexInverse) {
  const Topology t(3, 2, 2);
  std::size_t links = 0;
  for (TileId tile = 0; tile < t.num_tiles(); ++tile) {
    const TileCoord from = t.coord_of_tile(tile);
    for (const TileCoord to : {TileCoord{from.x + 1, from.y},
                               TileCoord{from.x - 1, from.y},
                               TileCoord{from.x, from.y + 1},
                               TileCoord{from.x, from.y - 1}}) {
      if (to.x < 0 || to.x >= 3 || to.y < 0 || to.y >= 2) continue;
      const std::size_t index = t.link_index({from, to});
      ASSERT_LT(index, t.num_links());
      EXPECT_EQ(t.link(index), (LinkId{from, to}));
      ++links;
    }
  }
  EXPECT_EQ(links, 2u * (2 * 2 + 3 * 1));  // both directions of 7 channels
  // Every route entry names a link of the mesh.
  for (int a = 0; a < t.num_cores(); ++a) {
    for (int b = 0; b < t.num_cores(); ++b) {
      for (const std::uint32_t link : t.route(a, b)) {
        EXPECT_EQ(t.link_index(t.link(link)), link);
      }
    }
  }
}

TEST(Topology, CustomShape) {
  const Topology t(3, 2, 2);
  EXPECT_EQ(t.num_cores(), 12);
  EXPECT_EQ(t.coord_of(11), (TileCoord{2, 1}));
}

TEST(Topology, SingleTileMesh) {
  const Topology t(1, 1, 2);
  EXPECT_EQ(t.num_cores(), 2);
  EXPECT_EQ(t.hops(0, 1), 0);
  EXPECT_TRUE(t.route(0, 1).empty());
}

}  // namespace
}  // namespace scc::noc
