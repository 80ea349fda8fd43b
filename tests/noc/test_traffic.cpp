#include "noc/traffic.hpp"

#include <gtest/gtest.h>

namespace scc::noc {
namespace {

TEST(Traffic, StartsEmpty) {
  const Topology topo;
  const TrafficMatrix traffic(topo);
  EXPECT_EQ(traffic.total_lines_sent(), 0u);
  EXPECT_EQ(traffic.total_line_hops(), 0u);
  EXPECT_EQ(traffic.max_link_load(), 0u);
}

TEST(Traffic, LineHopsEqualLinesTimesDistance) {
  const Topology topo;
  TrafficMatrix traffic(topo);
  traffic.record_transfer(0, 47, 10);  // 8 hops
  EXPECT_EQ(traffic.total_lines_sent(), 10u);
  EXPECT_EQ(traffic.total_line_hops(), 80u);
}

TEST(Traffic, SameTileTransferHasNoHops) {
  const Topology topo;
  TrafficMatrix traffic(topo);
  traffic.record_transfer(0, 1, 100);
  EXPECT_EQ(traffic.total_lines_sent(), 100u);
  EXPECT_EQ(traffic.total_line_hops(), 0u);
}

TEST(Traffic, SharedLinksAccumulate) {
  const Topology topo;
  TrafficMatrix traffic(topo);
  // Both transfers traverse the (0,0)->(1,0) link first.
  traffic.record_transfer(0, 2, 5);
  traffic.record_transfer(0, 4, 5);
  EXPECT_EQ(traffic.max_link_load(), 10u);
}

TEST(Traffic, DirectedLinksDistinct) {
  const Topology topo;
  TrafficMatrix traffic(topo);
  traffic.record_transfer(0, 2, 1);
  traffic.record_transfer(2, 0, 1);
  // Opposite directions are different links.
  EXPECT_EQ(traffic.max_link_load(), 1u);
}

}  // namespace
}  // namespace scc::noc
