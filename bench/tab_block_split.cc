// Regenerates Fig. 6's block-size table (Section IV-C): block sizes and
// max:min ratios of the standard (RCCE_comm) and balanced (paper) split
// policies for the three vector lengths the figure shows, plus the
// worst/best cases across the whole 500..700 sweep.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>

#include "bench_support.hpp"
#include "coll/block_split.hpp"
#include "common/cli.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"

int main(int argc, char** argv) {
  try {
    const scc::CliFlags flags = scc::CliFlags::parse(argc, argv);
    for (const std::string& name : flags.unconsumed())
      throw std::runtime_error("unknown flag --" + name);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tab_block_split: %s\n", e.what());
    return 2;
  }

  using scc::coll::imbalance_ratio;
  using scc::coll::split_blocks;
  using scc::coll::SplitPolicy;

  std::cout << "=== Fig. 6: block sizes for p = 48 cores ===\n";
  scc::Table table({"elements", "std first", "std general", "std ratio",
                    "bal large", "bal small", "bal ratio"});
  for (const std::size_t n :
       {std::size_t{528}, std::size_t{552}, std::size_t{575}}) {
    const auto standard = split_blocks(n, 48, SplitPolicy::kStandard);
    const auto balanced = split_blocks(n, 48, SplitPolicy::kBalanced);
    table.add_row({scc::strprintf("%zu", n),
                   scc::strprintf("%zu", standard[0].count),
                   scc::strprintf("%zu", standard[1].count),
                   scc::strprintf("%.1f:1", imbalance_ratio(standard)),
                   scc::strprintf("%zu", balanced[0].count),
                   scc::strprintf("%zu", balanced[47].count),
                   scc::strprintf("%.2f:1", imbalance_ratio(balanced))});
  }
  table.print(std::cout);

  double worst_std = 1.0, worst_bal = 1.0;
  for (std::size_t n = 500; n <= 700; ++n) {
    worst_std = std::max(
        worst_std, imbalance_ratio(split_blocks(n, 48, SplitPolicy::kStandard)));
    worst_bal = std::max(
        worst_bal, imbalance_ratio(split_blocks(n, 48, SplitPolicy::kBalanced)));
  }
  std::cout << scc::strprintf(
      "\nworst case over 500..700 elements: standard %.1f:1, balanced "
      "%.2f:1\n(paper: up to 5.3:1 vs at most 1.1:1)\n",
      worst_std, worst_bal);
  scc::bench::write_table("tab_block_split", table);
  return 0;
}
