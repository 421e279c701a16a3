// Tests of perfbench_rep's aggregation rules (perfbench/agg.hpp).
#include "agg.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace {

using perfbench::Role;

std::vector<std::int64_t> one_to(std::int64_t n) {
  std::vector<std::int64_t> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1);
  return v;
}

TEST(PerfbenchPercentile, NearestRankOnSortedSamples) {
  const auto v = one_to(100);
  EXPECT_EQ(perfbench::percentile_sorted(v, 50), 50);
  EXPECT_EQ(perfbench::percentile_sorted(v, 99), 99);
  EXPECT_EQ(perfbench::percentile_sorted(v, 100), 100);
  EXPECT_EQ(perfbench::percentile_sorted({}, 50), 0);
  EXPECT_EQ(perfbench::percentile_sorted({7}, 99), 7);
}

TEST(PerfbenchPercentile, HighestPercentileKeepsTenSamplesBeyond) {
  EXPECT_EQ(perfbench::highest_supported_percentile(19), 0.0);
  EXPECT_EQ(perfbench::highest_supported_percentile(20), 50.0);
  EXPECT_EQ(perfbench::highest_supported_percentile(100), 90.0);
  EXPECT_EQ(perfbench::highest_supported_percentile(999), 90.0);
  EXPECT_EQ(perfbench::highest_supported_percentile(1000), 99.0);
  EXPECT_EQ(perfbench::highest_supported_percentile(10000), 99.9);
  EXPECT_EQ(perfbench::highest_supported_percentile(313400), 99.99);
  EXPECT_EQ(perfbench::samples_beyond(1000, 99), 10u);
  EXPECT_EQ(perfbench::samples_beyond(999, 99), 9u);
}

TEST(PerfbenchPercentile, SummaryCarriesSampleCountAndTail) {
  auto v = one_to(2000);
  std::reverse(v.begin(), v.end());  // summarize sorts its copy
  const perfbench::LatencySummary s = perfbench::summarize(v);
  EXPECT_EQ(s.samples, 2000u);
  EXPECT_EQ(s.p50_ns, 1000);
  EXPECT_EQ(s.p99_ns, 1980);
  EXPECT_EQ(s.tail_p, 99.0);
  EXPECT_EQ(s.tail_ns, 1980);
  EXPECT_TRUE(s.p99_supported());
  EXPECT_FALSE(perfbench::summarize(one_to(999)).p99_supported());
}

TEST(PerfbenchPercentile, HistogramPercentileInterpolatesInsideItsBucket) {
  using redbud::sim::SimTime;
  // 100 samples spread evenly over [1010, 1110) us: one log bucket
  // ([10^(48/16), 10^(49/16)) us = [1000, 1155) us), so percentile() reads
  // the same upper edge for every p.
  redbud::sim::LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.record(SimTime::micros(1010 + i));
  EXPECT_EQ(h.percentile(10), h.percentile(90));
  const double p10 = perfbench::interpolated_percentile_ns(h, 10);
  const double p90 = perfbench::interpolated_percentile_ns(h, 90);
  EXPECT_LT(p10, p90);
  EXPECT_NEAR(p10, 1000e3 + 0.10 * 154.8e3, 1e3);
  // Clamped to the exact extremes the histogram keeps.
  EXPECT_EQ(perfbench::interpolated_percentile_ns(h, 100), 1109e3);
  EXPECT_EQ(perfbench::interpolated_percentile_ns(h, 0.5), 1010e3);

  // Two buckets: the rank lands in the upper one and is placed by its rank
  // among that bucket's samples only.
  redbud::sim::LatencyHistogram two;
  for (int i = 0; i < 50; ++i) two.record(SimTime::micros(1010));
  for (int i = 0; i < 50; ++i) two.record(SimTime::micros(1200));
  const double p75 = perfbench::interpolated_percentile_ns(two, 75);
  EXPECT_GT(p75, 1155e3);
  EXPECT_LE(p75, 1200e3);
  EXPECT_EQ(perfbench::interpolated_percentile_ns({}, 99), 0.0);
}

TEST(PerfbenchRoles, PartitionedDomainGroupsBusyTimeByRole) {
  // Layout of a partitioned cluster: shards, then client hosts, then the
  // array (the order core::Cluster creates them in).
  redbud::sim::SimDomain domain(2);
  for (int i = 0; i < 5; ++i) (void)domain.add_partition();
  std::vector<const redbud::sim::Simulation*> shards = {&domain.partition(0),
                                                        &domain.partition(1)};
  std::vector<const redbud::sim::Simulation*> clients = {&domain.partition(2),
                                                         &domain.partition(3)};
  const auto roles = perfbench::partition_roles(domain, clients, shards,
                                                &domain.partition(4));
  ASSERT_EQ(roles.size(), 5u);
  EXPECT_EQ(roles[0], Role::kMds);
  EXPECT_EQ(roles[2], Role::kClient);
  EXPECT_EQ(roles[4], Role::kArray);

  redbud::sim::KernelProfile kp;
  kp.partitions.resize(5);
  for (std::size_t i = 0; i < 5; ++i) kp.partitions[i].busy_ns = 10 * (i + 1);
  const auto busy = perfbench::busy_ns_by_role(kp, roles);
  EXPECT_EQ(busy[std::size_t(Role::kMds)], 10u + 20u);
  EXPECT_EQ(busy[std::size_t(Role::kClient)], 30u + 40u);
  EXPECT_EQ(busy[std::size_t(Role::kArray)], 50u);
}

TEST(PerfbenchRoles, SerialDomainPartitionIsSharedAndCountsForNone) {
  redbud::sim::SimDomain domain(1);
  redbud::sim::Simulation& only = domain.add_partition();
  const auto roles =
      perfbench::partition_roles(domain, {&only}, {&only}, &only);
  ASSERT_EQ(roles.size(), 1u);
  EXPECT_EQ(roles[0], Role::kShared);
  redbud::sim::KernelProfile kp;
  kp.partitions.resize(1);
  kp.partitions[0].busy_ns = 99;
  const auto busy = perfbench::busy_ns_by_role(kp, roles);
  EXPECT_EQ(busy[0] + busy[1] + busy[2], 0u);
}

TEST(PerfbenchRoles, StallShareIsStallOverBusyPlusStall) {
  redbud::sim::KernelProfile kp;
  kp.workers.resize(2);
  kp.workers[0] = {300, 100, 0};
  kp.workers[1] = {100, 500, 0};
  EXPECT_DOUBLE_EQ(perfbench::stall_share(kp), 600.0 / 1000.0);
  EXPECT_EQ(perfbench::stall_share(redbud::sim::KernelProfile{}), 0.0);
}

TEST(PerfbenchRatios, RegistryRatiosSumEveryLabelSet) {
  redbud::obs::MetricsRegistry reg;
  std::uint64_t entries0 = 30, entries1 = 10, rpcs0 = 5, rpcs1 = 3;
  std::uint64_t hits = 90, misses = 10, merged = 1, enqueued = 4;
  std::uint64_t mds_entries = 40, records = 12, flushes = 4;
  reg.register_value("commit_pool.entries_committed", {{"client", "0"}}, &entries0);
  reg.register_value("commit_pool.entries_committed", {{"client", "1"}}, &entries1);
  reg.register_value("commit_pool.rpcs_sent", {{"client", "0"}}, &rpcs0);
  reg.register_value("commit_pool.rpcs_sent", {{"client", "1"}}, &rpcs1);
  reg.register_value("page_cache.hits", {{"client", "0"}}, &hits);
  reg.register_value("page_cache.misses", {{"client", "0"}}, &misses);
  reg.register_value("commit_queue.merged", {{"client", "0"}}, &merged);
  reg.register_value("commit_queue.enqueued", {{"client", "0"}}, &enqueued);
  reg.register_value("mds.commit_entries", {{"shard", "0"}}, &mds_entries);
  reg.register_value("journal.records", {{"shard", "0"}}, &records);
  reg.register_value("journal.flushes", {{"shard", "0"}}, &flushes);

  const perfbench::RegistryRatios r = perfbench::registry_ratios(reg);
  EXPECT_DOUBLE_EQ(r.commit_pool_degree, 40.0 / 8.0);
  EXPECT_DOUBLE_EQ(r.mds_entries_per_rpc, 40.0 / 8.0);
  EXPECT_DOUBLE_EQ(r.page_cache_hit_ratio, 0.9);
  EXPECT_DOUBLE_EQ(r.commit_queue_merge_ratio, 0.25);
  EXPECT_DOUBLE_EQ(r.journal_records_per_flush, 3.0);
}

TEST(PerfbenchRatios, NoWorkReadsZeroNotNaN) {
  redbud::obs::MetricsRegistry reg;
  const perfbench::RegistryRatios r = perfbench::registry_ratios(reg);
  EXPECT_EQ(r.commit_pool_degree, 0.0);
  EXPECT_EQ(r.page_cache_hit_ratio, 0.0);
  EXPECT_EQ(perfbench::ratio(1, 0), 0.0);
}

TEST(PerfbenchRatios, MergedHistogramFoldsEveryLabelSetOfOneName) {
  redbud::obs::MetricsRegistry reg;
  redbud::sim::LatencyHistogram a, b, other;
  a.record(redbud::sim::SimTime::micros(10));
  b.record(redbud::sim::SimTime::micros(20));
  b.record(redbud::sim::SimTime::micros(30));
  other.record(redbud::sim::SimTime::micros(40));
  reg.register_histogram("rpc.rtt", {{"node", "0"}}, &a);
  reg.register_histogram("rpc.rtt", {{"node", "1"}}, &b);
  reg.register_histogram("rpc.rtt_other", {{"node", "0"}}, &other);
  const auto h = perfbench::merged_histogram(reg, "rpc.rtt");
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.max(), redbud::sim::SimTime::micros(30));
}

}  // namespace
