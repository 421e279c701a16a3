// Aggregation rules of perfbench_rep, kept free of I/O so that
// perfbench/agg_test.cpp can pin them: exact percentiles with the
// "highest percentile with at least ten samples beyond it" rule, the
// grouping of KernelProfile partitions by simulated role, and the
// layer-metric ratios read from the obs::MetricsRegistry.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics_registry.hpp"
#include "sim/parallel.hpp"

namespace perfbench {

// Quotient that reads 0 when nothing was attempted, so a layer that did no
// work reports 0 instead of NaN (JSON has no NaN).
[[nodiscard]] inline double ratio(double num, double den) {
  return den > 0 ? num / den : 0.0;
}

// Nearest-rank percentile of sorted samples: the smallest sample with at
// least p% of the samples at or below it. Empty input reads 0.
// The rank is ceil(p% of n), computed in integer parts per million so that
// 99.9% of 10000 is exactly rank 9990.
[[nodiscard]] inline std::uint64_t nearest_rank(std::uint64_t n, double p) {
  const auto ppm = static_cast<std::uint64_t>(std::llround(p * 10000.0));
  return (ppm * n + 999'999) / 1'000'000;
}

[[nodiscard]] inline std::int64_t percentile_sorted(
    const std::vector<std::int64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const std::uint64_t rank =
      std::clamp<std::uint64_t>(nearest_rank(sorted.size(), p), 1, sorted.size());
  return sorted[rank - 1];
}

// Number of samples strictly above the nearest-rank percentile's rank.
[[nodiscard]] inline std::uint64_t samples_beyond(std::uint64_t n, double p) {
  const std::uint64_t rank = nearest_rank(n, p);
  return n > rank ? n - rank : 0;
}

// The highest percentile of the ladder 50, 90, 99, 99.9, ... that still
// has at least ten samples beyond it; 0 when not even the median has.
[[nodiscard]] inline double highest_supported_percentile(std::uint64_t n) {
  double best = 0.0;
  for (double p : {50.0, 90.0, 99.0, 99.9, 99.99, 99.999, 99.9999}) {
    if (samples_beyond(n, p) >= 10) best = p;
  }
  return best;
}

// A latency summary: the median, p99 and the tail percentile the sample
// count supports, all in simulated nanoseconds, with that count.
struct LatencySummary {
  std::uint64_t samples = 0;
  std::int64_t p50_ns = 0;
  std::int64_t p99_ns = 0;
  double tail_p = 0.0;
  std::int64_t tail_ns = 0;
  // p99 is reportable only with ten samples beyond it.
  [[nodiscard]] bool p99_supported() const {
    return samples_beyond(samples, 99.0) >= 10;
  }
};

[[nodiscard]] inline LatencySummary summarize(std::vector<std::int64_t> ns) {
  std::sort(ns.begin(), ns.end());
  LatencySummary s;
  s.samples = ns.size();
  s.p50_ns = percentile_sorted(ns, 50.0);
  s.p99_ns = percentile_sorted(ns, 99.0);
  s.tail_p = highest_supported_percentile(s.samples);
  s.tail_ns = s.tail_p > 0 ? percentile_sorted(ns, s.tail_p) : 0;
  return s;
}

// Percentile of a log-bucketed LatencyHistogram, interpolated linearly
// inside the bucket that holds it. LatencyHistogram::percentile returns the
// bucket's upper edge (16 buckets per decade, edges 15% apart), which stays
// put while the samples move inside the bucket. The counts at the bucket's
// edges are read back through percentile() itself: rank t is the value of
// percentile(100 (t - 0.5) / n).
[[nodiscard]] inline double interpolated_percentile_ns(
    const redbud::sim::LatencyHistogram& h, double p) {
  const std::uint64_t n = h.count();
  if (n == 0) return 0.0;
  const auto at = [&](std::uint64_t rank) {
    return h.percentile(100.0 * (double(rank) - 0.5) / double(n)).ns();
  };
  const std::uint64_t target = std::clamp<std::uint64_t>(nearest_rank(n, p), 1, n);
  const std::int64_t upper = at(target);
  // First and last rank whose value is this bucket's upper edge.
  std::uint64_t lo = 1, hi = target;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (at(mid) < upper) lo = mid + 1; else hi = mid;
  }
  const std::uint64_t first = lo;
  lo = target;
  hi = n;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo + 1) / 2;
    if (at(mid) > upper) hi = mid - 1; else lo = mid;
  }
  const std::uint64_t last = lo;
  const double lower = double(upper) / std::pow(10.0, 1.0 / 16.0);
  const double k = double(target - first + 1) / double(last - first + 1);
  const double v = lower + (double(upper) - lower) * k;
  return std::clamp(v, double(h.min().ns()), double(h.max().ns()));
}

// What a KernelProfile partition simulates. A serial domain has a single
// partition that is every role at once; it is kShared and belongs to none.
enum class Role : std::uint8_t { kClient, kMds, kArray, kShared };
inline constexpr std::size_t kRoleCount = 3;  // client, mds, array
[[nodiscard]] inline const char* role_name(Role r) {
  switch (r) {
    case Role::kClient: return "client";
    case Role::kMds: return "mds";
    case Role::kArray: return "array";
    case Role::kShared: return "shared";
  }
  return "?";
}

// Role of each partition of `domain`, given the partitions the cluster
// assigned to client hosts, metadata shards and the disk array.
[[nodiscard]] inline std::vector<Role> partition_roles(
    redbud::sim::SimDomain& domain,
    const std::vector<const redbud::sim::Simulation*>& clients,
    const std::vector<const redbud::sim::Simulation*>& shards,
    const redbud::sim::Simulation* array) {
  std::vector<Role> roles;
  for (std::size_t i = 0; i < domain.nparts(); ++i) {
    const redbud::sim::Simulation* p = &domain.partition(i);
    const bool c = std::find(clients.begin(), clients.end(), p) != clients.end();
    const bool m = std::find(shards.begin(), shards.end(), p) != shards.end();
    const bool a = p == array;
    const int hits = int(c) + int(m) + int(a);
    roles.push_back(hits != 1 ? Role::kShared
                    : c       ? Role::kClient
                    : m       ? Role::kMds
                              : Role::kArray);
  }
  return roles;
}

// Busy wall-ns of the profile's partitions summed per role (client, mds,
// array); kShared partitions count toward none.
[[nodiscard]] inline std::array<std::uint64_t, kRoleCount> busy_ns_by_role(
    const redbud::sim::KernelProfile& kp, const std::vector<Role>& roles) {
  std::array<std::uint64_t, kRoleCount> out{};
  for (std::size_t i = 0; i < kp.partitions.size() && i < roles.size(); ++i) {
    if (roles[i] == Role::kShared) continue;
    out[static_cast<std::size_t>(roles[i])] += kp.partitions[i].busy_ns;
  }
  return out;
}

// Share of worker wall time spent stalled at the window barrier.
[[nodiscard]] inline double stall_share(const redbud::sim::KernelProfile& kp) {
  const double busy = double(kp.busy_ns_total());
  const double stall = double(kp.stall_ns_total());
  return ratio(stall, busy + stall);
}

// Ratios over registry counters summed across every label set (client,
// shard, endpoint). Each names the work it divides and what it divides by.
struct RegistryRatios {
  double page_cache_hit_ratio = 0;      // hits / (hits + misses)
  double commit_queue_merge_ratio = 0;  // merged / enqueued
  double commit_pool_degree = 0;        // entries committed / commit RPCs
  double mds_entries_per_rpc = 0;       // MDS commit entries / commit RPCs
  double journal_records_per_flush = 0; // journal records / flushes
};

[[nodiscard]] inline RegistryRatios registry_ratios(
    const redbud::obs::MetricsRegistry& reg) {
  const auto sum = [&](const char* name) { return double(reg.sum(name)); };
  RegistryRatios r;
  const double hits = sum("page_cache.hits");
  r.page_cache_hit_ratio = ratio(hits, hits + sum("page_cache.misses"));
  r.commit_queue_merge_ratio =
      ratio(sum("commit_queue.merged"), sum("commit_queue.enqueued"));
  const double commit_rpcs = sum("commit_pool.rpcs_sent");
  r.commit_pool_degree = ratio(sum("commit_pool.entries_committed"), commit_rpcs);
  r.mds_entries_per_rpc = ratio(sum("mds.commit_entries"), commit_rpcs);
  r.journal_records_per_flush =
      ratio(sum("journal.records"), sum("journal.flushes"));
  return r;
}

// One histogram merged from every label set registered under `name`.
[[nodiscard]] inline redbud::sim::LatencyHistogram merged_histogram(
    const redbud::obs::MetricsRegistry& reg, const std::string& name) {
  redbud::sim::LatencyHistogram h;
  const std::string prefix = name + "{";
  for (const auto& [key, hist] : reg.histograms()) {
    if (key == name || key.rfind(prefix, 0) == 0) h.merge(*hist);
  }
  return h;
}

}  // namespace perfbench
