// Workload engine and personality tests: every workload must run cleanly
// (zero verification failures) over the Redbud delayed-commit stack, and
// the engine must produce sane measurements.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "workload/filebench.hpp"
#include "workload/npb_bt.hpp"
#include "workload/xcdn.hpp"

namespace redbud::workload {
namespace {

using core::Protocol;
using core::Testbed;
using core::TestbedParams;
using redbud::sim::SimTime;

TestbedParams small_bed(Protocol proto) {
  TestbedParams p;
  p.protocol = proto;
  p.nclients = 2;
  p.redbud.array.ndisks = 2;
  p.redbud.array.disk.total_blocks = 1 << 21;
  p.redbud.metadata_disk.total_blocks = 1 << 20;
  p.redbud.journal.region_blocks = 1 << 16;
  p.pvfs_io_servers = 2;
  return p;
}

RunOptions quick_run() {
  RunOptions o;
  o.warmup = SimTime::seconds(1);
  o.duration = SimTime::seconds(5);
  return o;
}

FilebenchParams tiny(FilebenchParams p) {
  p.nfiles_per_client = 40;
  p.threads_per_client = 4;
  return p;
}

TEST(WorkloadEngine, FileserverRunsCleanOnDelayedCommit) {
  Testbed bed(small_bed(Protocol::kRedbudDelayed));
  bed.start();
  FileserverWorkload w(tiny(FilebenchParams{}));
  auto r = run_workload(bed, w, quick_run());
  EXPECT_GT(r.ops, 0u);
  EXPECT_GT(r.ops_per_sec, 0.0);
  EXPECT_EQ(r.verify_failures, 0u);
  EXPECT_EQ(r.op_errors, 0u);
  EXPECT_EQ(r.workload, "fileserver");
  EXPECT_EQ(r.protocol, "Redbud+DC");
}

TEST(WorkloadEngine, VarmailRunsCleanOnAllProtocols) {
  for (auto proto : {Protocol::kRedbudSync, Protocol::kRedbudDelayed,
                     Protocol::kNfs3, Protocol::kPvfs2}) {
    Testbed bed(small_bed(proto));
    bed.start();
    VarmailWorkload w(tiny(VarmailWorkload::varmail_defaults()));
    auto r = run_workload(bed, w, quick_run());
    EXPECT_GT(r.ops, 0u) << core::protocol_name(proto);
    EXPECT_EQ(r.verify_failures, 0u) << core::protocol_name(proto);
  }
}

TEST(WorkloadEngine, WebproxyRunsClean) {
  Testbed bed(small_bed(Protocol::kRedbudDelayed));
  bed.start();
  WebproxyWorkload w(tiny(WebproxyWorkload::webproxy_defaults()));
  auto r = run_workload(bed, w, quick_run());
  EXPECT_GT(r.ops, 0u);
  EXPECT_EQ(r.verify_failures, 0u);
}

TEST(WorkloadEngine, XcdnNamesFollowFileSize) {
  XcdnParams p32;
  p32.file_bytes = 32 * 1024;
  EXPECT_EQ(XcdnWorkload(p32).name(), "xcdn-32KB");
  XcdnParams p1m;
  p1m.file_bytes = 1 << 20;
  EXPECT_EQ(XcdnWorkload(p1m).name(), "xcdn-1MB");
}

TEST(WorkloadEngine, XcdnRunsCleanAndMovesData) {
  Testbed bed(small_bed(Protocol::kRedbudDelayed));
  bed.start();
  XcdnParams xp;
  xp.threads_per_client = 4;
  xp.initial_files_per_client = 100;
  XcdnWorkload w(xp);
  auto r = run_workload(bed, w, quick_run());
  EXPECT_GT(r.ops, 0u);
  EXPECT_GT(r.mb_per_sec, 0.0);
  EXPECT_EQ(r.verify_failures, 0u);
  EXPECT_EQ(r.op_errors, 0u);
}

TEST(WorkloadEngine, NpbBtIsFixedWorkAndVerifies) {
  Testbed bed(small_bed(Protocol::kRedbudDelayed));
  bed.start();
  NpbBtParams np;
  np.ranks_per_client = 4;
  np.timesteps = 3;
  np.chunk_bytes = 128 * 1024;
  NpbBtWorkload w(np);
  EXPECT_TRUE(w.fixed_work());
  RunOptions o;
  auto r = run_workload(bed, w, o);
  EXPECT_GT(r.measured, SimTime::zero());
  // 2 clients x 4 ranks x 3 steps writes + reads of the whole file.
  EXPECT_EQ(r.verify_failures, 0u);
  EXPECT_EQ(r.op_errors, 0u);
  EXPECT_GT(r.ops, 0u);
}

TEST(WorkloadEngine, NpbBtVerifiesOnSyncToo) {
  Testbed bed(small_bed(Protocol::kRedbudSync));
  bed.start();
  NpbBtParams np;
  np.ranks_per_client = 2;
  np.timesteps = 2;
  np.chunk_bytes = 64 * 1024;
  NpbBtWorkload w(np);
  auto r = run_workload(bed, w, RunOptions{});
  EXPECT_EQ(r.verify_failures, 0u);
}

TEST(WorkloadEngine, DelayedCommitBeatsSyncOnXcdnSmallFiles) {
  // The headline claim, in miniature: delayed commit must outperform
  // synchronous commit on small-file CDN traffic.
  double sync_ops = 0.0, delayed_ops = 0.0;
  for (auto proto : {Protocol::kRedbudSync, Protocol::kRedbudDelayed}) {
    Testbed bed(small_bed(proto));
    bed.start();
    XcdnParams xp;
    xp.threads_per_client = 4;
    xp.initial_files_per_client = 100;
    XcdnWorkload w(xp);
    auto r = run_workload(bed, w, quick_run());
    EXPECT_EQ(r.verify_failures, 0u);
    (proto == Protocol::kRedbudSync ? sync_ops : delayed_ops) = r.ops_per_sec;
  }
  EXPECT_GT(delayed_ops, sync_ops);
}

// A workload whose coroutines never finish: prepare() can park forever,
// and each thread ignores ctx.stop. The driver must abort rather than
// return while those frames still reference its context slots.
class HangingWorkload : public Workload {
 public:
  explicit HangingWorkload(bool hang_in_prepare)
      : hang_in_prepare_(hang_in_prepare) {}
  [[nodiscard]] std::string name() const override { return "hanging"; }
  [[nodiscard]] std::uint32_t threads_per_client() const override {
    return 1;
  }
  redbud::sim::Process prepare(redbud::sim::Simulation& sim,
                               fsapi::FsClient& fs, std::uint32_t client_id,
                               WorkloadContext& ctx) override {
    (void)fs;
    (void)client_id;
    (void)ctx;
    while (hang_in_prepare_) co_await sim.delay(SimTime::seconds(10));
  }
  redbud::sim::Process thread(redbud::sim::Simulation& sim,
                              fsapi::FsClient& fs, std::uint32_t client_id,
                              std::uint32_t thread_id,
                              WorkloadContext& ctx) override {
    (void)fs;
    (void)client_id;
    (void)thread_id;
    (void)ctx;
    for (;;) co_await sim.delay(SimTime::seconds(10));
  }

 private:
  bool hang_in_prepare_;
};

TEST(WorkloadEngineDeath, LiveThreadAtDrainDeadlineAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        Testbed bed(small_bed(Protocol::kNfs3));
        bed.start();
        HangingWorkload w(/*hang_in_prepare=*/false);
        (void)run_workload(bed, w, quick_run());
      },
      "drain deadline");
}

TEST(WorkloadEngineDeath, LivePrepareAtDeadlineAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        Testbed bed(small_bed(Protocol::kNfs3));
        bed.start();
        HangingWorkload w(/*hang_in_prepare=*/true);
        (void)run_workload(bed, w, quick_run());
      },
      "prepare");
}

}  // namespace
}  // namespace redbud::workload
