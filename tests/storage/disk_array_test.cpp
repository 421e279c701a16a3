// Tests for the FC-attached disk array, driven through a one-partition
// domain: the issuer shares the array's partition, and every command and
// durable ack still crosses the fabric as a mailbox hop.
#include <gtest/gtest.h>

#include "sim/parallel.hpp"
#include "storage/disk_array.hpp"

namespace redbud::storage {
namespace {

using redbud::sim::Process;
using redbud::sim::SimDomain;
using redbud::sim::SimTime;
using redbud::sim::Simulation;

ArrayParams small_array() {
  ArrayParams p;
  p.ndisks = 2;
  p.disk.total_blocks = 1 << 20;
  return p;
}

// An array in its own partition of a one-thread domain.
struct ArrayRig {
  explicit ArrayRig(ArrayParams p = small_array())
      : sim(domain.add_partition()), arr(sim, p) {
    arr.bind_domain(&domain);
    arr.start();
  }
  void run() { domain.run_until(SimTime::seconds(10)); }

  SimDomain domain;
  Simulation& sim;
  DiskArray arr;
};

TEST(DiskArray, WriteThenPeekSeesTokens) {
  ArrayRig rig;
  bool done = false;
  rig.sim.spawn([](Simulation& s, DiskArray& a, bool& out) -> Process {
    std::vector<ContentToken> t{11, 22};
    co_await a.write(s, PhysAddr{0, 100}, 2, std::move(t));
    out = true;
  }(rig.sim, rig.arr, done));
  rig.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(rig.arr.peek({0, 100}, 2), (std::vector<ContentToken>{11, 22}));
}

TEST(DiskArray, DevicesAreIndependent) {
  ArrayRig rig;
  rig.sim.spawn([](Simulation& s, DiskArray& a) -> Process {
    std::vector<ContentToken> t1{1}, t2{2};
    co_await a.write(s, PhysAddr{0, 100}, 1, std::move(t1));
    co_await a.write(s, PhysAddr{1, 100}, 1, std::move(t2));
  }(rig.sim, rig.arr));
  rig.run();
  EXPECT_EQ(rig.arr.peek({0, 100}, 1)[0], 1u);
  EXPECT_EQ(rig.arr.peek({1, 100}, 1)[0], 2u);
}

TEST(DiskArray, ReadCompletesAfterDiskAndFc) {
  ArrayRig rig;
  SimTime read_done = SimTime::zero();
  std::vector<ContentToken> got;
  rig.sim.spawn([](Simulation& s, DiskArray& a, SimTime& out,
                   std::vector<ContentToken>& toks) -> Process {
    std::vector<ContentToken> t{1, 2, 3, 4};
    co_await a.write(s, PhysAddr{0, 10}, 4, std::move(t));
    const SimTime t0 = s.now();
    toks = co_await a.read_tokens(s, PhysAddr{0, 10}, 4);
    // At least the command hop and the FC return hop.
    EXPECT_GE(s.now() - t0, SimTime::micros(100));
    out = s.now();
  }(rig.sim, rig.arr, read_done, got));
  rig.run();
  EXPECT_GT(read_done, SimTime::zero());
  EXPECT_EQ(got, (std::vector<ContentToken>{1, 2, 3, 4}));
  EXPECT_EQ(rig.arr.peek({0, 10}, 4), (std::vector<ContentToken>{1, 2, 3, 4}));
}

TEST(DiskArray, FcPipeCarriesPayloadBytes) {
  ArrayRig rig;
  rig.sim.spawn([](Simulation& s, DiskArray& a) -> Process {
    co_await a.write(s, PhysAddr{0, 0}, 8, std::vector<ContentToken>(8, 9));
  }(rig.sim, rig.arr));
  rig.run();
  EXPECT_EQ(rig.arr.fc_pipe().meter().bytes(), 8 * kBlockSize);
}

TEST(DiskArray, AggregateStatsSumDevices) {
  ArrayRig rig;
  rig.sim.spawn([](Simulation& s, DiskArray& a) -> Process {
    std::vector<ContentToken> t1{1}, t2{2};
    co_await a.write(s, PhysAddr{0, 100}, 1, std::move(t1));
    co_await a.write(s, PhysAddr{1, 200}, 1, std::move(t2));
  }(rig.sim, rig.arr));
  rig.run();
  EXPECT_EQ(rig.arr.total_submitted(), 2u);
  EXPECT_EQ(rig.arr.total_dispatched(), 2u);
  rig.arr.reset_stats();
  EXPECT_EQ(rig.arr.total_submitted(), 0u);
}

TEST(DiskArray, ConcurrentAdjacentWritesMergeOnOneDevice) {
  ArrayRig rig;
  // A far-away blocker parks the device busy, then adjacent writes pile up.
  rig.sim.spawn([](Simulation& s, DiskArray& a) -> Process {
    (void)a.write(s, PhysAddr{0, 900'000}, 1, std::vector<ContentToken>{1});
    co_await s.delay(SimTime::millis(1));
    for (int i = 0; i < 8; ++i) {
      (void)a.write(s, {0, BlockNo(1000 + i * 4)}, 4,
                    std::vector<ContentToken>(4, ContentToken(i + 1)));
    }
  }(rig.sim, rig.arr));
  rig.run();
  EXPECT_GT(rig.arr.total_merged(), 0u);
  EXPECT_GT(rig.arr.merge_ratio(), 0.0);
}

}  // namespace
}  // namespace redbud::storage
