// perfbench_rep: one repetition of one benchmark workload, in its own
// process, so that peak RSS and host times belong to that workload alone.
//
//   perfbench_rep --workload <name> --seed <n> [--trace] [--run-id <id>]
//
// Prints one JSON object (the repetition's raw figures, gate results and
// the benchmark's own spans) and exits 0 only when every correctness gate
// passed. perfbench/run.py repeats it and aggregates; see README.md.
//
// Every layer is measured from outside: the benchmark times its own calls
// into core::Testbed / core::Cluster, workload::run_workload (through its
// on_measure_start hook), workload::OpenLoopEngine, Cluster::run_until,
// core::check_consistency and obs::CriticalPath::analyze, and reads work
// counts from public accessors and the obs::MetricsRegistry.
#include <time.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "agg.hpp"
#include "client/flyweight.hpp"
#include "common.hpp"
#include "core/recovery.hpp"
#include "obs/critical_path.hpp"
#include "workload/openloop.hpp"

using namespace redbud;
using redbud::sim::SimTime;

namespace {

// ---------------------------------------------------------------------------
// Host clocks and the benchmark's own spans.

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return std::int64_t(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

struct Span {
  std::string name;
  int parent = -1;  // index into the log; -1 for the root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

// Spans are kept in memory and printed with the result at exit.
class SpanLog {
 public:
  int begin(std::string name, int parent) {
    spans_.push_back({std::move(name), parent, wall_ns(), 0});
    return int(spans_.size()) - 1;
  }
  void end(int i) { spans_[std::size_t(i)].end_ns = wall_ns(); }
  [[nodiscard]] double seconds(int i) const {
    const Span& s = spans_[std::size_t(i)];
    return double(s.end_ns - s.start_ns) / 1e9;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Exact simulated latency of every file-system call the workload threads
// issue inside the measured window. workload::run_workload keeps only a
// log-bucketed histogram (and no median); this decorator sits between the
// workload and the client, so the simulator itself is unchanged. A call
// that is still pending gets a watcher process that wakes when its future
// is fulfilled; the watcher only records, so every other event keeps its
// relative order and the simulated outcome is the same as without it.

class LatencyLog {
 public:
  void arm(SimTime from, SimTime until) {
    from_ = from;
    until_ = until;
  }
  [[nodiscard]] bool open(SimTime t) const { return t >= from_ && t < until_; }
  void record(SimTime issued, SimTime done) {
    samples_.push_back((done - issued).ns());
  }
  [[nodiscard]] const std::vector<std::int64_t>& samples() const {
    return samples_;
  }

 private:
  SimTime from_ = SimTime::max();
  SimTime until_ = SimTime::max();
  std::vector<std::int64_t> samples_;
};

template <typename T>
sim::Process watch(sim::Simulation& sim, sim::SimFuture<T> f, SimTime issued,
                   LatencyLog& log) {
  (void)co_await f;
  log.record(issued, sim.now());
}

class TimedFs final : public fsapi::FsClient {
 public:
  TimedFs(fsapi::FsClient& inner, sim::Simulation& sim, LatencyLog& log)
      : inner_(inner), sim_(sim), log_(log) {}

  sim::SimFuture<net::FileId> create(net::DirId dir,
                                     std::string name) override {
    return timed(inner_.create(dir, std::move(name)));
  }
  sim::SimFuture<fsapi::OpenResult> open(net::DirId dir,
                                         std::string name) override {
    return timed(inner_.open(dir, std::move(name)));
  }
  sim::SimFuture<net::Status> write(net::FileId file, std::uint64_t offset,
                                    std::uint32_t nbytes) override {
    return timed(inner_.write(file, offset, nbytes));
  }
  sim::SimFuture<fsapi::ReadResult> read(net::FileId file,
                                         std::uint64_t offset,
                                         std::uint32_t nbytes) override {
    return timed(inner_.read(file, offset, nbytes));
  }
  sim::SimFuture<net::Status> fsync(net::FileId file) override {
    return timed(inner_.fsync(file));
  }
  sim::SimFuture<net::Status> close(net::FileId file) override {
    return timed(inner_.close(file));
  }
  sim::SimFuture<net::Status> remove(net::DirId dir,
                                     std::string name) override {
    return timed(inner_.remove(dir, std::move(name)));
  }
  storage::ContentToken expected_token(net::FileId file,
                                       std::uint64_t block) const override {
    return inner_.expected_token(file, block);
  }

 private:
  template <typename T>
  sim::SimFuture<T> timed(sim::SimFuture<T> f) {
    const SimTime now = sim_.now();
    if (log_.open(now)) {
      if (f.ready()) {
        log_.record(now, now);
      } else {
        (void)sim_.spawn(watch(sim_, f, now, log_));
      }
    }
    return f;
  }

  fsapi::FsClient& inner_;
  sim::Simulation& sim_;
  LatencyLog& log_;
};

// Hands each workload thread a TimedFs over its client; one log per client
// keeps partitions from sharing mutable state under the worker pool.
class TimedWorkload final : public workload::Workload {
 public:
  explicit TimedWorkload(std::unique_ptr<workload::Workload> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  std::uint32_t threads_per_client() const override {
    return inner_->threads_per_client();
  }
  bool fixed_work() const override { return inner_->fixed_work(); }
  void presize(std::uint32_t n) override { inner_->presize(n); }
  sim::Process prepare(sim::Simulation& sim, fsapi::FsClient& fs,
                       std::uint32_t client,
                       workload::WorkloadContext& ctx) override {
    return inner_->prepare(sim, fs, client, ctx);
  }
  sim::Process thread(sim::Simulation& sim, fsapi::FsClient& fs,
                      std::uint32_t client, std::uint32_t tid,
                      workload::WorkloadContext& ctx) override {
    if (client >= fs_.size()) {
      fs_.resize(client + 1);
      logs_.resize(client + 1);
    }
    if (!fs_[client]) {
      logs_[client] = std::make_unique<LatencyLog>();
      fs_[client] = std::make_unique<TimedFs>(fs, sim, *logs_[client]);
    }
    return inner_->thread(sim, *fs_[client], client, tid, ctx);
  }

  void arm(SimTime from, SimTime until) {
    for (auto& l : logs_) {
      if (l) l->arm(from, until);
    }
  }
  [[nodiscard]] std::vector<std::int64_t> samples() const {
    std::vector<std::int64_t> all;
    for (const auto& l : logs_) {
      if (l) all.insert(all.end(), l->samples().begin(), l->samples().end());
    }
    return all;
  }

 private:
  std::unique_ptr<workload::Workload> inner_;
  std::vector<std::unique_ptr<LatencyLog>> logs_;
  std::vector<std::unique_ptr<TimedFs>> fs_;
};

// ---------------------------------------------------------------------------
// One repetition's figures.

struct Result {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  unsigned threads = 1;
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Host clock.
  double setup_s = 0, run_wall_s = 0, run_cpu_s = 0, peak_rss_mib = 0;
  // Simulated clock.
  std::uint64_t ops = 0;
  double sim_ops_per_s = 0;
  perfbench::LatencySummary latency;
  std::map<std::string, double> layer;
  SpanLog spans;
  int root = -1;

  void gate(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

workload::RunOptions window(std::uint64_t seed, int warmup_s, int measure_s) {
  workload::RunOptions o;
  o.warmup = SimTime::seconds(warmup_s);
  o.duration = SimTime::seconds(measure_s);
  o.seed = seed;
  return o;
}

// Observability for the traced run: span tracing plus time-series
// sampling, the same 25 ms grid load_sweep uses.
obs::ObsParams obs_params(bool traced) {
  obs::ObsParams o;
  o.tracing.enabled = traced;
  if (traced) o.sampling.interval = SimTime::millis(25);
  return o;
}

// Drain the delayed-commit pipeline (as bench/mds_scaling does) so that
// the consistency check sees every acknowledged update durable, then run
// the whole-cluster checker.
void drain_and_check(core::Cluster& c, Result& res) {
  const int drain = res.spans.begin("core.drain", res.root);
  bool drained = false;
  for (int spin = 0; spin < 1500 && !drained; ++spin) {
    std::size_t pending = 0;
    for (std::size_t i = 0; i < c.nclients(); ++i) {
      auto& q = c.client(i).commit_queue();
      pending += q.size() + q.in_flight();
    }
    drained = pending == 0;
    if (!drained) c.run_until(c.now() + SimTime::millis(20));
  }
  c.check_failures();
  res.spans.end(drain);
  res.gate(drained, "commit queues did not drain");
  res.layer["core.drain_s"] = res.spans.seconds(drain);

  const int check = res.spans.begin("core.check", res.root);
  const core::ConsistencyReport rep = core::check_consistency(c);
  res.spans.end(check);
  res.gate(rep.consistent(), "whole-cluster consistency check failed");
  res.gate(rep.commits_checked > 0, "consistency check saw no commits");
  res.layer["core.check_s"] = res.spans.seconds(check);
  res.layer["core.commits_checked"] = double(rep.commits_checked);
}

double p99_us(const sim::LatencyHistogram& h) {
  return perfbench::interpolated_percentile_ns(h, 99) / 1e3;
}

// Per-layer figures read from outside after the run: the kernel profile,
// the registry, and public component accessors.
void collect_layers(core::Cluster& c, Result& res) {
  auto& L = res.layer;
  const double ops = double(res.ops);

  // sim: kernel work and where its wall time went.
  const sim::KernelProfile kp = c.domain().kernel_profile();
  const double events = double(kp.events_total());
  L["sim.events_per_op"] = perfbench::ratio(events, ops);
  // Host wall time of the benchmark's calls that advance the simulation, per
  // event: the serial kernel keeps no profile of its own.
  double advancing_ns = 0;
  for (const Span& s : res.spans.spans()) {
    if (s.name == "workload.prepare_warmup" || s.name == "workload.run" ||
        s.name == "core.drain") {
      advancing_ns += double(s.end_ns - s.start_ns);
    }
  }
  L["sim.host_ns_per_event"] = perfbench::ratio(advancing_ns, events);
  L["sim.rounds"] = double(kp.rounds);
  L["sim.events_per_round"] = perfbench::ratio(events, double(kp.rounds));
  L["sim.stall_share"] = perfbench::stall_share(kp);
  std::vector<const sim::Simulation*> clients, shards;
  for (std::size_t i = 0; i < c.nclients(); ++i) clients.push_back(&c.client_sim(i));
  for (std::uint32_t s = 0; s < c.nshards(); ++s) shards.push_back(&c.shard_sim(s));
  const auto roles =
      perfbench::partition_roles(c.domain(), clients, shards, &c.array_sim());
  const auto busy = perfbench::busy_ns_by_role(kp, roles);
  for (std::size_t r = 0; r < perfbench::kRoleCount; ++r) {
    L[std::string("sim.busy_ns.") + perfbench::role_name(perfbench::Role(r))] =
        double(busy[r]);
  }

  const obs::MetricsRegistry& reg = c.obs().registry;
  const perfbench::RegistryRatios rr = perfbench::registry_ratios(reg);

  // client: page cache, commit queue and daemons, flyweight pools.
  L["client.page_cache.hit_ratio"] = rr.page_cache_hit_ratio;
  L["client.page_cache.evictions_per_op"] =
      perfbench::ratio(double(reg.sum("page_cache.evictions")), ops);
  L["client.commit_queue.merge_ratio"] = rr.commit_queue_merge_ratio;
  L["client.commit_pool.degree"] = rr.commit_pool_degree;
  L["client.commit_queue.wait_p99_us"] =
      p99_us(perfbench::merged_histogram(reg, "commit_queue.latency"));
  L["client.page_pool.frames_peak"] = double(reg.sum("page_pool.frames_peak"));
  L["client.commit_slab.peak"] = double(reg.sum("commit_slab.peak"));

  // net: RPC work per op and its round-trip tail.
  L["net.rpcs_per_op"] = perfbench::ratio(double(reg.sum("rpc.calls_sent")), ops);
  L["net.request_bytes_per_op"] =
      perfbench::ratio(double(reg.sum("rpc.request_bytes_sent")), ops);
  L["net.rtt_p99_us"] = p99_us(perfbench::merged_histogram(reg, "rpc.rtt"));
  L["net.retries"] = double(reg.sum("rpc.retries_sent"));

  // mds: commit batching, queueing, journal group commit, shard balance.
  L["mds.commit_entries_per_rpc"] = rr.mds_entries_per_rpc;
  L["mds.journal.records_per_flush"] = rr.journal_records_per_flush;
  double qsum = 0, emax = 0, esum = 0;
  for (std::uint32_t s = 0; s < c.nshards(); ++s) {
    qsum += c.mds(s).queue_gauge().time_weighted_mean(c.now());
    const double e = double(c.mds(s).commit_entries_processed());
    emax = std::max(emax, e);
    esum += e;
  }
  L["mds.queue_len_mean"] = qsum / c.nshards();
  // Busiest shard's commit entries over the per-shard mean (1 = even).
  L["mds.shard_commit_spread"] = perfbench::ratio(emax, esum / c.nshards());

  // storage: the FC array's elevator and spindles, the journal disks.
  storage::DiskArray& arr = c.array();
  double ios = 0, busy_s = 0;
  for (std::uint32_t d = 0; d < arr.ndisks(); ++d) {
    ios += double(arr.disk(d).ios_serviced());
    busy_s += arr.disk(d).busy_time().to_seconds();
  }
  L["storage.merge_ratio"] = arr.merge_ratio();
  L["storage.ios_per_op"] = perfbench::ratio(ios, ops);
  L["storage.disk_busy_share"] =
      perfbench::ratio(busy_s, arr.ndisks() * c.now().to_seconds());
  L["storage.meta_io_p99_us"] =
      p99_us(perfbench::merged_histogram(reg, "io_sched.latency"));
}

// Critical-path blame of a traced run (obs layer).
void collect_blame(core::Cluster& c, Result& res) {
  const int span = res.spans.begin("obs.analyze", res.root);
  obs::CriticalPath blame;
  blame.analyze(c.obs().tracer);
  res.spans.end(span);
  const double total = double(blame.total().total_ns);
  for (std::size_t i = 0; i < obs::kBlameStageCount; ++i) {
    const auto s = obs::BlameStage(i);
    const std::string base = std::string("obs.blame.") + obs::blame_stage_name(s);
    res.layer[base + ".share"] =
        perfbench::ratio(double(blame.stage(s).total_ns), total);
    res.layer[base + ".p99_us"] = p99_us(blame.stage(s).hist);
  }
  res.layer["obs.spans_dropped"] = double(c.obs().tracer.spans_dropped());
  res.gate(blame.roots() == blame.completed() + blame.open_total(),
           "blame accounting does not close");
}

// ---------------------------------------------------------------------------
// Closed-loop workloads on core::Testbed via workload::run_workload.

struct ClosedSpec {
  core::TestbedParams params;
  std::unique_ptr<workload::Workload> workload;
  workload::RunOptions run;
};

void run_closed(ClosedSpec spec, Result& res) {
  TimedWorkload w(std::move(spec.workload));
  res.threads = spec.params.redbud.nthreads;
  const std::int64_t t0 = wall_ns();
  const int setup = res.spans.begin("core.setup", res.root);
  core::Testbed bed(spec.params);
  bed.start();
  res.spans.end(setup);

  int prep = res.spans.begin("workload.prepare_warmup", res.root);
  int run = -1;
  std::int64_t cpu0 = 0;
  workload::RunOptions opt = spec.run;
  opt.on_measure_start = [&] {
    res.spans.end(prep);
    run = res.spans.begin("workload.run", res.root);
    res.setup_s = double(wall_ns() - t0) / 1e9;
    cpu0 = cpu_ns();
    w.arm(bed.now(), bed.now() + opt.duration);
  };
  const workload::WorkloadResult r = workload::run_workload(bed, w, opt);
  const std::int64_t cpu1 = cpu_ns();
  res.spans.end(run);
  res.run_wall_s = res.spans.seconds(run);
  res.run_cpu_s = double(cpu1 - cpu0) / 1e9;

  res.ops = r.ops;
  res.sim_ops_per_s = r.ops_per_sec;
  res.latency = perfbench::summarize(w.samples());
  res.attempted = r.ops + r.op_errors;
  res.failed = r.verify_failures + r.op_errors;
  res.gate(r.verify_failures == 0, "read verification failures");
  res.gate(r.op_errors == 0, "op errors");
  res.gate(r.ops > 0, "no ops completed");
  res.layer["workload.ops.read"] = double(r.read_stats.count);
  res.layer["workload.ops.write"] = double(r.write_stats.count);
  res.layer["workload.ops.meta"] = double(r.meta_stats.count);
  res.layer["workload.ops.fsync"] = double(r.fsync_stats.count);
  res.layer["workload.openloop.peak_outstanding"] = 0;
  res.layer["workload.openloop.shed"] = 0;
  res.layer["workload.completed_over_offered"] = 0;

  core::Cluster& c = *bed.cluster();
  drain_and_check(c, res);
  collect_layers(c, res);
  if (res.traced) collect_blame(c, res);
}

core::TestbedParams paper_dc(bool traced) {
  core::TestbedParams p = bench::paper_testbed(core::Protocol::kRedbudDelayed);
  p.redbud.obs = obs_params(traced);
  return p;
}

// bench/mds_scaling's 8-shard small-file fileserver with 2 worker threads.
void mds8_2t(Result& res) {
  core::TestbedParams p = paper_dc(res.traced);
  p.redbud.nthreads = 2;
  p.nclients = 16;
  p.redbud.array.ndisks = 64;
  p.redbud.nshards = 8;
  p.redbud.space.across_ags = mds::AgSelect::kDeviceStripe;
  p.redbud.partition = core::SpacePartition::kWholeDevices;
  workload::FilebenchParams f;
  f.nfiles_per_client = 150;
  f.threads_per_client = 16;
  f.mean_file_bytes = 8 * 1024;
  f.max_file_bytes = 32 * 1024;
  f.append_bytes = 8 * 1024;
  run_closed({p, std::make_unique<workload::FileserverWorkload>(f),
              window(res.seed, 1, 2)},
             res);
}

// ---------------------------------------------------------------------------
// fleet-knee: bench/load_sweep's 4000 ops/s point, 10^5 flyweight sessions.

void fleet_knee(Result& res) {
  constexpr std::uint32_t kHosts = 8;
  constexpr std::uint32_t kClientsPerHost = 12500;
  constexpr double kOffered = 4000;
  const SimTime t_start = SimTime::seconds(60);  // far past any prepare
  const SimTime t_end = t_start + SimTime::seconds(5);

  const std::int64_t t0 = wall_ns();
  const int setup = res.spans.begin("core.setup", res.root);
  core::ClusterParams p;
  p.nclients = kHosts;
  p.nshards = 4;
  p.nthreads = 1;
  p.force_partitioned = true;
  p.array.ndisks = 4;
  p.array.disk.total_blocks = 1 << 22;
  p.metadata_disk.total_blocks = 1 << 22;
  p.journal.region_blocks = 1 << 16;
  p.client.cache_pages = 1 << 14;
  p.obs = obs_params(res.traced);
  core::Cluster c(p);
  std::vector<std::unique_ptr<client::ClientHost>> hosts;
  std::vector<std::unique_ptr<workload::OpenLoopEngine>> engines;
  sim::Rng master(res.seed);
  for (std::uint32_t h = 0; h < kHosts; ++h) {
    hosts.push_back(std::make_unique<client::ClientHost>(c.client(h), h,
                                                         h * kClientsPerHost));
    hosts.back()->register_metrics(c.obs().registry);
    workload::OpenLoopParams op;
    op.arrivals.kind = workload::ArrivalKind::kPoisson;
    op.arrivals.rate = kOffered / kHosts;
    op.clients = kClientsPerHost;
    op.files_per_client = 1;
    op.write_bytes = 4 << 10;
    op.read_bytes = 4 << 10;
    op.prepare_parallelism = 128;
    engines.push_back(std::make_unique<workload::OpenLoopEngine>(
        c.client_sim(h), *hosts.back(), op, master.split()));
    engines.back()->register_metrics(c.obs().registry, h);
  }
  c.start();
  res.spans.end(setup);

  const int prep = res.spans.begin("workload.prepare_warmup", res.root);
  std::vector<sim::SimFuture<sim::Done>> prepared;
  for (auto& e : engines) prepared.push_back(e->prepare());
  for (auto& e : engines) e->start({t_start, t_start, t_end, t_end});
  c.run_until(t_start);
  c.check_failures();
  res.spans.end(prep);
  for (const auto& f : prepared) res.gate(f.ready(), "prepare did not finish");
  res.setup_s = double(wall_ns() - t0) / 1e9;

  // The measured window, then until every issued op has completed.
  const int run = res.spans.begin("workload.run", res.root);
  const std::int64_t cpu0 = cpu_ns();
  c.run_until(t_end);
  const auto outstanding = [&] {
    std::uint64_t n = 0;
    for (const auto& e : engines) n += e->outstanding();
    return n;
  };
  for (int i = 0; i < 600 && outstanding() > 0; ++i) {
    c.run_until(c.now() + SimTime::millis(100));
  }
  c.check_failures();
  const std::int64_t cpu1 = cpu_ns();
  res.spans.end(run);
  res.run_wall_s = res.spans.seconds(run);
  res.run_cpu_s = double(cpu1 - cpu0) / 1e9;
  res.gate(outstanding() == 0, "open-loop ops still in flight");

  workload::OpClassStats agg[workload::kNumOpClasses];
  std::uint64_t shed = 0, peak_out = 0, prep_fail = 0;
  double span_s = 0;
  for (const auto& e : engines) {
    for (std::size_t i = 0; i < workload::kNumOpClasses; ++i) {
      agg[i].merge(e->stats(workload::OpClass(i)));
    }
    shed += e->shed_total();
    peak_out += e->peak_outstanding();
    prep_fail += e->prepare_failures();
    span_s = e->measured_span().to_seconds();
  }
  sim::LatencyHistogram all;
  std::uint64_t failed = 0, issued = 0;
  for (const auto& s : agg) {
    all.merge(s.latency);
    failed += s.failed;
    issued += s.issued;
  }
  res.ops = all.count();
  res.sim_ops_per_s = perfbench::ratio(double(res.ops), span_s);
  // The engine keeps only its log-bucketed histogram, so its percentiles
  // are interpolated inside their bucket.
  const auto pct = [&](double p) {
    return std::int64_t(perfbench::interpolated_percentile_ns(all, p));
  };
  res.latency.samples = all.count();
  res.latency.p50_ns = pct(50);
  res.latency.p99_ns = pct(99);
  res.latency.tail_p = perfbench::highest_supported_percentile(all.count());
  res.latency.tail_ns = res.latency.tail_p > 0 ? pct(res.latency.tail_p) : 0;
  res.attempted = issued + shed;
  res.failed = failed + shed + prep_fail;
  res.gate(failed == 0, "open-loop ops failed");
  res.gate(shed == 0, "open-loop arrivals shed");
  res.gate(prep_fail == 0, "population files failed to prepare");
  res.gate(c.obs().registry.sum("client_host.sessions_live") ==
               std::uint64_t(kHosts) * kClientsPerHost,
           "live session count differs from the fleet size");

  using workload::OpClass;
  const auto cls = [&](OpClass k) {
    return double(agg[std::size_t(k)].latency.count());
  };
  res.layer["workload.ops.read"] = cls(OpClass::kRead);
  res.layer["workload.ops.write"] = cls(OpClass::kWrite);
  res.layer["workload.ops.meta"] = cls(OpClass::kCreate) + cls(OpClass::kRemove);
  res.layer["workload.ops.fsync"] = cls(OpClass::kFsync);
  res.layer["workload.openloop.peak_outstanding"] = double(peak_out);
  res.layer["workload.openloop.shed"] = double(shed);
  res.layer["workload.completed_over_offered"] =
      perfbench::ratio(res.sim_ops_per_s, kOffered);

  drain_and_check(c, res);
  collect_layers(c, res);
  if (res.traced) collect_blame(c, res);
}

// ---------------------------------------------------------------------------
// Output.

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_json(const Result& r, const std::string& run_id) {
  std::ostringstream o;
  o << "{\"workload\": " << json_string(r.workload) << ", \"seed\": " << r.seed
    << ", \"traced\": " << (r.traced ? "true" : "false")
    << ", \"threads\": " << r.threads
    << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
    << ", \"run_id\": " << json_string(run_id)
    << ", \"correct\": " << (r.failures.empty() ? "true" : "false")
    << ", \"failures\": [";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    o << (i ? ", " : "") << json_string(r.failures[i]);
  }
  o << "], \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
    << ", \"host\": {\"setup_s\": " << num(r.setup_s)
    << ", \"run_wall_s\": " << num(r.run_wall_s)
    << ", \"run_cpu_s\": " << num(r.run_cpu_s)
    << ", \"peak_rss_mib\": " << num(r.peak_rss_mib) << "}"
    << ", \"sim\": {\"ops\": " << r.ops
    << ", \"sim_ops_per_s\": " << num(r.sim_ops_per_s)
    << ", \"sim_p50_us\": " << num(double(r.latency.p50_ns) / 1e3)
    << ", \"sim_p99_us\": " << num(double(r.latency.p99_ns) / 1e3)
    << ", \"latency_samples\": " << r.latency.samples
    << ", \"tail_p\": " << num(r.latency.tail_p)
    << ", \"tail_us\": " << num(double(r.latency.tail_ns) / 1e3) << "}"
    << ", \"layer\": {";
  bool first = true;
  for (const auto& [k, v] : r.layer) {
    o << (first ? "" : ", ") << json_string(k) << ": " << num(v);
    first = false;
  }
  o << "}, \"spans\": [";
  for (std::size_t i = 0; i < r.spans.spans().size(); ++i) {
    const Span& s = r.spans.spans()[i];
    o << (i ? ", " : "") << "{\"name\": " << json_string(s.name)
      << ", \"parent\": " << s.parent << ", \"start_ns\": " << s.start_ns
      << ", \"end_ns\": " << s.end_ns << "}";
  }
  o << "]}";
  std::cout << o.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  Result res;
  std::string run_id;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--workload" && i + 1 < argc) {
      res.workload = argv[++i];
    } else if (a == "--seed" && i + 1 < argc) {
      res.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (a == "--run-id" && i + 1 < argc) {
      run_id = argv[++i];
    } else if (a == "--trace") {
      res.traced = true;
    } else {
      std::cerr << "unknown argument '" << a << "'\n";
      return 2;
    }
  }
  const std::map<std::string, void (*)(Result&)> workloads = {
      {"fleet-knee", fleet_knee},
      {"mds8-2t", mds8_2t},
  };
  const auto it = workloads.find(res.workload);
  if (it == workloads.end() || !have_seed) {
    std::cerr << "usage: perfbench_rep --workload "
                 "<fleet-knee|mds8-2t> --seed <n> "
                 "[--trace] [--run-id <id>]\n";
    return 2;
  }
  res.root = res.spans.begin("workload." + res.workload, -1);
  it->second(res);
  res.spans.end(res.root);
  res.peak_rss_mib = double(bench::read_proc_mem().vm_hwm_kb) / 1024.0;
  res.gate(res.latency.p99_supported(),
           "fewer than ten latency samples beyond p99");
  print_json(res, run_id);
  return res.failures.empty() ? 0 : 1;
}
