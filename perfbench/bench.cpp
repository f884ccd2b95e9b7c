// Repository benchmark driver. Runs one named workload through the public
// entry points (core::run_production, core::run_controlled,
// core::TrialRunner, campaign::Runner), checks every trial against the
// correctness gate, and prints one JSON report as the last line of stdout.
// perfbench/run.py builds this program and turns the report into the
// benchmark's result line; perfbench/README.md explains the workloads, the
// metrics and which layer metric should move which end-to-end metric.
//
//   dfsim_perfbench --workload prod_milc|ctrl_a2a|campaign_faults
//                   --seed N --seconds S --trace 0|1 --work-dir DIR
//                   [--event-budget N] [--git-commit SHA]
//
// --trace 0 measures the end-to-end metrics. --trace 1 re-runs the workload
// with per-event profiling and spans around each layer call, times small
// per-layer loops, and reports the per-layer metrics. End-to-end numbers are
// only ever taken from untraced passes.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/cache.hpp"
#include "campaign/fingerprint.hpp"
#include "campaign/runner.hpp"
#include "campaign/serialize.hpp"
#include "core/experiment.hpp"
#include "core/runner.hpp"
#include "fault/fault.hpp"
#include "monitor/ldms.hpp"
#include "mpi/collectives.hpp"
#include "mpi/machine.hpp"
#include "mpi/rank.hpp"
#include "net/network.hpp"
#include "routing/adaptive.hpp"
#include "sched/scheduler.hpp"
#include "sim/engine.hpp"
#include "sim/hash.hpp"
#include "sim/rng.hpp"
#include "topo/topology.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_COMPILER_ID
#define PERFBENCH_COMPILER_ID "unknown"
#endif

namespace fs = std::filesystem;
using namespace dfsim;

namespace {

using Clock = std::chrono::steady_clock;

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --- spans -----------------------------------------------------------------

// In-memory spans around calls into each layer, recorded only in traced
// runs and written into the report when the run ends. Parents are explicit
// because trials of one batch record from several worker threads.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), t0_(Clock::now()) {}

  int open(const std::string& name, int parent) {
    if (!on_) return -1;
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, parent, secs_since(t0_), -1.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    if (id < 0) return;
    const double t = secs_since(t0_);
    const std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = t;
  }

  class Scope {
   public:
    Scope(Tracer& t, const std::string& name, int parent = -1)
        : t_(t), id_(t.open(name, parent)) {}
    ~Scope() { t_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] int id() const { return id_; }

   private:
    Tracer& t_;
    int id_;
  };

  /// Per span name: count, total seconds, and self seconds (total minus
  /// the time covered by direct children).
  [[nodiscard]] std::string summary_json() const {
    struct Agg {
      int count = 0;
      double total = 0.0;
      double self = 0.0;
    };
    std::map<std::string, Agg> by_name;
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (s.parent >= 0 && s.end >= 0.0)
        child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.end < 0.0) continue;
      Agg& a = by_name[s.name];
      ++a.count;
      a.total += s.end - s.start;
      a.self += std::max(0.0, s.end - s.start - child[i]);
    }
    std::string out = "{";
    bool first = true;
    for (const auto& [name, a] : by_name) {
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "%s\"%s\": {\"count\": %d, \"total_s\": %.6f, "
                    "\"self_s\": %.6f}",
                    first ? "" : ", ", name.c_str(), a.count, a.total, a.self);
      out += buf;
      first = false;
    }
    return out + "}";
  }

 private:
  struct Span {
    std::string name;
    int parent;
    double start;
    double end;
  };
  bool on_;
  Clock::time_point t0_;
  std::mutex mu_;
  std::vector<Span> spans_;
};

// --- workload inputs -------------------------------------------------------

// Scaled Theta (12 groups, 1152 nodes) on the Aries dragonfly, with the
// 4 KB simulation packets and buffer depth every paper bench uses. The
// topology kind and the substrate are set explicitly so the DFSIM_TEST_*
// environment knobs cannot change what the benchmark measures.
topo::Config bench_system() {
  topo::Config c = topo::Config::theta_scaled();
  c.kind = topo::TopologyKind::kDragonfly;
  c.packet_payload_bytes = 4096;
  c.buffer_flits = 2048;
  return c;
}

apps::AppParams app_params(int iterations, double scale, double msg_factor,
                           std::uint64_t seed) {
  apps::AppParams p;
  p.iterations = iterations;
  p.msg_scale = scale * msg_factor;
  p.compute_scale = scale;
  p.seed = seed;
  return p;
}

enum class Kind { kProduction, kControlled, kCampaign };

struct Workload {
  std::string name;
  Kind kind = Kind::kProduction;
  std::vector<core::ScenarioConfig> trials;  ///< one pass, in order
  std::vector<std::string> labels;
  int jobs = 1;  ///< TrialRunner width (ctrl_a2a only)
};

// Production snapshot. Which background jobs run, and where, changes the
// work of a production trial several-fold between scenario seeds (MILC
// pairs took 1.5 to 9.6 s at seeds 11-15), which no median over passes can
// absorb. So the production workloads pin the machine state to the seed
// every paper bench defaults to, and the workload seed varies what a user
// of that machine would see vary: the instant the app under test is
// submitted (prod_milc) and which links fail (campaign_faults).
constexpr std::uint64_t kSnapshotSeed = 2021;

// prod_milc: one production trial each of MILC under AD0 and AD3 at 256
// nodes beside a 70% synthetic background (the Fig. 2/7 condition), serial
// engine, one thread. Latency-bound: small halos and 8 B allreduces. The
// app is submitted 300 to 320 us into the background's run.
constexpr double kProdScale = 0.1;
// ctrl_a2a: fig09's controlled full-system reservations for the two
// bisection-bound apps, fanned out over a TrialRunner. Message volume is
// aggregated per node like fig09 (x6), at a scale that fits one pass into a
// few seconds on four hardware threads.
constexpr double kCtrlScale = 0.004;
// campaign_faults: single-shard production cells with link faults.
constexpr double kCampScale = 0.02;
constexpr int kCampNodes = 128;
constexpr double kCampBackground = 0.3;

Workload make_workload(const std::string& name, std::uint64_t seed,
                       std::uint64_t event_budget) {
  Workload w;
  w.name = name;
  const topo::Config sys = bench_system();
  if (name == "prod_milc") {
    w.kind = Kind::kProduction;
    for (const routing::Mode m : {routing::Mode::kAd0, routing::Mode::kAd3}) {
      core::ScenarioConfig c = core::ScenarioConfig::production();
      c.system = sys;
      c.app = "MILC";
      c.nnodes = 256;
      c.mode = m;
      c.params = app_params(1, kProdScale, 1.0, seed);
      c.bg_utilization = 0.7;
      c.bg_mode = routing::Mode::kAd0;
      c.warmup = 300 * sim::kMicrosecond +
                 static_cast<sim::Tick>(sim::Rng(seed).uniform_u64(
                     20 * sim::kMicrosecond));
      c.seed = kSnapshotSeed;
      c.shards = 0;
      w.trials.push_back(c);
      w.labels.push_back(std::string("MILC/") + std::string(routing::mode_name(m)));
    }
  } else if (name == "ctrl_a2a") {
    w.kind = Kind::kControlled;
    w.jobs = core::resolve_jobs(0);  // one worker per hardware thread
    for (const char* app : {"HACC", "RAYLEIGH"}) {
      for (int m = 0; m < routing::kNumModes; ++m) {
        for (const sched::Placement pl :
             {sched::Placement::kCompact, sched::Placement::kRandom}) {
          core::ScenarioConfig c = core::ScenarioConfig::controlled();
          c.system = sys;
          c.app = app;
          c.nnodes = 256;
          c.njobs = std::max(2, sys.num_nodes() / c.nnodes);
          c.mode = static_cast<routing::Mode>(m);
          c.params = app_params(app == std::string("HACC") ? 2 : 1,
                                kCtrlScale, 6.0, seed);
          c.placement = pl;
          c.seed = seed;  // same placements for every mode, as in fig09
          c.shards = 0;
          w.trials.push_back(c);
          w.labels.push_back(std::string(app) + "/" +
                             std::string(routing::mode_name(c.mode)) + "/" +
                             std::string(sched::placement_name(pl)));
        }
      }
    }
  } else if (name == "campaign_faults") {
    w.kind = Kind::kCampaign;
    for (const char* app : {"MILC", "NEK5000", "QBOX", "HACC"}) {
      for (const double frac : {0.0, 0.02}) {
        fault::FaultPlan plan;
        if (frac > 0.0) {
          fault::RandomFaultSpec spec;
          spec.seed = seed;
          spec.link_fail_fraction = frac;
          spec.window_begin = 400 * sim::kMicrosecond;
          spec.window_end = spec.window_begin;
          plan = fault::FaultPlan::random(sys, spec);
        }
        for (const sched::Placement pl :
             {sched::Placement::kRandom, sched::Placement::kCompact}) {
          for (const routing::Mode m :
               {routing::Mode::kAd0, routing::Mode::kAd3}) {
            core::ScenarioConfig c = core::ScenarioConfig::production();
            c.system = sys;
            c.app = app;
            c.nnodes = kCampNodes;
            c.mode = m;
            c.params = app_params(c.app == "HACC" ? 2 : 3, kCampScale,
                                  1.0, seed);
            c.bg_utilization = kCampBackground;
            c.warmup = 100 * sim::kMicrosecond;
            c.placement = pl;
            c.seed = kSnapshotSeed;
            c.shards = 1;
            c.shard_workers = 1;
            c.faults = plan;
            w.trials.push_back(c);
            w.labels.push_back(std::string(app) + "/" +
                               std::string(routing::mode_name(m)) + "/fault=" +
                               (frac > 0.0 ? "2%" : "0%") + "/" +
                               std::string(sched::placement_name(pl)));
          }
        }
      }
    }
  } else {
    throw std::invalid_argument("unknown workload \"" + name + "\"");
  }
  for (core::ScenarioConfig& c : w.trials) c.event_budget = event_budget;
  return w;
}

// --- per-trial record and the correctness gate ------------------------------

struct Trial {
  bool ok = false;
  std::string fail_reason;
  bool budget_exhausted = false;
  std::uint64_t events = 0;
  net::NetworkStats net;
  fault::FaultStats faults;
  std::int64_t mpi_calls = 0;
  std::int64_t mpi_bytes = 0;
  double mpi_ns = 0.0;       ///< MPI time summed over ranks
  double rank_ns = 0.0;      ///< ranks x runtime
  int bg_jobs = 0;
  double bg_util = 0.0;
  std::size_t ldms_samples = 0;
  core::ShardExecStats shard;
  sim::Hash128 digest;
  double wall_s = 0.0;  ///< host wall time (0 where the entry point hides it)
};

void add_profile(Trial& t, const mpi::Profile& p) {
  for (int op = 0; op < mpi::kNumOps; ++op) {
    const mpi::OpStats& s = p.stats(static_cast<mpi::Op>(op));
    t.mpi_calls += s.calls;
    t.mpi_bytes += s.bytes;
  }
  t.mpi_ns += static_cast<double>(p.total_mpi_ns());
}

Trial from_run(const core::RunResult& r) {
  Trial t;
  t.ok = r.ok;
  t.fail_reason = r.fail_reason;
  t.budget_exhausted = r.budget_exhausted;
  t.events = r.events_executed;
  t.net = r.netstats;
  t.faults = r.faults;
  add_profile(t, r.autoperf.profile);
  t.rank_ns = static_cast<double>(r.autoperf.nranks) * r.runtime_ms * 1e6;
  t.bg_jobs = r.background.jobs;
  t.bg_util = r.background.achieved_utilization;
  t.shard = r.shard_exec;
  t.digest = campaign::result_digest(r);
  return t;
}

Trial from_ensemble(const core::EnsembleResult& r) {
  Trial t;
  t.ok = r.ok;
  t.fail_reason = r.fail_reason;
  t.budget_exhausted = r.budget_exhausted;
  t.events = r.events_executed;
  t.net = r.netstats;
  t.faults = r.faults;
  t.ldms_samples = r.ldms.size();
  t.digest = campaign::result_digest(r);
  return t;
}

// Empty when the trial passes. A trial that ends while the app under test
// completes still has trailing response packets (and, in production, the
// background's traffic) in flight, so the entry points' counters can only
// be checked for delivered <= injected; exact conservation is checked on a
// drained replica (drain_check below).
std::string gate(const Trial& t) {
  if (!t.ok) return "trial failed: " + t.fail_reason;
  if (t.budget_exhausted) return "event budget exhausted";
  if (t.net.packets_delivered <= 0) return "no packets delivered";
  if (t.net.packets_delivered > t.net.packets_injected)
    return "more packets delivered than injected";
  if (t.faults.dead_link_transmissions != 0)
    return "packet committed onto a dead link";
  return {};
}

// --- one pass of a workload -------------------------------------------------

struct Pass {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double warm_s = 0.0;
  int jobs = 1;  ///< trial workers of the pass
  std::vector<Trial> trials;
  sim::Hash128 digest;  ///< over the trial digests (and journal bytes)
  std::uint64_t events = 0;
  net::EventProfile profile;
  // Cache round trip of the pass's results.
  std::vector<double> store_ms;
  std::vector<double> load_us;
  double warm_hit_rate = 0.0;
  int cells_executed = 0;
  int cells_served = 0;
  std::vector<std::string> check_failures;

  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

campaign::ResultCache open_cache(const fs::path& dir) {
  campaign::ResultCache::Options o;
  o.dir = dir.string();
  return campaign::ResultCache(o);
}

// Commit every result of the pass into a fresh cache directory, timing each
// store (fsync included), then load each one back through a fresh cache
// (disk read and validation), timing each load.
void cache_round_trip(Pass& p, const std::vector<campaign::Fingerprint>& fps,
                      const std::vector<std::vector<std::uint8_t>>& payloads,
                      const fs::path& dir) {
  {
    campaign::ResultCache cache = open_cache(dir);
    for (std::size_t i = 0; i < fps.size(); ++i) {
      const auto t0 = Clock::now();
      cache.store(fps[i], payloads[i]);
      p.store_ms.push_back(1e3 * secs_since(t0));
    }
  }
  campaign::ResultCache cache = open_cache(dir);
  for (std::size_t i = 0; i < fps.size(); ++i) {
    const auto t0 = Clock::now();
    const auto bytes = cache.load(fps[i]);
    p.load_us.push_back(1e6 * secs_since(t0));
    p.check(bytes.has_value() && *bytes == payloads[i],
            "cache entry did not round-trip");
  }
}

void finish_digest(Pass& p, const std::string& extra = {}) {
  sim::Hasher128 h;
  for (const Trial& t : p.trials) {
    h.update_u64(t.digest.hi);
    h.update_u64(t.digest.lo);
    p.events += t.events;
  }
  h.update(extra);
  p.digest = h.finalize();
}

// A warm pass is short next to the timer and file-system noise, so it is
// repeated (each time over a fresh cache) and its median reported.
template <class Once>
double warm_median(Once&& once) {
  std::vector<double> samples;
  const auto t0 = Clock::now();
  while (samples.size() < 5 || (secs_since(t0) < 0.2 && samples.size() < 100))
    samples.push_back(once());
  return median(samples);
}

Pass production_pass(const Workload& w, const fs::path& dir, Tracer& tr,
                     bool traced) {
  Pass p;
  const Tracer::Scope pass_span(tr, "pass");
  std::vector<core::RunResult> results;
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  for (const core::ScenarioConfig& cfg : w.trials) {
    core::ScenarioConfig c = cfg;
    if (traced) c.event_profile = &p.profile;
    const auto tt = Clock::now();
    const Tracer::Scope s(tr, "core.run_production", pass_span.id());
    results.push_back(core::run_production(c));
    p.trials.push_back(from_run(results.back()));
    p.trials.back().wall_s = secs_since(tt);
  }
  p.wall_s = secs_since(t0);
  p.cpu_s = cpu_seconds() - cpu0;
  finish_digest(p);

  std::vector<campaign::Fingerprint> fps;
  std::vector<std::vector<std::uint8_t>> payloads;
  for (std::size_t i = 0; i < results.size(); ++i) {
    fps.push_back(campaign::scenario_fingerprint(w.trials[i].resolve()));
    payloads.push_back(campaign::serialize(results[i]));
  }
  cache_round_trip(p, fps, payloads, dir);
  // Warm pass: the public cached entry point over a fresh cache, so every
  // trial is served from disk.
  p.warm_s = warm_median([&] {
    campaign::ResultCache warm = open_cache(dir);
    const auto tw = Clock::now();
    std::vector<campaign::CachedRun> served;
    {
      const Tracer::Scope s(tr, "campaign.warm", pass_span.id());
      for (const core::ScenarioConfig& cfg : w.trials)
        served.push_back(campaign::run_cached_production(cfg, warm));
    }
    const double t = secs_since(tw);
    bool same = true;
    for (std::size_t i = 0; i < served.size(); ++i)
      same = same && served[i].from_cache &&
             campaign::result_digest(served[i].result) == p.trials[i].digest;
    p.check(same, "warm pass did not serve every trial identically");
    p.warm_hit_rate = warm.stats().hit_rate();
    return t;
  });
  return p;
}

// --- traced replicas --------------------------------------------------------

// run_controlled rebuilt from its public building blocks, so the traced run
// can attach an event profile, read per-job MPI profiles and time each
// layer. Its result digest must equal the entry point's.
core::EnsembleResult traced_controlled(const core::ScenarioConfig& cfg,
                                       net::EventProfile& prof, Trial& mpi,
                                       Tracer& tr, int parent) {
  const Tracer::Scope trial_span(tr, "core.controlled_trial", parent);
  core::EnsembleResult res;
  std::optional<sched::Scheduler> sched;
  {
    const Tracer::Scope s(tr, "sched.construct", trial_span.id());
    sched.emplace(cfg.system, cfg.seed, cfg.shards, cfg.shard_workers);
  }
  mpi::Machine& machine = sched->machine();
  machine.set_event_budget(cfg.event_budget);
  machine.network().apply_fault_plan(cfg.faults);
  machine.network().set_event_profile(&prof);
  std::vector<mpi::JobId> ids;
  {
    const Tracer::Scope s(tr, "sched.submit_app", trial_span.id());
    for (int j = 0; j < cfg.njobs; ++j) {
      const mpi::JobId id = sched->submit_app(
          cfg.app, cfg.nnodes, cfg.placement, cfg.mode, cfg.params,
          cfg.target_groups);
      if (id < 0) break;
      ids.push_back(id);
    }
  }
  if (ids.empty()) {
    res.fail_reason = "allocation failed";
    return res;
  }
  monitor::LdmsSampler ldms(machine.network(), cfg.ldms_period);
  ldms.start();
  bool completed = false;
  {
    const Tracer::Scope s(tr, "sim.run_to_completion", trial_span.id());
    completed = machine.run_to_completion(ids);
  }
  res.events_executed = machine.events_executed();
  res.budget_exhausted = machine.budget_exhausted();
  res.faults = machine.network().fault_stats();
  if (!completed) {
    res.fail_reason = res.budget_exhausted ? "event budget exhausted"
                                           : "run stopped before completion";
    return res;
  }
  const Tracer::Scope s(tr, "monitor.collect", trial_span.id());
  res.ok = true;
  for (const mpi::JobId id : ids) {
    res.runtimes_ms.push_back(sim::to_ms(machine.job(id).runtime()));
    add_profile(mpi, machine.job_profile(id));
    mpi.rank_ns += static_cast<double>(machine.job(id).spec.nodes.size()) *
                   static_cast<double>(machine.job(id).runtime());
  }
  res.total = machine.network().snapshot_all();
  res.ldms = ldms.samples();
  res.tiles = monitor::per_tile_counters(machine.network());
  res.netstats = machine.network().stats();
  res.flit_times = machine.network().flit_times();
  return res;
}

Pass controlled_pass(const Workload& w, const fs::path& dir, Tracer& tr,
                     bool traced) {
  Pass p;
  const Tracer::Scope pass_span(tr, "pass");
  const int n = static_cast<int>(w.trials.size());
  std::vector<double> wall(static_cast<std::size_t>(n), 0.0);
  std::vector<net::EventProfile> profs(static_cast<std::size_t>(n));
  std::vector<Trial> mpi(static_cast<std::size_t>(n));
  core::TrialRunner runner(w.jobs);
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  std::vector<core::EnsembleResult> results = runner.map(n, [&](int i) {
    const auto k = static_cast<std::size_t>(i);
    const auto tt = Clock::now();
    core::EnsembleResult r;
    if (traced) {
      r = traced_controlled(w.trials[k], profs[k], mpi[k], tr, pass_span.id());
    } else {
      r = core::run_controlled(w.trials[k]);
    }
    wall[k] = secs_since(tt);
    return r;
  });
  p.wall_s = secs_since(t0);
  p.cpu_s = cpu_seconds() - cpu0;
  p.jobs = runner.jobs();
  for (int i = 0; i < n; ++i) {
    const auto k = static_cast<std::size_t>(i);
    Trial t = from_ensemble(results[k]);
    t.wall_s = wall[k];
    t.mpi_calls = mpi[k].mpi_calls;
    t.mpi_bytes = mpi[k].mpi_bytes;
    t.mpi_ns = mpi[k].mpi_ns;
    t.rank_ns = mpi[k].rank_ns;
    p.trials.push_back(t);
    for (int e = 0; e < net::kNumEventKinds; ++e) {
      p.profile.count[e] += profs[k].count[e];
      p.profile.wall_ns[e] += profs[k].wall_ns[e];
    }
  }
  finish_digest(p);

  std::vector<campaign::Fingerprint> fps;
  std::vector<std::vector<std::uint8_t>> payloads;
  for (int i = 0; i < n; ++i) {
    const auto k = static_cast<std::size_t>(i);
    fps.push_back(campaign::scenario_fingerprint(w.trials[k].resolve()));
    payloads.push_back(campaign::serialize(results[k]));
  }
  cache_round_trip(p, fps, payloads, dir);
  // Warm pass: there is no cached entry point for controlled runs, so serve
  // them the way one would: load, validate, deserialize.
  p.warm_s = warm_median([&] {
    campaign::ResultCache warm = open_cache(dir);
    const auto tw = Clock::now();
    std::vector<sim::Hash128> served;
    {
      const Tracer::Scope s(tr, "campaign.warm", pass_span.id());
      for (const campaign::Fingerprint& fp : fps) {
        const auto bytes = warm.load(fp);
        served.push_back(bytes ? campaign::result_digest(
                                     campaign::deserialize_ensemble_result(*bytes))
                               : sim::Hash128{});
      }
    }
    const double t = secs_since(tw);
    bool same = true;
    for (std::size_t i = 0; i < served.size(); ++i)
      same = same && served[i] == p.trials[i].digest;
    p.check(same, "warm pass did not serve every trial identically");
    p.warm_hit_rate = warm.stats().hit_rate();
    return t;
  });
  return p;
}

Pass campaign_pass(const Workload& w, const fs::path& dir, Tracer& tr) {
  Pass p;
  const Tracer::Scope pass_span(tr, "pass");
  std::vector<campaign::SweepCell> cells;
  for (std::size_t i = 0; i < w.trials.size(); ++i)
    cells.push_back({w.trials[i], w.labels[i]});
  const fs::path cache_dir = dir / "cache";
  campaign::RunnerOptions ro;
  ro.cell_jobs = 1;

  ro.out_path = (dir / "cold.jsonl").string();
  campaign::Runner::Outcome cold;
  {
    campaign::ResultCache cache = open_cache(cache_dir);
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    {
      const Tracer::Scope s(tr, "campaign.runner.cold", pass_span.id());
      campaign::Runner runner(cells, cache, ro);
      cold = runner.run();
    }
    p.wall_s = secs_since(t0);
    p.cpu_s = cpu_seconds() - cpu0;
  }

  p.cells_executed = cold.executed;
  const std::string cold_journal = read_file(dir / "cold.jsonl");
  p.check(cold.ok && cold.executed == cold.total && !cold_journal.empty(),
          "cold pass did not execute every cell: " + cold.error);

  // Warm pass: a fresh ResultCache on the same directory, so every cell is
  // served from disk; each warm journal must equal the cold one byte for
  // byte.
  int warm_runs = 0;
  p.warm_s = warm_median([&] {
    const fs::path journal = dir / ("warm" + std::to_string(warm_runs++) + ".jsonl");
    ro.out_path = journal.string();
    campaign::ResultCache cache = open_cache(cache_dir);
    campaign::Runner::Outcome warm;
    const auto t0 = Clock::now();
    {
      const Tracer::Scope s(tr, "campaign.runner.warm", pass_span.id());
      campaign::Runner runner(cells, cache, ro);
      warm = runner.run();
    }
    const double t = secs_since(t0);
    p.warm_hit_rate = cache.stats().hit_rate();
    p.cells_served = warm.served;
    p.check(warm.ok && warm.served == warm.total && p.warm_hit_rate == 1.0,
            "warm pass did not serve every cell from the cache");
    p.check(read_file(journal) == cold_journal, "cold and warm journals differ");
    fs::remove(journal);
    return t;
  });

  // The Runner reports only counts; read each cell's full result back from
  // the cold pass's cache for the gate and the equal-work record.
  campaign::ResultCache reader = open_cache(cache_dir);
  std::vector<campaign::Fingerprint> fps;
  std::vector<std::vector<std::uint8_t>> payloads;
  for (const core::ScenarioConfig& cfg : w.trials) {
    fps.push_back(campaign::scenario_fingerprint(cfg.resolve()));
    auto bytes = reader.load(fps.back());
    if (bytes) {
      p.trials.push_back(from_run(campaign::deserialize_run_result(*bytes)));
      payloads.push_back(std::move(*bytes));
    } else {
      Trial missing;
      missing.fail_reason = "no cache entry for cell";
      p.trials.push_back(missing);
      payloads.emplace_back();
    }
  }
  finish_digest(p, cold_journal);
  cache_round_trip(p, fps, payloads, dir / "roundtrip");
  return p;
}

// --- drained replica ---------------------------------------------------------

// Conservation on a drained network: replay the workload's first trial (the
// first faulted cell for campaign_faults) from the public scheduler calls,
// confirm it is the simulation the entry point ran (same events and packet
// counters at completion), then stop the background, let every in-flight
// packet land, and require injected == delivered (with faults: delivered <=
// injected <= delivered + dropped).
std::string drain_check(const Workload& w, const Pass& first, Tracer& tr) {
  std::size_t k = 0;
  if (w.kind == Kind::kCampaign)
    while (k + 1 < w.trials.size() && w.trials[k].faults.empty()) ++k;
  const core::ScenarioConfig cfg = w.trials[k].resolve();
  const Trial& ref = first.trials[k];
  const Tracer::Scope span(tr, "drain_check");

  std::optional<sched::Scheduler> sched;
  {
    const Tracer::Scope s(tr, "sched.construct", span.id());
    sched.emplace(cfg.system, cfg.seed, cfg.shards, cfg.shard_workers);
  }
  mpi::Machine& machine = sched->machine();
  machine.set_event_budget(cfg.event_budget);
  machine.network().apply_fault_plan(cfg.faults);
  std::vector<mpi::JobId> watch;
  sched::BackgroundSet bg;
  if (w.kind == Kind::kControlled) {
    const Tracer::Scope s(tr, "sched.submit_app", span.id());
    for (int j = 0; j < cfg.njobs; ++j) {
      const mpi::JobId id = sched->submit_app(cfg.app, cfg.nnodes,
                                              cfg.placement, cfg.mode,
                                              cfg.params, cfg.target_groups);
      if (id < 0) break;
      watch.push_back(id);
    }
  } else {
    std::vector<topo::NodeId> nodes;
    {
      const Tracer::Scope s(tr, "sched.allocate", span.id());
      nodes = sched->allocator().allocate(cfg.nnodes, cfg.placement,
                                          sched->rng(), cfg.target_groups);
    }
    if (nodes.empty()) return "drain check: allocation failed";
    {
      const Tracer::Scope s(tr, "sched.add_background", span.id());
      bg = sched->add_background(cfg.bg_utilization, cfg.bg_mode,
                                 cfg.bg_placement);
    }
    {
      const Tracer::Scope s(tr, "sim.warmup", span.id());
      machine.run_for(cfg.warmup);
    }
    const Tracer::Scope s(tr, "mpi.submit", span.id());
    watch.push_back(sched->submit_app_on(cfg.app, std::move(nodes), cfg.mode,
                                         cfg.params));
  }
  std::optional<monitor::LdmsSampler> ldms;
  if (w.kind == Kind::kControlled) {
    ldms.emplace(machine.network(), cfg.ldms_period);
    ldms->start();
  }
  {
    const Tracer::Scope s(tr, "sim.run_to_completion", span.id());
    if (!machine.run_to_completion(watch))
      return "drain check: replica did not complete";
  }
  const net::NetworkStats at_end = machine.network().stats();
  if (machine.events_executed() != ref.events ||
      at_end.packets_injected != ref.net.packets_injected ||
      at_end.packets_delivered != ref.net.packets_delivered ||
      at_end.total_hops != ref.net.total_hops)
    return "drain check: replica of trial " + std::to_string(k) +
           " diverged from the entry point";

  const Tracer::Scope s(tr, "sim.drain", span.id());
  if (ldms) ldms->stop();
  if (!bg.jobs.empty()) sched->stop_background(bg);
  machine.run_until_stopped();
  if (machine.budget_exhausted()) return "drain check: drain hit the budget";
  const net::NetworkStats st = machine.network().stats();
  const std::int64_t dropped = machine.network().fault_stats().packets_dropped;
  // Every injected packet is delivered or dropped. Drops before injection
  // are not reported separately, so with faults the identity is a bound.
  const bool exact = dropped == 0;
  if (st.packets_delivered > st.packets_injected ||
      st.packets_injected > st.packets_delivered + dropped ||
      (exact && st.packets_injected != st.packets_delivered))
    return "drain check: " + std::to_string(st.packets_injected) +
           " packets injected, " + std::to_string(st.packets_delivered) +
           " delivered, " + std::to_string(dropped) + " dropped";
  return {};
}

// --- set-up time ------------------------------------------------------------

// Host time before a trial's first event, by replaying the public set-up
// calls each entry point makes: Scheduler construction (topology tables,
// RoutePlanner, Network, Machine), fault-plan installation, the foreground
// allocation(s) and the background fill. Returns seconds for the whole pass.
double setup_replay(const Workload& w) {
  const auto t0 = Clock::now();
  for (const core::ScenarioConfig& raw : w.trials) {
    const core::ScenarioConfig cfg = raw.resolve();
    sched::Scheduler sched(cfg.system, cfg.seed, cfg.shards, cfg.shard_workers);
    sched.machine().network().apply_fault_plan(cfg.faults);
    if (w.kind == Kind::kControlled) {
      for (int j = 0; j < cfg.njobs; ++j)
        if (sched.allocator()
                .allocate(cfg.nnodes, cfg.placement, sched.rng(),
                          cfg.target_groups)
                .empty())
          break;
    } else {
      (void)sched.allocator().allocate(cfg.nnodes, cfg.placement, sched.rng(),
                                       cfg.target_groups);
      (void)sched.add_background(cfg.bg_utilization, cfg.bg_mode,
                                 cfg.bg_placement);
    }
  }
  return secs_since(t0);
}

// --- per-layer loops (traced runs only) --------------------------------------

struct Chain {
  sim::Engine eng;
  std::uint64_t remaining = 0;
};

void chain_hop(Chain& c, std::int32_t a, std::int32_t b) {
  if (c.remaining == 0) return;
  --c.remaining;
  c.eng.schedule(1, [&c, a, b] { chain_hop(c, a, b); });
}

// Event queue alone: 64 self-rescheduling chains through Engine::schedule.
double sim_ns_per_event() {
  std::vector<double> samples;
  for (int rep = 0; rep < 3; ++rep) {
    Chain c;
    c.remaining = 200'000;
    for (int i = 0; i < 64; ++i) chain_hop(c, i, i + 1);
    c.eng.run();
    c.remaining = 2'000'000;
    const std::uint64_t e0 = c.eng.events_executed();
    const auto t0 = Clock::now();
    for (int i = 0; i < 64; ++i) chain_hop(c, i, i + 1);
    c.eng.run();
    samples.push_back(1e9 * secs_since(t0) /
                      static_cast<double>(c.eng.events_executed() - e0));
  }
  return median(samples);
}

struct ClosedLoop {
  net::Network& net;
  std::vector<topo::NodeId> src, dst;
  void kick(std::size_t i) {
    net.send_message(src[i], dst[i], 64 * 1024, routing::Mode::kAd0,
                     [this, i] { kick(i); });
  }
};

// Forwarding plane alone: 512 flows each keep one 64 KB message in flight
// through Network::send_message, re-sent from the delivery callback.
double net_closed_loop_ns_per_event(std::uint64_t seed) {
  const auto topo = topo::make_topology(bench_system());
  sim::Engine eng;
  net::Network net(eng, *topo, seed);
  ClosedLoop loop{net, {}, {}};
  sim::Rng rng(seed ^ 0x5757ULL);
  const auto nodes = static_cast<std::uint64_t>(topo->num_nodes());
  for (int i = 0; i < 512; ++i) {
    const auto s = static_cast<topo::NodeId>(rng.uniform_u64(nodes));
    auto d = static_cast<topo::NodeId>(rng.uniform_u64(nodes));
    if (d == s) d = static_cast<topo::NodeId>((d + 1) % topo->num_nodes());
    loop.src.push_back(s);
    loop.dst.push_back(d);
  }
  for (std::size_t i = 0; i < loop.src.size(); ++i) loop.kick(i);
  eng.run_until(100 * sim::kMicrosecond);
  const std::uint64_t e0 = eng.events_executed();
  const auto t0 = Clock::now();
  eng.run_until(300 * sim::kMicrosecond);
  return 1e9 * secs_since(t0) /
         static_cast<double>(std::max<std::uint64_t>(1, eng.events_executed() - e0));
}

// Routing decision alone: decide_injection plus the next_port walk to the
// destination router, for a seeded stream of (src, dst) pairs alternating
// AD0 and AD3, over an idle network's load tables. Returns ns per packet
// route, or a negative value if a walk fails to reach its destination.
double routing_decide_ns(std::uint64_t seed) {
  const auto topo = topo::make_topology(bench_system());
  sim::Engine eng;
  net::Network net(eng, *topo, seed);
  routing::RoutePlanner planner(*topo, net, sim::Rng(seed));
  sim::Rng rng(seed ^ 0x4242ULL);
  constexpr int kPairs = 200'000;
  std::vector<std::pair<topo::NodeId, topo::NodeId>> pairs;
  const auto nodes = static_cast<std::uint64_t>(topo->num_nodes());
  for (int i = 0; i < kPairs; ++i)
    pairs.emplace_back(static_cast<topo::NodeId>(rng.uniform_u64(nodes)),
                       static_cast<topo::NodeId>(rng.uniform_u64(nodes)));
  std::int64_t hops = 0;
  const auto t0 = Clock::now();
  for (int i = 0; i < kPairs; ++i) {
    const auto [src, dst] = pairs[static_cast<std::size_t>(i)];
    routing::RouteState st;
    st.mode = i % 2 == 0 ? routing::Mode::kAd0 : routing::Mode::kAd3;
    topo::RouterId r = topo->router_of_node(src);
    planner.decide_injection(r, dst, st);
    for (int h = 0;; ++h) {
      if (h > 32) return -1.0;
      const topo::PortId p = planner.next_port(r, dst, st);
      if (p == routing::kNoRoute) return -1.0;
      const topo::PortInfo& info = topo->port(r, p);
      if (info.peer_router < 0) break;  // ejection port
      r = info.peer_router;
      ++hops;
    }
  }
  const double ns = 1e9 * secs_since(t0) / kPairs;
  return hops > 0 ? ns : -1.0;
}

mpi::CoTask small_ops(mpi::RankCtx& ctx, int iterations) {
  const int n = ctx.nranks();
  const int me = ctx.rank();
  for (int it = 0; it < iterations; ++it) {
    mpi::RequestList reqs;
    reqs.push_back(ctx.irecv((me + n - 1) % n, 64, 7));
    reqs.push_back(ctx.isend((me + 1) % n, 64, 7));
    co_await ctx.waitall(std::move(reqs));
    co_await mpi::coll::allreduce(ctx, mpi::Comm::world(n, me), 8);
  }
}

// MPI layer with the network idle otherwise: 64 ranks exchange 64 B ring
// messages and 8 B allreduces, submitted through Machine::submit. Returns
// host ns per MPI call.
double mpi_ns_per_op(std::uint64_t seed) {
  mpi::Machine m(bench_system(), seed, 0);
  mpi::JobSpec spec;
  spec.name = "small_ops";
  const int stride = m.topology().num_nodes() / 64;
  for (int i = 0; i < 64; ++i) spec.nodes.push_back(i * stride);
  spec.mode_p2p = routing::Mode::kAd0;
  spec.mode_a2a = routing::Mode::kAd0;
  spec.app = [](mpi::RankCtx& ctx) { return small_ops(ctx, 100); };
  const mpi::JobId id = m.submit(std::move(spec));
  const mpi::JobId watch[] = {id};
  const auto t0 = Clock::now();
  if (!m.run_to_completion(watch)) return -1.0;
  const double wall = secs_since(t0);
  Trial calls;
  add_profile(calls, m.job_profile(id));
  return 1e9 * wall / static_cast<double>(std::max<std::int64_t>(1, calls.mpi_calls));
}

double topo_build_ms(topo::Config c) {
  c.kind = topo::TopologyKind::kDragonfly;
  std::vector<double> samples;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    const auto t = topo::make_topology(c);
    samples.push_back(1e3 * secs_since(t0));
    if (t->num_nodes() <= 0) return -1.0;
  }
  return median(samples);
}

double fingerprint_us(const Workload& w) {
  std::vector<core::ScenarioConfig> resolved;
  for (const core::ScenarioConfig& c : w.trials) resolved.push_back(c.resolve());
  int calls = 0;
  const auto t0 = Clock::now();
  while (calls < 2000) {
    for (const core::ScenarioConfig& c : resolved) {
      (void)campaign::scenario_fingerprint(c);
      ++calls;
    }
  }
  return 1e6 * secs_since(t0) / calls;
}

// --- report -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

// Per-layer metrics of a traced run: counts from the first untraced pass,
// the event-kind and MPI profiles from the first traced pass, and the
// per-layer loops, each inside its own span.
std::vector<Metric> layer_metrics(const Workload& w, std::uint64_t seed,
                                  const std::vector<Pass>& passes,
                                  const std::vector<Pass>& traced,
                                  double setup_s, Tracer& tracer) {
  std::vector<double> wall, warm;
  for (const Pass& q : passes) {
    wall.push_back(q.wall_s);
    warm.push_back(q.warm_s);
  }
  const Pass& p = passes.front();
  const Pass& tp = traced.empty() ? p : traced.front();
  net::NetworkStats ns;
  fault::FaultStats fsum;
  core::ShardExecStats sh;
  double mpi_calls = 0, mpi_bytes = 0, mpi_ns = 0, rank_ns = 0;
  double bg_jobs = 0, bg_util = 0, ldms = 0;
  for (const Trial& t : p.trials) {
    ns.packets_injected += t.net.packets_injected;
    ns.packets_delivered += t.net.packets_delivered;
    ns.total_hops += t.net.total_hops;
    ns.escapes += t.net.escapes;
    ns.throttle_activations += t.net.throttle_activations;
    for (int m = 0; m < routing::kNumModes; ++m)
      for (int k = 0; k < 2; ++k)
        ns.decisions_by_mode[m][k] += t.net.decisions_by_mode[m][k];
    fsum.packets_rerouted += t.faults.packets_rerouted;
    fsum.packets_dropped += t.faults.packets_dropped;
    sh.windows += t.shard.windows;
    sh.merges += t.shard.merges;
    sh.windows_fused += t.shard.windows_fused;
    sh.mail_records += t.shard.mail_records;
    sh.mail_compacted += t.shard.mail_compacted;
    sh.coord_ns += t.shard.coord_ns;
    bg_jobs += t.bg_jobs;
    bg_util += t.bg_util / static_cast<double>(p.trials.size());
    ldms += static_cast<double>(t.ldms_samples);
  }
  for (const Trial& t : tp.trials) {
    mpi_calls += static_cast<double>(t.mpi_calls);
    mpi_bytes += static_cast<double>(t.mpi_bytes);
    mpi_ns += t.mpi_ns;
    rank_ns += t.rank_ns;
  }
  // Trial fan-out: the median-wall untraced pass.
  std::vector<const Pass*> by_wall;
  for (const Pass& q : passes) by_wall.push_back(&q);
  std::sort(by_wall.begin(), by_wall.end(),
            [](const Pass* a, const Pass* b) { return a->wall_s < b->wall_s; });
  const Pass& mid = *by_wall[by_wall.size() / 2];
  std::vector<double> trial_s;
  double trial_sum = 0.0;
  for (const Trial& t : mid.trials)
    if (t.wall_s > 0.0) {
      trial_s.push_back(t.wall_s);
      trial_sum += t.wall_s;
    }
  const double trial_max =
      trial_s.empty() ? 0.0 : *std::max_element(trial_s.begin(), trial_s.end());
  std::vector<double> store_ms, load_us;
  for (const Pass& q : passes) {
    store_ms.insert(store_ms.end(), q.store_ms.begin(), q.store_ms.end());
    load_us.insert(load_us.end(), q.load_us.begin(), q.load_us.end());
  }
  std::vector<double> twall;
  for (const Pass& q : traced) twall.push_back(q.wall_s);
  const auto kind_ns = [&](int k) {
    return ratio(static_cast<double>(tp.profile.wall_ns[k]),
                 static_cast<double>(tp.profile.count[k]));
  };
  const auto share = [&](routing::Mode m) { return ns.nonminimal_fraction(m); };
  const auto loop = [&](const char* name, auto&& fn) {
    const Tracer::Scope s(tracer, std::string("loop.") + name);
    return fn();
  };
  return {
      {"sim.events", static_cast<double>(p.events), "count"},
      {"sim.ns_per_event", loop("sim", sim_ns_per_event), "ns"},
      {"net.packets", static_cast<double>(ns.packets_delivered), "count"},
      {"net.hops_per_packet",
       ratio(static_cast<double>(ns.total_hops),
             static_cast<double>(ns.packets_delivered)),
       "hops"},
      {"net.events.injection", static_cast<double>(tp.profile.count[net::kEvInjection]), "count"},
      {"net.events.hop", static_cast<double>(tp.profile.count[net::kEvHop]), "count"},
      {"net.events.ejection", static_cast<double>(tp.profile.count[net::kEvEjection]), "count"},
      {"net.ns_per_event.injection", kind_ns(net::kEvInjection), "ns"},
      {"net.ns_per_event.hop", kind_ns(net::kEvHop), "ns"},
      {"net.ns_per_event.ejection", kind_ns(net::kEvEjection), "ns"},
      {"net.closed_loop_ns_per_event",
       loop("net", [&] { return net_closed_loop_ns_per_event(seed); }), "ns"},
      {"net.escapes", static_cast<double>(ns.escapes), "count"},
      {"net.throttle_activations", static_cast<double>(ns.throttle_activations), "count"},
      {"routing.nonmin_share.ad0", share(routing::Mode::kAd0), "ratio"},
      {"routing.nonmin_share.ad3", share(routing::Mode::kAd3), "ratio"},
      {"routing.decide_ns", loop("routing", [&] { return routing_decide_ns(seed); }), "ns"},
      {"mpi.calls", mpi_calls, "count"},
      {"mpi.bytes", mpi_bytes, "B"},
      {"mpi.sim_fraction", ratio(mpi_ns, rank_ns), "ratio"},
      {"mpi.ns_per_op", loop("mpi", [&] { return mpi_ns_per_op(seed); }), "ns"},
      {"sched.setup_ms", 1e3 * setup_s / static_cast<double>(w.trials.size()), "ms"},
      {"sched.bg_jobs", bg_jobs, "count"},
      {"sched.bg_util_achieved", bg_util, "ratio"},
      {"topo.build_ms.theta_scaled", topo_build_ms(topo::Config::theta_scaled()), "ms"},
      {"topo.build_ms.theta", topo_build_ms(topo::Config::theta()), "ms"},
      {"topo.build_ms.cori", topo_build_ms(topo::Config::cori()), "ms"},
      {"runner.efficiency", ratio(trial_sum, mid.wall_s * mid.jobs), "ratio"},
      {"runner.tail_ratio", ratio(trial_max, mid.wall_s), "ratio"},
      {"runner.trial_s.p50", median(trial_s), "s"},
      {"runner.trial_s.max", trial_max, "s"},
      {"monitor.ldms_samples", ldms, "count"},
      {"shard.windows", static_cast<double>(sh.windows), "count"},
      {"shard.merges", static_cast<double>(sh.merges), "count"},
      {"shard.windows_fused", static_cast<double>(sh.windows_fused), "count"},
      {"shard.mail_records", static_cast<double>(sh.mail_records), "count"},
      {"shard.mail_compacted", static_cast<double>(sh.mail_compacted), "count"},
      {"shard.coord_ms", static_cast<double>(sh.coord_ns) / 1e6, "ms"},
      {"fault.rerouted", static_cast<double>(fsum.packets_rerouted), "count"},
      {"fault.dropped", static_cast<double>(fsum.packets_dropped), "count"},
      {"campaign.fingerprint_us", fingerprint_us(w), "us"},
      {"campaign.cache_load_us", median(load_us), "us"},
      {"campaign.cache_store_ms", median(store_ms), "ms"},
      {"campaign.warm_s", median(warm), "s"},
      {"campaign.warm_hit_rate", p.warm_hit_rate, "ratio"},
      {"campaign.cells_executed", static_cast<double>(p.cells_executed), "count"},
      {"campaign.cells_served", static_cast<double>(p.cells_served), "count"},
      {"trace.overhead", ratio(median(twall), median(wall)) - 1.0, "ratio"},
  };
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::uint64_t event_budget = core::kEventBudget;
  std::string work_dir = ".";
  std::string git_commit = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = std::stoi(v) != 0;
    else if (k == "--event-budget") a.event_budget = std::stoull(v);
    else if (k == "--work-dir") a.work_dir = v;
    else if (k == "--git-commit") a.git_commit = v;
    else throw std::invalid_argument("unknown option " + k);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

// Passes of the workload until `seconds` have elapsed and at least
// `min_passes` ran; stops early once a pass fails its gate.
std::vector<Pass> run_passes(const Workload& w, double seconds, int min_passes,
                             bool traced, const fs::path& work, Tracer& tr,
                             int& pass_counter) {
  std::vector<Pass> passes;
  const auto t0 = Clock::now();
  while (static_cast<int>(passes.size()) < min_passes ||
         secs_since(t0) < seconds) {
    const fs::path dir = work / ("pass" + std::to_string(pass_counter++));
    fs::create_directories(dir);
    Pass p = w.kind == Kind::kProduction   ? production_pass(w, dir, tr, traced)
             : w.kind == Kind::kControlled ? controlled_pass(w, dir, tr, traced)
                                           : campaign_pass(w, dir, tr);
    fs::remove_all(dir);
    bool bad = !p.check_failures.empty();
    for (const Trial& t : p.trials) bad = bad || !gate(t).empty();
    passes.push_back(std::move(p));
    if (bad) break;
  }
  return passes;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dfsim_perfbench: %s\n", e.what());
    return 2;
  }
  try {
    const Workload w = make_workload(args.workload, args.seed, args.event_budget);
    const fs::path work =
        fs::path(args.work_dir) /
        ("perfbench-" + std::to_string(static_cast<long long>(getpid())));
    fs::create_directories(work);
    Tracer tracer(args.trace);
    Tracer untraced(false);

    // Set-up time: replay the workload's set-up several times, median.
    std::vector<double> setups;
    const auto ts = Clock::now();
    while (setups.size() < 5 || (secs_since(ts) < 0.5 && setups.size() < 200))
      setups.push_back(setup_replay(w));
    const double setup_s = median(setups);

    int counter = 0;
    const double measure_s = args.trace ? args.seconds / 2 : args.seconds;
    std::vector<Pass> passes =
        run_passes(w, measure_s, 3, false, work, untraced, counter);
    std::vector<Pass> traced;
    if (args.trace)
      traced = run_passes(w, args.seconds / 2, 2, true, work, tracer, counter);

    // Correctness: every trial gated, one consistency check per pass, and
    // the drained replica.
    int attempted = 0;
    int failed = 0;
    std::vector<std::string> failures;
    const auto count = [&](bool ok, const std::string& why) {
      ++attempted;
      if (!ok) {
        ++failed;
        if (failures.size() < 20) failures.push_back(why);
      }
    };
    for (const std::vector<Pass>* set : {&passes, &traced}) {
      for (const Pass& p : *set) {
        for (std::size_t t = 0; t < p.trials.size(); ++t) {
          const std::string why = gate(p.trials[t]);
          count(why.empty(), w.labels[t] + ": " + why);
        }
        // One consistency check per pass: its cache, warm and journal
        // checks, and the first pass's result digest.
        std::string why =
            p.check_failures.empty() ? "" : p.check_failures.front();
        if (why.empty() && !(p.digest == passes.front().digest))
          why = "pass result digest differs from the first pass";
        count(why.empty(), why);
      }
    }
    const std::string drained = drain_check(w, passes.front(), tracer);
    count(drained.empty(), drained);
    fs::remove_all(work);

    // End-to-end metrics, medians over the untraced passes.
    std::vector<double> wall, cpu, warm, eps;
    for (const Pass& p : passes) {
      wall.push_back(p.wall_s);
      cpu.push_back(p.cpu_s);
      warm.push_back(p.warm_s);
      eps.push_back(ratio(static_cast<double>(p.events), p.wall_s));
    }
    std::vector<Metric> metrics;
    if (!args.trace) {
      metrics = {
          {"wall_s", median(wall), "s"},
          {"events_per_s", median(eps), "1/s"},
          {"cpu_s", median(cpu), "s"},
          {"setup_s", setup_s, "s"},
          {"peak_rss_mb", peak_rss_mb(), "MB"},
      };
    } else {
      metrics = layer_metrics(w, args.seed, passes, traced, setup_s, tracer);
      for (const Metric& m : metrics)
        if (m.value < 0.0 && m.name != "trace.overhead")
          count(false, "per-layer loop " + m.name + " failed its own check");
    }

    // Equal-work record of the first pass: a pure speed-up leaves all of
    // these identical at the same seed.
    const Pass& p0 = passes.front();
    std::int64_t packets = 0, hops = 0, minimal = 0, nonminimal = 0, calls = 0;
    for (const Trial& t : p0.trials) {
      packets += t.net.packets_delivered;
      hops += t.net.total_hops;
      minimal += t.net.minimal_decisions;
      nonminimal += t.net.nonminimal_decisions;
      calls += t.mpi_calls;
    }

    std::string out = "{";
    out += "\"correct\": " + std::string(failed == 0 ? "true" : "false");
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
      out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
             num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
    out += "}, \"workload\": \"" + w.name + "\"";
    out += ", \"seed\": " + std::to_string(args.seed);
    out += ", \"trace\": " + std::to_string(args.trace ? 1 : 0);
    out += ", \"passes\": " + std::to_string(passes.size());
    out += ", \"traced_passes\": " + std::to_string(traced.size());
    out += ", \"setup_replays\": " + std::to_string(setups.size());
    // Every sample behind a median, so the spread can be read off.
    const auto series = [&](const char* name, const std::vector<double>& v) {
      std::string o = std::string("\"") + name + "\": [";
      for (std::size_t i = 0; i < v.size(); ++i) o += (i ? ", " : "") + num(v[i]);
      return o + "]";
    };
    out += ", \"samples\": {" + series("wall_s", wall) + ", " +
           series("events_per_s", eps) + ", " + series("cpu_s", cpu) + ", " +
           series("setup_s", setups) + ", " + series("campaign.warm_s", warm) + "}";
    out += ", \"equal_work\": {\"sim.events\": " + std::to_string(p0.events) +
           ", \"net.packets\": " + std::to_string(packets) +
           ", \"net.total_hops\": " + std::to_string(hops) +
           ", \"routing.minimal\": " + std::to_string(minimal) +
           ", \"routing.nonminimal\": " + std::to_string(nonminimal) +
           ", \"mpi.calls\": " + std::to_string(calls) +
           ", \"result_digest\": \"" + p0.digest.hex() + "\"}";
    out += ", \"failures\": [";
    for (std::size_t i = 0; i < failures.size(); ++i)
      out += (i ? ", \"" : "\"") + json_escape(failures[i]) + "\"";
    out += "], \"host\": {\"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
           ", \"hardware_concurrency\": " +
           std::to_string(std::thread::hardware_concurrency()) +
           ", \"trial_jobs\": " + std::to_string(w.jobs) +
           ", \"compiler\": \"" + json_escape(std::string(PERFBENCH_COMPILER_ID) + " " + __VERSION__) +
           "\", \"build_type\": \"" + PERFBENCH_BUILD_TYPE +
           "\", \"cxx_flags\": \"" + json_escape(PERFBENCH_CXX_FLAGS) +
           "\", \"git_commit\": \"" + json_escape(args.git_commit) + "\"}";
    if (args.trace) out += ", \"spans\": " + tracer.summary_json();
    out += "}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
    return failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dfsim_perfbench: %s\n", e.what());
    return 1;
  }
}
