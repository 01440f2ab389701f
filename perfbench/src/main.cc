// cobra_perfbench — the COBRA benchmark: one seeded run of one workload.
//
//   cobra_perfbench --workload interactive|bulk|sweep --seed N --seconds S
//                   --trace 0|1 [--trace-out spans.jsonl] [--git-head REV]
//   cobra_perfbench --selftest
//
// A run sets the workload up several times (the median is `setup_s`),
// drives it for S seconds, checks every answer, and prints a readable
// report followed by one JSON line:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones. A --trace 1 run does
// the same work while recording spans around every call into the library,
// and reports the per-layer breakdown instead. perfbench/README.md
// documents each metric.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/batch_plan.h"
#include "deploy.h"
#include "served.h"
#include "sweep.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_NATIVE_ARCH
#define PERFBENCH_NATIVE_ARCH 0
#endif

namespace perfbench {
namespace {

namespace core = cobra::core;

/// Set-ups per run (at least this many, and for at least this long);
/// `setup_s` is their median.
constexpr int kMinSetups = 5;
constexpr double kMinSetupSeconds = 3.0;
/// Untimed served traffic before the timed phase.
constexpr double kWarmupSeconds = 2.0;
/// Served scenarios per run checked against the sequential oracle.
constexpr std::size_t kOracleSamples = 16;
/// Server worker threads (the load comes from at most two clients).
constexpr int kServerWorkers = 2;

struct Workload {
  const char* name;
  const char* why;
  bool served;
  SnapshotSpec snapshot;
  TrafficSpec traffic;
};

TrafficSpec InteractiveTraffic() {
  TrafficSpec traffic;
  traffic.connection_per_request = true;
  traffic.min_scenarios = 8;
  traffic.max_scenarios = 64;
  traffic.min_overrides = 1;
  traffic.max_overrides = 4;
  // The server keeps a reader thread's stack for every connection it ever
  // accepted until Stop(); past ~30,000 connections the process runs out of
  // memory mappings and thread creation fails. So after 10,000 requests the
  // benchmark restarts the server, as an operator would restart the leaking
  // daemon, and measures on. Each restart's wall time counts in the timed
  // phase, so it lowers req_per_s and scenarios_per_s; the growth shows in
  // serve.server.vm_size_mb.
  traffic.max_requests = 10000;
  return traffic;
}

TrafficSpec BulkTraffic() {
  TrafficSpec traffic;
  traffic.sizes = {8, 64, 1024};
  traffic.min_overrides = 16;
  traffic.max_overrides = 16;
  traffic.swap_every = 100;
  return traffic;
}

std::vector<Workload> Workloads() {
  return {
      {"interactive",
       "the daemon's common case: small requests on a small snapshot, one "
       "connection each, half of them replays; fixed per-request costs "
       "dominate and the kernel is a small part",
       true, SmallSnapshot(), InteractiveTraffic()},
      {"bulk",
       "large snapshot, 8/64/1024-scenario requests with 16 overrides and "
       "periodic snapshot swaps: kernel, planner, deadline chunking and the "
       "write beside the reads",
       true, LargeSnapshot(), BulkTraffic()},
      {"sweep",
       "in-process streamed what-if analysis over 65,536 sampled scenarios, "
       "kAll and top-k: the blocked kernel and per-window planning, no "
       "serving layer",
       false, LargeSnapshot(), TrafficSpec{}},
  };
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
  std::string git_head = "unknown";
  bool selftest = false;
};

int Usage() {
  std::fprintf(stderr,
               "usage: cobra_perfbench --workload interactive|bulk|sweep "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE] "
               "[--git-head REV]\n       cobra_perfbench --selftest\n");
  return 2;
}

bool ParseOptions(int argc, char** argv, Options* options) {
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      options->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options->workload = value;
    } else if (arg == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && *end == '\0';
    } else if (arg == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      have_seconds = !value.empty() && *end == '\0' && options->seconds > 0;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
      have_trace = true;
    } else if (arg == "--trace-out") {
      options->trace_out = value;
    } else if (arg == "--git-head") {
      options->git_head = value;
    } else {
      return false;
    }
  }
  return options->selftest ||
         (!options->workload.empty() && have_seed && have_seconds &&
          have_trace);
}

std::string HostJson(const Options& options) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": "
                "\"%s\", \"native_arch\": %s, \"git_head\": \"%s\"}",
                std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
                PERFBENCH_BUILD_TYPE, PERFBENCH_NATIVE_ARCH ? "true" : "false",
                options.git_head.c_str());
  return buf;
}

// ------------------------------------------------------------ self-checks

/// The benchmark's own checks: the percentile helper refuses a percentile
/// with fewer than ten samples beyond it, and one seed always produces the
/// same scenario sets. Returns the number of failed checks.
int SelfCheck(std::uint64_t seed, std::vector<std::string>* notes) {
  int failed = 0;
  auto expect = [&](bool ok, const std::string& what) {
    if (!ok) {
      ++failed;
      notes->push_back("self-check: " + what);
    }
  };
  auto ramp = [](std::size_t n) {
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0);
    std::reverse(v.begin(), v.end());
    return v;
  };
  expect(!Percentile(ramp(999), 0.99).has_value(),
         "p99 of 999 samples must be refused");
  expect(Percentile(ramp(1000), 0.99) == 990.0, "p99 of 1..1000 is 990");
  expect(!Percentile(ramp(19), 0.5).has_value(),
         "p50 of 19 samples must be refused");
  expect(Percentile(ramp(20), 0.5) == 10.0, "p50 of 1..20 is 10");

  std::vector<std::string> variables;
  for (int i = 0; i < 1000; ++i) variables.push_back("v" + std::to_string(i));
  for (const Workload& workload : Workloads()) {
    if (!workload.served) continue;
    auto fingerprints = [&](std::uint64_t s) {
      RequestStream stream(workload.traffic, variables, s);
      std::vector<std::string> out;
      for (int i = 0; i < 48; ++i) {
        out.push_back(
            core::FingerprintScenarios(stream.Next().second->scenarios)
                .ToHex());
      }
      return out;
    };
    expect(fingerprints(seed) == fingerprints(seed),
           std::string(workload.name) + ": same seed, different requests");
    expect(fingerprints(seed) != fingerprints(seed + 1),
           std::string(workload.name) + ": seeds do not vary the requests");
  }
  auto source_print = [&](std::uint64_t s) {
    auto source = MakeSweepSource(kSweepScenarios, variables, s, 1);
    if (!source.ok()) return std::string("error");
    core::ScenarioSet head;
    if (!(*source)->Generate(0, 64, &head).ok()) return std::string("error");
    return (*source)->fingerprint().ToHex() + "/" +
           core::FingerprintScenarios(head).ToHex();
  };
  expect(source_print(seed) != "error" && source_print(seed) == source_print(seed),
         "sweep: same seed, different scenarios");
  expect(source_print(seed) != source_print(seed + 1),
         "sweep: seeds do not vary the scenarios");
  return failed;
}

// ---------------------------------------------------------------- output

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    metrics_[name] = {value, unit};
    if (!note.empty()) notes_[name] = note;
  }
  const Metrics& metrics() const { return metrics_; }

  void Print(const char* title) const {
    std::printf("%s\n", title);
    for (const auto& [name, metric] : metrics_) {
      auto note = notes_.find(name);
      std::printf("  %-40s %16.6g %-6s %s\n", name.c_str(), metric.value,
                  metric.unit.c_str(),
                  note == notes_.end() ? "" : note->second.c_str());
    }
  }

 private:
  Metrics metrics_;
  std::map<std::string, std::string> notes_;
};

std::string Count(std::size_t n) { return "n=" + std::to_string(n); }

/// A latency percentile. A percentile the sample cannot support is a
/// benchmark defect: it is reported as NaN and the run fails.
double LatencyPercentile(const std::vector<double>& samples, double q) {
  std::optional<double> p = Percentile(samples, q);
  return p.has_value() ? *p : std::numeric_limits<double>::quiet_NaN();
}

void PrintJson(bool correct, std::size_t attempted, std::size_t failed,
               const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, metric] : metrics) {
    std::snprintf(buf, sizeof buf, "%.17g", metric.value);
    out += (first ? "" : ", ") + ("\"" + name + "\": {\"value\": ") + buf +
           ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

// ------------------------------------------------------------------- run

struct EndToEnd {
  double setup_s = 0.0;
  std::size_t setups = 0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  std::optional<double> p99_ms;  ///< Shown where 1000+ samples support it.
  std::size_t latency_samples = 0;
  double req_per_s = 0.0;
  double scenarios_per_s = 0.0;
  std::string rate_note;
  double peak_rss_mb = 0.0;
};

void AddEndToEnd(const EndToEnd& e2e, const std::string& prefix,
                 const char* request_unit, Report* report) {
  report->Add(prefix + "setup_s", e2e.setup_s, "s",
              "median of " + std::to_string(e2e.setups) + " set-ups");
  report->Add(prefix + "req_p50_ms", e2e.p50_ms, "ms",
              Count(e2e.latency_samples) + " " + request_unit);
  report->Add(prefix + "req_p90_ms", e2e.p90_ms, "ms",
              Count(e2e.latency_samples) + " " + request_unit);
  report->Add(prefix + "req_per_s", e2e.req_per_s, "1/s",
              std::string(request_unit) + ", " + e2e.rate_note);
  report->Add(prefix + "scenarios_per_s", e2e.scenarios_per_s, "1/s",
              e2e.rate_note);
  report->Add(prefix + "peak_rss_mb", e2e.peak_rss_mb, "MB");
}

/// Median time of one `program.Eval` call (the paper's assignment cost).
double EvalMicros(const cobra::prov::EvalProgram& program,
                  const cobra::prov::Valuation& valuation) {
  std::vector<double> out;
  std::vector<double> samples;
  const double until = Now() + 0.2;
  while (samples.size() < 20 || (Now() < until && samples.size() < 100000)) {
    const double start = Now();
    program.Eval(valuation, &out);
    samples.push_back((Now() - start) * 1e6);
  }
  return Median(samples);
}

/// Re-publishes the snapshot `times` times; seconds each.
std::vector<double> SwapProbe(Deployment& deployment, int times,
                              Tracer& tracer, std::vector<std::string>* notes) {
  std::vector<double> swaps;
  for (int i = 0; i < times; ++i) {
    const cobra::util::Result<double> took = Republish(&deployment, tracer);
    if (took.ok()) {
      swaps.push_back(*took);
    } else {
      notes->push_back("swap: " + took.status().ToString());
    }
  }
  return swaps;
}

int Run(const Options& options) {
  std::vector<Workload> workloads = Workloads();
  auto found = std::find_if(workloads.begin(), workloads.end(),
                            [&](const Workload& w) {
                              return options.workload == w.name;
                            });
  if (found == workloads.end()) return Usage();
  const Workload& workload = *found;

  std::printf("workload: %s (%s)\n", workload.name, workload.why);
  std::printf("seed: %llu  seconds: %g  trace: %d\n",
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("host: %s\n", HostJson(options).c_str());
  std::fflush(stdout);

  Tracer tracer(options.trace);
  std::vector<std::string> notes;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  const int selfcheck_failures = SelfCheck(options.seed, &notes);
  attempted += 1;
  failed += selfcheck_failures > 0 ? 1 : 0;

  // Set-up, several times; the last deployment is the one measured.
  std::vector<SetupTimes> setups;
  Deployment deployment;
  const double setup_begin = Now();
  while (setups.size() < static_cast<std::size_t>(kMinSetups) ||
         Now() - setup_begin < kMinSetupSeconds) {
    deployment = Deployment();  // stops the previous server first
    SetupTimes times;
    cobra::util::Result<Deployment> deployed =
        Deploy(workload.snapshot, kServerWorkers, tracer, &times);
    if (!deployed.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   deployed.status().ToString().c_str());
      return 1;
    }
    deployment = std::move(*deployed);
    setups.push_back(times);
  }
  auto setup_median = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : setups) v.push_back(t.*field);
    return Median(v);
  };
  std::printf("snapshot: %zu -> %zu monomials, %zu groups, %zu bytes\n",
              deployment.served->full_size(),
              deployment.served->compressed_size(),
              deployment.served->labels().size(),
              deployment.snapshot_bytes.size());

  EndToEnd e2e;
  e2e.setup_s = setup_median(&SetupTimes::total);
  e2e.setups = setups.size();
  Report layers;
  const char* request_unit = workload.served ? "requests" : "top-k windows";

  // Layers a workload's main phase does not use are measured by a short
  // probe after it, in traced runs only, so every per-layer metric is a
  // measurement on every workload.
  std::optional<ServedPhase> served;
  std::optional<ReplayOutcome> replay;
  std::optional<SweepPhase> sweep;
  std::vector<double> swap_s;

  auto count_failures = [&](const ServedPhase& phase) {
    attempted += phase.records.size() + phase.errors.size();
    failed += phase.errors.size();
    notes.insert(notes.end(), phase.errors.begin(), phase.errors.end());
    for (const RequestRecord& record : phase.records) {
      if (record.ok) continue;
      ++failed;
      if (notes.size() < 20) {
        notes.push_back("request " + std::to_string(record.seq) + ": " +
                        record.error);
      }
    }
  };
  // Restarts the server; its wall time counts in `phase`'s measured time.
  auto restart_server = [&](ServedPhase* phase) {
    const double start = Now();
    const cobra::util::Status restarted =
        RestartServer(&deployment, kServerWorkers);
    phase->restart_s.push_back(Now() - start);
    phase->measured_s += phase->restart_s.back();
    if (!restarted.ok()) {
      phase->errors.push_back("restart: " + restarted.ToString());
    }
    return restarted.ok();
  };
  auto count_mismatches = [&](const ReplayOutcome& outcome) {
    failed += outcome.mismatches;
    notes.insert(notes.end(), outcome.mismatch_notes.begin(),
                 outcome.mismatch_notes.end());
  };
  // Runs `traffic` for `seconds` of measured time after an untimed warm-up
  // of `warmup_s`. `restart`: when a server lifetime reaches
  // traffic.max_requests before time is up, restart the server and go on.
  // Each lifetime is checked as soon as it ends, so answers never pile up in
  // memory; the checks are not measured.
  auto run_served = [&](const TrafficSpec& traffic, double warmup_s,
                        double seconds, bool restart) {
    served = ServedPhase();
    replay = ReplayOutcome();
    if (warmup_s > 0) {
      // Its own request stream: it fills the plan cache and brings every
      // core up to speed without changing the timed sequence. Its answers
      // are checked like the timed ones, but untraced and without oracle
      // samples, so they stay out of the per-layer figures.
      const std::uint64_t warm_seed = MixSeed(options.seed, 9);
      RequestStream warm(traffic, deployment.variables, warm_seed);
      ServedPhase warmup =
          RunServedPhase(deployment, traffic, warm, warmup_s, tracer);
      Verifier checker(traffic, deployment.variables, warm_seed,
                       deployment.snapshot_bytes, 0);
      Tracer untraced(false);
      ReplayOutcome checked;
      checker.Replay(&warmup, untraced, &checked);
      count_mismatches(checked);
      if (restart) restart_server(&warmup);
      count_failures(warmup);
    }
    RequestStream stream(traffic, deployment.variables, options.seed);
    Verifier verifier(traffic, deployment.variables, options.seed,
                      deployment.snapshot_bytes, kOracleSamples);
    for (std::uint64_t lifetime = 0;; ++lifetime) {
      ServedPhase part = RunServedPhase(deployment, traffic, stream,
                                        seconds - served->measured_s, tracer);
      const bool capped = traffic.max_requests > 0 &&
                          part.records.size() >= traffic.max_requests;
      verifier.Replay(&part, tracer, &*replay);
      AppendPhase(std::move(part), lifetime, &*served);
      if (!restart || !capped || served->measured_s >= seconds ||
          !restart_server(&*served)) {
        break;
      }
    }
    count_failures(*served);
    swap_s.insert(swap_s.end(), served->swap_s.begin(), served->swap_s.end());
    count_mismatches(*replay);
    std::vector<std::string> oracle_notes;
    failed += verifier.CheckOracle(*deployment.session, &oracle_notes);
    attempted += verifier.samples();
    notes.insert(notes.end(), oracle_notes.begin(), oracle_notes.end());
  };
  auto run_sweep = [&](std::uint64_t scenarios, double seconds) {
    sweep = RunSweepPhase(deployment, scenarios, options.seed, seconds,
                          kOracleSamples, tracer);
    attempted += sweep->windows + sweep->checks;
    failed += sweep->mismatches;
    notes.insert(notes.end(), sweep->notes.begin(), sweep->notes.end());
  };

  if (workload.served) {
    run_served(workload.traffic, kWarmupSeconds, options.seconds, true);
    // A failed request counts as having taken the whole run.
    std::vector<double> latencies;
    for (const RequestRecord& record : served->records) {
      latencies.push_back(record.ok ? (record.end_s - record.start_s) * 1e3
                                    : options.seconds * 1e3);
    }
    e2e.latency_samples = latencies.size();
    e2e.p50_ms = LatencyPercentile(latencies, 0.50);
    e2e.p90_ms = LatencyPercentile(latencies, 0.90);
    e2e.p99_ms = Percentile(latencies, 0.99);
    double ok_requests = 0.0;
    double ok_scenarios = 0.0;
    for (const RequestRecord& record : served->records) {
      if (!record.ok) continue;
      ok_requests += 1.0;
      ok_scenarios += static_cast<double>(record.scenarios);
    }
    e2e.req_per_s = ok_requests / served->measured_s;
    e2e.scenarios_per_s = ok_scenarios / served->measured_s;
    char note[128];
    std::snprintf(note, sizeof note,
                  "over %.3f s measured, incl. %zu server restarts (%.3f s)",
                  served->measured_s, served->restart_s.size(),
                  std::accumulate(served->restart_s.begin(),
                                  served->restart_s.end(), 0.0));
    e2e.rate_note = note;
    e2e.peak_rss_mb = served->after.peak_rss_mb;
  } else {
    run_sweep(kSweepScenarios, options.seconds);
    e2e.latency_samples = sweep->topk_window_ms.size();
    e2e.p50_ms = LatencyPercentile(sweep->topk_window_ms, 0.50);
    e2e.p90_ms = LatencyPercentile(sweep->topk_window_ms, 0.90);
    e2e.p99_ms = Percentile(sweep->topk_window_ms, 0.99);
    e2e.req_per_s = Median(sweep->topk_window_rate);
    e2e.scenarios_per_s = Median(sweep->all_rate);
    e2e.rate_note = "median of " + std::to_string(sweep->rounds) + " passes";
    e2e.peak_rss_mb = sweep->after.peak_rss_mb;
  }
  const std::size_t main_windows = sweep.has_value() ? sweep->windows : 0;
  const double topk_scenarios_per_s =
      sweep.has_value() ? Median(sweep->topk_rate) : 0.0;

  Report end_to_end;
  AddEndToEnd(e2e, "", request_unit, &end_to_end);

  if (options.trace) {
    // Probes for the layers the main phase did not use.
    if (workload.served) {
      run_sweep(4096, 0.0);
    } else {
      TrafficSpec probe = InteractiveTraffic();
      probe.max_scenarios = 16;
      probe.max_requests = 1100;
      run_served(probe, 0.0, 60.0, false);
    }
    if (swap_s.empty()) swap_s = SwapProbe(deployment, 3, tracer, &notes);

    // Setup layers: median over the set-ups.
    layers.Add("data.generate_s", setup_median(&SetupTimes::generate), "s");
    layers.Add("rel.sql_s", setup_median(&SetupTimes::sql), "s");
    layers.Add("core.compress.s", setup_median(&SetupTimes::compress), "s");
    layers.Add("core.snapshot.compile_s", setup_median(&SetupTimes::compile),
               "s");
    layers.Add("core.io.serialize_s", setup_median(&SetupTimes::serialize),
               "s");
    layers.Add("core.io.parse_s", setup_median(&SetupTimes::parse), "s");
    layers.Add("verify.snapshot_s", setup_median(&SetupTimes::verify), "s");
    layers.Add("core.io.from_snapshot_s",
               setup_median(&SetupTimes::from_snapshot), "s");
    layers.Add("serve.server.start_s", setup_median(&SetupTimes::server_start),
               "s");
    layers.Add("core.io.snapshot_bytes",
               static_cast<double>(deployment.snapshot_bytes.size()), "bytes");

    // Served path, from the replay of the recorded requests.
    const std::vector<Tracer::Span> spans = tracer.Spans();
    std::map<std::string, Tracer::LayerTotals> totals = Tracer::Totals(spans);
    auto self_total = [&](const char* name) { return totals[name].self_s; };
    auto self_median_us = [&](const char* name) {
      return Median(totals[name].self_samples_s) * 1e6;
    };
    const ReplayOutcome& r = *replay;
    const std::string requests = Count(r.checked) + " replayed requests";
    layers.Add("core.plan.s", self_total("core.plan"), "s", requests);
    layers.Add("core.plan.hits", static_cast<double>(served->plan.hits),
               "count");
    layers.Add("core.plan.core_hits",
               static_cast<double>(served->plan.core_hits), "count");
    layers.Add("core.plan.misses", static_cast<double>(served->plan.misses),
               "count");
    layers.Add("core.plan.sparse_picks", static_cast<double>(r.sparse_picks),
               "count");
    layers.Add("core.plan.blocked_picks", static_cast<double>(r.blocked_picks),
               "count");
    layers.Add("core.execute.full_sweep_s", r.full_sweep_s, "s", requests);
    layers.Add("core.execute.compressed_sweep_s", r.compressed_sweep_s, "s",
               requests);
    layers.Add("core.execute.report_s",
               r.execute_s - r.full_sweep_s - r.compressed_sweep_s, "s",
               requests);
    layers.Add("serve.wire.encode_request_us",
               self_median_us("serve.wire.encode_request"), "us", requests);
    layers.Add("serve.wire.decode_request_us",
               self_median_us("serve.wire.decode_request"), "us", requests);
    layers.Add("serve.wire.encode_response_us",
               self_median_us("serve.wire.encode_response"), "us", requests);
    layers.Add("serve.wire.decode_response_us",
               self_median_us("serve.wire.decode_response"), "us", requests);
    layers.Add("serve.wire.request_bytes", Median(r.request_bytes), "bytes",
               "median");
    layers.Add("serve.wire.response_bytes", Median(r.response_bytes), "bytes",
               "median");
    layers.Add("serve.server.connect_ms", Median(served->connect_s) * 1e3,
               "ms", Count(served->connect_s.size()) + " connects, median");
    layers.Add("serve.server.residual_p50_ms",
               LatencyPercentile(r.residual_ms, 0.50), "ms",
               Count(r.residual_ms.size()));
    layers.Add("serve.server.residual_p90_ms",
               LatencyPercentile(r.residual_ms, 0.90), "ms",
               Count(r.residual_ms.size()));
    layers.Add("serve.server.swap_s", Median(swap_s), "s",
               Count(swap_s.size()) + " swaps, median");
    layers.Add("serve.server.restarts",
               static_cast<double>(served->restart_s.size()), "count",
               "inside the timed phase");
    layers.Add("serve.server.restart_s",
               std::accumulate(served->restart_s.begin(),
                               served->restart_s.end(), 0.0),
               "s", "summed, inside the timed phase");
    layers.Add("serve.server.threads", served->after.threads, "count",
               "after the served phase");
    layers.Add("serve.server.vm_size_mb", served->after.vm_size_mb, "MB",
               "after the served phase");
    layers.Add("serve.server.rss_growth_mb",
               served->after.rss_mb - served->before.rss_mb, "MB",
               "over the served phase");
    const cobra::serve::ServerStats& stats = served->stats;
    layers.Add("serve.server.accepted", static_cast<double>(stats.accepted),
               "count");
    layers.Add("serve.server.completed", static_cast<double>(stats.completed),
               "count");
    layers.Add("serve.server.shed", static_cast<double>(stats.shed), "count");
    layers.Add("serve.server.deadline_exceeded",
               static_cast<double>(stats.deadline_exceeded), "count");
    layers.Add("serve.server.coalesced", static_cast<double>(stats.coalesced),
               "count");
    layers.Add("serve.server.failed", static_cast<double>(stats.failed),
               "count");
    layers.Add("trace.residual_share",
               r.rtt_total_s > 0 ? r.residual_total_s / r.rtt_total_s : 0.0,
               "ratio", "residual / round trip, summed");

    // Kernel scan rate of the workload's main sweep path.
    const bool main_is_stream = !workload.served;
    const double scan_s =
        main_is_stream
            ? std::accumulate(sweep->full_sweep_s.begin(),
                              sweep->full_sweep_s.end(), 0.0) +
                  std::accumulate(sweep->compressed_sweep_s.begin(),
                                  sweep->compressed_sweep_s.end(), 0.0)
            : r.full_sweep_s + r.compressed_sweep_s;
    const double terms_lanes =
        main_is_stream ? sweep->terms_lanes : r.terms_lanes;
    const double bytes = main_is_stream ? sweep->bytes_scanned : r.bytes_scanned;
    layers.Add("prov.terms_lanes_per_s", terms_lanes / scan_s, "1/s",
               main_is_stream ? "kAll passes" : "replayed requests");
    layers.Add("prov.bytes_per_s", bytes / scan_s, "B/s",
               "computed from program sizes");

    // The paper's metric: one assignment on the full vs the compressed
    // provenance.
    const core::CompiledSession& session = *deployment.served;
    const double full_us =
        EvalMicros(session.full_program(), session.default_full_valuation());
    const double compressed_us = EvalMicros(session.compressed_program(),
                                            session.default_meta_valuation());
    layers.Add("prov.full_eval_us", full_us, "us", "median Eval call");
    layers.Add("prov.compressed_eval_us", compressed_us, "us",
               "median Eval call");
    layers.Add("prov.compressed_full_ratio", compressed_us / full_us, "ratio",
               "the paper's headline, not a gate");

    // Streamed path.
    const SweepPhase& s = *sweep;
    const std::string passes = Count(s.rounds) + " kAll passes, median";
    layers.Add("core.stream.generate_s", Median(s.generate_s), "s", passes);
    layers.Add("core.stream.plan_s", Median(s.plan_s), "s", passes);
    layers.Add("core.stream.full_sweep_s", Median(s.full_sweep_s), "s",
               passes);
    layers.Add("core.stream.compressed_sweep_s", Median(s.compressed_sweep_s),
               "s", passes);
    layers.Add("core.stream.full_rows_skipped_ratio",
               static_cast<double>(s.topk_full_skipped) /
                   static_cast<double>(s.topk_full_skipped +
                                       s.topk_full_computed),
               "ratio", "top-k passes");
    layers.Add("core.stream.topk_scenarios_per_s", Median(s.topk_rate), "1/s",
               Count(s.rounds) + " top-k passes, median");

    // The traced run's own end-to-end figures: compared with an untraced
    // run of the same seed, they give the tracing overhead.
    AddEndToEnd(e2e, "trace.", request_unit, &layers);
    layers.Add("trace.spans", static_cast<double>(spans.size()), "count");
    layers.Add("failed_ratio",
               static_cast<double>(failed) / static_cast<double>(attempted),
               "ratio");

    // Self time per layer, and how the round trips are accounted for.
    std::printf("\nself time per span (all phases):\n");
    for (const auto& [name, layer] : totals) {
      std::printf("  %-34s n=%-8llu self %12.6f s  total %12.6f s\n",
                  name.c_str(), static_cast<unsigned long long>(layer.count),
                  layer.self_s, layer.total_s);
    }
    std::printf("\nserved round trips: %.6f s = replayed layers + connect + "
                "residual %.6f s (%.1f%%)\n",
                r.rtt_total_s, r.residual_total_s,
                r.rtt_total_s > 0 ? 100.0 * r.residual_total_s / r.rtt_total_s
                                  : 0.0);
    if (!options.trace_out.empty() &&
        !Tracer::WriteJsonl(spans, options.trace_out)) {
      notes.push_back("could not write " + options.trace_out);
    }
  }

  // Readable report.
  std::printf("\n");
  end_to_end.Print(options.trace ? "end-to-end (traced run):"
                                 : "end-to-end:");
  std::printf("  %-40s %16.6g %-6s (%zu of %zu)\n", "failed_ratio",
              static_cast<double>(failed) / static_cast<double>(attempted),
              "ratio", failed, attempted);
  if (e2e.p99_ms.has_value()) {
    std::printf("  %-40s %16.6g %-6s %s (shown, not gated)\n", "req_p99_ms",
                *e2e.p99_ms, "ms", Count(e2e.latency_samples).c_str());
  }
  if (!workload.served) {
    std::printf("  %-40s %16.6g %-6s kAll: %zu rounds, %zu windows\n",
                "topk_scenarios_per_s", topk_scenarios_per_s, "1/s",
                sweep->rounds, main_windows);
  }
  if (options.trace) {
    std::printf("\n");
    layers.Print("per layer:");
  }
  if (!notes.empty()) {
    std::printf("\nfailures (%zu listed):\n", notes.size());
    for (const std::string& note : notes) std::printf("  %s\n", note.c_str());
  }

  const Metrics& metrics = options.trace ? layers.metrics()
                                         : end_to_end.metrics();
  bool complete = true;
  for (const auto& [name, metric] : metrics) {
    if (!std::isfinite(metric.value)) {
      std::fprintf(stderr, "%s: no value (too few samples or failures)\n",
                   name.c_str());
      complete = false;
    }
  }
  if (!complete) return 1;
  PrintJson(failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!perfbench::ParseOptions(argc, argv, &options)) {
    return perfbench::Usage();
  }
  if (options.selftest) {
    std::vector<std::string> notes;
    const int failed = perfbench::SelfCheck(1, &notes);
    for (const std::string& note : notes) std::printf("%s\n", note.c_str());
    std::printf("self-check: %s\n", failed == 0 ? "ok" : "FAILED");
    return failed == 0 ? 0 : 1;
  }
  return perfbench::Run(options);
}
