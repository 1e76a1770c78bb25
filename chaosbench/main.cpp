// chaosbench: the end-to-end benchmark of the CHAOS pipelines. One process
// runs one workload: it sets up (mesh, machine, compiled program), then runs
// whole rounds of the pipeline — partition, inspect, sweep — for the given
// number of seconds, checks every round's outputs against a serial
// reference, and prints one JSON line of metrics.
//
//   chaosbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--t0-ns <steady-clock ns of the spawn>] [--trace-out <file>]
//   chaosbench --smoke       every workload once on the tiny mesh
//   chaosbench --self-test   shows that each output check catches a fault
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// rounds alternate untraced and traced, and the metrics are the per-layer
// ones, measured on the traced rounds.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "lang/parser.hpp"
#include "pipelines.hpp"
#include "reference.hpp"
#include "rt/machine.hpp"
#include "trace.hpp"

namespace chaosbench {
namespace {

constexpr int kProcs = 2;

struct WorkloadSpec {
  const char* name;
  Kind kind;
  int sweeps;  ///< sweeps per round on the 53K mesh
};

// Sweep counts make one round take roughly 1-3 s on a 4-core host, so a
// run of 25 s measures about ten rounds.
constexpr WorkloadSpec kWorkloads[] = {
    {"hand-reuse", Kind::HandReuse, 2000},
    {"compiler-reuse", Kind::CompilerReuse, 200},
    {"hand-noreuse", Kind::HandNoReuse, 20},
    {"adaptive-repair", Kind::AdaptiveRepair, 200},
};

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  long long t0_ns = -1;
  bool tiny = false;  ///< wl::mesh_tiny and 6 sweeps (smoke, self-test)
  std::string trace_out;
  bool smoke = false;
  bool self_test = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "chaosbench: %s\n", why);
  std::fprintf(stderr,
               "usage: chaosbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--t0-ns <ns>] [--trace-out <file>] | --smoke | "
               "--self-test\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (k == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
    } else if (k == "--trace") {
      a.trace = v == "1";
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
    } else if (k == "--t0-ns") {
      a.t0_ns = std::strtoll(v.c_str(), &end, 10);
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      usage(("unknown argument " + k).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("bad value for " + k).c_str());
  }
  return a;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

using Metrics = std::map<std::string, double>;

/// A workload's fixed state: inputs, machine, compiled programs, and the
/// serial reference every round is checked against.
struct Bench {
  const WorkloadSpec* spec = nullptr;
  int sweeps = 0;
  Inputs in;
  std::unique_ptr<chaos::rt::Machine> machine;
  std::unique_ptr<Programs> programs;
  Metrics setup;  ///< per-layer set-up times
  std::vector<f64> ref_y;
  std::vector<i64> final_e1, final_e2;  ///< edges of the last sweep
  std::vector<int> compiler_owner;      ///< compiler workload only
};

/// Everything one round yields: metrics plus what the checks compare.
struct Round {
  Metrics m;
  std::vector<f64> y;       ///< global y
  std::vector<int> owner;   ///< owner map of the data distribution
  i64 measured_volume = 0;  ///< the runtime's gather volume per sweep
  std::vector<i64> counted_volume;  ///< independent counts of it
};

Bench set_up(const WorkloadSpec& spec, const Args& args, Tracer& tr) {
  Bench b;
  b.spec = &spec;
  b.sweeps = args.tiny ? 6 : spec.sweeps;
  const int host = tr.host_track();
  {
    Span s(tr, host, "workload.mesh_gen");
    const double t = now_s();
    chaos::wl::Mesh mesh = args.tiny ? chaos::wl::mesh_tiny(args.seed)
                                     : chaos::wl::mesh_53k(args.seed);
    b.in = make_inputs(std::move(mesh), spec.kind == Kind::CompilerReuse);
    b.setup["workload.mesh_gen_s"] = now_s() - t;
  }
  {
    Span s(tr, host, "rt.machine_start");
    const double t = now_s();
    b.machine = std::make_unique<chaos::rt::Machine>(kProcs);
    b.setup["rt.machine_start_s"] = now_s() - t;
  }
  b.setup["lang.compile_s"] = 0.0;
  if (spec.kind == Kind::CompilerReuse) {
    Span s(tr, host, "lang.compile");
    const double t = now_s();
    b.programs = std::make_unique<Programs>(
        Programs{chaos::lang::compile(figure4_source(b.sweeps)),
                 chaos::lang::compile(figure4_source(1))});
    b.setup["lang.compile_s"] = now_s() - t;
  }
  return b;
}

/// The rewires and the checks' fixed inputs, computed once after set-up.
void prepare_checks(Bench& b, u64 seed) {
  if (b.spec->kind == Kind::AdaptiveRepair) plan_rewires(b.in, seed, b.sweeps);
  b.ref_y = reference_y(b.in, b.sweeps, b.final_e1, b.final_e2);
  if (b.spec->kind == Kind::CompilerReuse) {
    b.compiler_owner = rcb_owner_map(*b.machine, b.in);
  }
}

double max_of(const std::vector<RankOut>& ro, double RankOut::*field) {
  double v = ro.front().*field;
  for (const RankOut& r : ro) v = std::max(v, r.*field);
  return v;
}

/// Per-rank span totals into "<name>_s" (max over ranks) and
/// "<name>_s.skew" (max - min), plus per-module self time.
void span_metrics(const Tracer& tr, int procs, Metrics& m) {
  std::map<std::string, std::vector<double>> by_name, self;
  for (int r = 0; r < procs; ++r) {
    for (const auto& [name, t] : tr.totals(r)) by_name[name].resize(procs);
    for (const auto& [mod, t] : tr.self_by_module(r)) self[mod].resize(procs);
  }
  for (int r = 0; r < procs; ++r) {
    for (const auto& [name, t] : tr.totals(r)) by_name[name][r] = t;
    for (const auto& [mod, t] : tr.self_by_module(r)) self[mod][r] = t;
  }
  for (const auto& [name, v] : by_name) {
    const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
    m[name + "_s"] = *hi;
    m[name + "_s.skew"] = *hi - *lo;
  }
  for (const auto& [mod, v] : self) {
    m[mod + ".self_s"] = *std::max_element(v.begin(), v.end());
  }
}

/// Metrics every round reports, from the rank outputs of one pipeline run.
void common_metrics(const std::vector<RankOut>& ro, Metrics& m) {
  chaos::rt::MessageStats tot;
  for (const RankOut& r : ro) tot += r.stats;
  double t_begin = ro.front().t_begin;
  for (const RankOut& r : ro) t_begin = std::min(t_begin, r.t_begin);
  m["wall_s"] = max_of(ro, &RankOut::t_end) - t_begin;
  m["modeled_s"] = max_of(ro, &RankOut::clock_us) * 1e-6;
  m["moved_bytes"] = static_cast<double>(tot.alltoallv_bytes);
  m["rt.alltoallv_calls"] = static_cast<double>(tot.alltoallv_calls);
  m["rt.barriers"] = static_cast<double>(tot.barriers);
  m["rt.collectives"] = static_cast<double>(tot.collectives);
  m["dist.tcache_hits"] = static_cast<double>(tot.tcache_hits);
  m["dist.tcache_misses"] = static_cast<double>(tot.tcache_misses);
  const double probes = static_cast<double>(tot.tcache_hits + tot.tcache_misses);
  m["dist.tcache_probes"] = probes;
  m["dist.tcache_hit_ratio"] =
      probes > 0 ? static_cast<double>(tot.tcache_hits) / probes : 0.0;
  m["model.geocol_s"] = max_of(ro, &RankOut::m_geocol);
  m["model.partition_s"] = max_of(ro, &RankOut::m_partition);
  m["model.remap_s"] = max_of(ro, &RankOut::m_remap);
  m["model.inspector_s"] = max_of(ro, &RankOut::m_inspector);
  m["model.executor_s"] = max_of(ro, &RankOut::m_executor);
  double locate = 0, ghosts = 0, ealloc = 0, esweeps = 0, ralloc = 0,
         rcount = 0;
  for (const RankOut& r : ro) {
    locate += static_cast<double>(r.locate_queries);
    ghosts += static_cast<double>(r.ghosts);
    ealloc += static_cast<double>(r.exec_allocs);
    esweeps += static_cast<double>(r.warm_sweeps);
    ralloc += static_cast<double>(r.repair_allocs);
    rcount += static_cast<double>(r.warm_repairs);
  }
  m["dist.locate_queries"] = locate;
  m["core.ghosts"] = ghosts;
  m["core.execute_allocs_per_sweep"] = esweeps > 0 ? ealloc / esweeps : 0.0;
  m["core.repair_allocs_per_repair"] = rcount > 0 ? ralloc / rcount : 0.0;
  m["core.repairs"] = static_cast<double>(ro.front().repairs);
  m["core.repair_fallbacks"] = static_cast<double>(ro.front().fallbacks);
  m["lang.plan_hits"] = static_cast<double>(ro.front().plan_hits);
  m["lang.plan_misses"] = static_cast<double>(ro.front().plan_misses);
}

/// Distinct endpoints of the edges a rank executes that it does not own.
i64 plan_offrank(const RankOut& r, int rank, const std::vector<int>& owner) {
  std::vector<i64> off;
  for (const auto* ends : {&r.end1, &r.end2}) {
    for (const i64 v : *ends) {
      if (owner[static_cast<std::size_t>(v)] != rank) off.push_back(v);
    }
  }
  std::sort(off.begin(), off.end());
  return static_cast<i64>(std::unique(off.begin(), off.end()) - off.begin());
}

Round run_round(Bench& b, Tracer& tr, bool traced) {
  Round out;
  std::vector<RankOut> ro;
  chaos::rt::Machine& machine = *b.machine;
  tr.clear();
  tr.set_enabled(traced);
  const std::size_t n = static_cast<std::size_t>(b.in.mesh.nnodes);
  if (b.spec->kind == Kind::CompilerReuse) {
    run_compiler_round(machine, b.programs->full, b.in, tr, ro);
    tr.set_enabled(false);
    common_metrics(ro, out.m);
    if (traced) span_metrics(tr, kProcs, out.m);
    out.y = std::move(ro.front().y_global);
    const double bytes_full = out.m["moved_bytes"];
    // The one-step program: sweep time and per-sweep traffic are the
    // differences of the two program lengths.
    std::vector<RankOut> one;
    run_compiler_round(machine, b.programs->single, b.in, tr, one);
    Metrics m1;
    common_metrics(one, m1);
    out.m["sweep_ms"] =
        (out.m["wall_s"] - m1["wall_s"]) / (b.sweeps - 1) * 1e3;
    const double per_sweep = (bytes_full - m1["moved_bytes"]) / (b.sweeps - 1);
    // One gather of x plus one scatter-add of y: 16 bytes per ghost.
    out.measured_volume = std::llround(per_sweep / 16.0);
    if (per_sweep != 16.0 * static_cast<double>(out.measured_volume)) {
      out.measured_volume = -1;
    }
    out.owner = b.compiler_owner;
    out.counted_volume = {
        expected_gather_volume(out.owner, b.in.mesh.edge1, b.in.mesh.edge2,
                               b.final_e1, b.final_e2, kProcs)};
  } else {
    run_hand_round(machine, b.spec->kind, b.in, b.sweeps, tr, ro);
    tr.set_enabled(false);
    common_metrics(ro, out.m);
    if (traced) span_metrics(tr, kProcs, out.m);
    out.m["sweep_ms"] = (max_of(ro, &RankOut::t_end) -
                         max_of(ro, &RankOut::t_first_sweep)) /
                        (b.sweeps - 1) * 1e3;
    out.owner.assign(n, -1);
    out.y.assign(n, 0.0);
    for (int r = 0; r < kProcs; ++r) {
      const RankOut& o = ro[static_cast<std::size_t>(r)];
      for (std::size_t l = 0; l < o.owned.size(); ++l) {
        const auto g = static_cast<std::size_t>(o.owned[l]);
        out.owner[g] = r;
        out.y[g] = o.y_owned[l];
      }
    }
    i64 from_plan = 0;
    for (int r = 0; r < kProcs; ++r) {
      out.measured_volume += ro[static_cast<std::size_t>(r)].gather_volume;
      from_plan += plan_offrank(ro[static_cast<std::size_t>(r)], r, out.owner);
    }
    out.counted_volume = {
        from_plan,
        expected_gather_volume(out.owner, b.in.mesh.edge1, b.in.mesh.edge2,
                               b.final_e1, b.final_e2, kProcs)};
  }
  out.m["partition.cut_edges"] = static_cast<double>(
      cut_edges(out.owner, b.in.mesh.edge1, b.in.mesh.edge2));
  out.m["core.gather_volume"] = static_cast<double>(out.measured_volume);
  return out;
}

Checks check_round(const Bench& b, const Round& r) {
  Checks c;
  check_y(r.y, b.ref_y, c);
  check_volume(r.measured_volume, r.counted_volume, c);
  return c;
}

/// modeled_s and moved_bytes are deterministic: every round must repeat
/// the first round's values exactly.
bool deterministic(const std::vector<Round>& rounds, std::string& why) {
  for (const Round& r : rounds) {
    for (const char* k : {"modeled_s", "moved_bytes"}) {
      if (r.m.at(k) != rounds.front().m.at(k)) {
        why = std::string(k) + " differs between rounds";
        return false;
      }
    }
  }
  return true;
}

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},       {"wall_s", "s"},        {"sweep_ms", "ms"},
    {"modeled_s", "s"},     {"moved_bytes", "bytes"}, {"peak_rss_mb", "MB"},
};

/// Per-layer metrics, grouped by module. Every workload prints each one (0
/// where the workload does not call that layer).
constexpr MetricDef kPerLayer[] = {
    {"workload.mesh_gen_s", "s"},
    {"workload.rewire_s", "s"},
    {"workload.self_s", "s"},
    {"rt.machine_start_s", "s"},
    {"rt.alltoallv_calls", "count"},
    {"rt.barriers", "count"},
    {"rt.collectives", "count"},
    {"partition.geocol_s", "s"},
    {"partition.geocol_s.skew", "s"},
    {"partition.rcb_s", "s"},
    {"partition.rcb_s.skew", "s"},
    {"partition.cut_edges", "count"},
    {"partition.self_s", "s"},
    {"dist.redistribute_s", "s"},
    {"dist.redistribute_s.skew", "s"},
    {"dist.remap_s", "s"},
    {"dist.remap_s.skew", "s"},
    {"dist.locate_queries", "count"},
    {"dist.tcache_hits", "count"},
    {"dist.tcache_misses", "count"},
    {"dist.tcache_probes", "count"},
    {"dist.tcache_hit_ratio", "ratio"},
    {"dist.self_s", "s"},
    {"core.inspect_s", "s"},
    {"core.inspect_s.skew", "s"},
    {"core.iter_partition_s", "s"},
    {"core.iter_partition_s.skew", "s"},
    {"core.localize_s", "s"},
    {"core.localize_s.skew", "s"},
    {"core.repair_s", "s"},
    {"core.repair_s.skew", "s"},
    {"core.repairs", "count"},
    {"core.repair_fallbacks", "count"},
    {"core.execute_s", "s"},
    {"core.execute_s.skew", "s"},
    {"core.ghosts", "count"},
    {"core.gather_volume", "count"},
    {"core.execute_allocs_per_sweep", "count"},
    {"core.repair_allocs_per_repair", "count"},
    {"core.self_s", "s"},
    {"lang.compile_s", "s"},
    {"lang.execute_s", "s"},
    {"lang.execute_s.skew", "s"},
    {"lang.plan_hits", "count"},
    {"lang.plan_misses", "count"},
    {"lang.self_s", "s"},
    {"model.geocol_s", "s"},
    {"model.partition_s", "s"},
    {"model.remap_s", "s"},
    {"model.inspector_s", "s"},
    {"model.executor_s", "s"},
    {"bench.round_s", "s"},
    {"bench.self_s", "s"},
    {"trace.overhead_s", "s"},
};

void print_result(bool correct, long long attempted, long long failed,
                  const Metrics& m, bool per_layer) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricDef& d) {
    const auto it = m.find(d.name);
    const double v = it == m.end() ? 0.0 : it->second;
    std::printf("  %-34s %18.9g %s\n", d.name, v, d.unit);
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", d.name, v, d.unit);
    json += buf;
    first = false;
  };
  if (per_layer) {
    for (const MetricDef& d : kPerLayer) emit(d);
  } else {
    for (const MetricDef& d : kEndToEnd) emit(d);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int run_workload(const Args& args) {
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) usage(("unknown workload '" + args.workload + "'").c_str());
  Tracer tr(kProcs + 1);
  tr.set_enabled(args.trace);
  Bench b = set_up(*spec, args, tr);
  const double setup_s = now_s();  // origin = the spawn instant
  std::vector<std::string> setup_events, events;
  if (args.trace) tr.append_chrome(setup_events, 0);
  prepare_checks(b, args.seed);

  // Whole rounds until the time is up; traced runs alternate untraced and
  // traced rounds and end on a traced one. Round 0 warms the allocator and
  // the caches: it is checked and counted but left out of the metrics.
  std::vector<Round> rounds;
  std::vector<bool> traced_round;
  long long failed = 0;
  std::string why;
  bool correct = true;
  const double t_start = now_s();
  for (int i = 0;; ++i) {
    const bool traced = args.trace && i % 2 == 1;
    try {
      Round r = run_round(b, tr, traced);
      const Checks c = check_round(b, r);
      if (!c.ok()) {
        correct = false;
        if (why.empty()) why = c.detail;
      }
      if (traced) {
        events = setup_events;
        tr.append_chrome(events, 1);
      }
      rounds.push_back(std::move(r));
      traced_round.push_back(traced);
    } catch (const std::exception& e) {
      ++failed;
      if (why.empty()) why = e.what();
      (void)b.machine->recover();
    }
    const bool done = now_s() - t_start >= args.seconds;
    const bool measured = args.trace ? i >= 3 : i >= 1;
    if (done && measured && (!args.trace || traced)) break;
  }
  if (!rounds.empty() && !deterministic(rounds, why)) correct = false;
  if (rounds.empty()) correct = false;
  if (!why.empty()) std::fprintf(stderr, "chaosbench: check failed: %s\n", why.c_str());

  Metrics out = b.setup;
  std::map<std::string, std::vector<double>> plain, traced;
  for (std::size_t i = 1; i < rounds.size(); ++i) {
    for (const auto& [k, v] : rounds[i].m) {
      (traced_round[i] ? traced : plain)[k].push_back(v);
    }
  }
  // The host is shared and loses its CPUs to other guests in bursts (steal
  // time), which only ever slow a round down: wall_s and sweep_ms report
  // the fastest measured round, every other metric the median.
  for (const auto& [k, v] : args.trace ? traced : plain) {
    const bool fastest = !args.trace && (k == "wall_s" || k == "sweep_ms");
    out[k] = fastest ? *std::min_element(v.begin(), v.end()) : median(v);
  }
  out["setup_s"] = setup_s;
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  out["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;
  if (args.trace) {
    out["trace.overhead_s"] = median(traced["wall_s"]) - median(plain["wall_s"]);
    if (!args.trace_out.empty() && !write_chrome_trace(args.trace_out, events)) {
      std::fprintf(stderr, "chaosbench: cannot write %s\n", args.trace_out.c_str());
    }
  }
  std::printf("chaosbench %s: seed %llu, P=%d, %d sweeps/round, %zu rounds "
              "(%lld failed; the first is the warm-up), wall_s per round:",
              spec->name, static_cast<unsigned long long>(args.seed), kProcs,
              b.sweeps, rounds.size(), failed);
  for (const Round& r : rounds) std::printf(" %.3f", r.m.at("wall_s"));
  std::printf("\n");
  print_result(correct, static_cast<long long>(rounds.size()) + failed, failed,
               out, args.trace);
  return 0;
}

/// Every workload, one round each on the tiny mesh, every check.
int smoke(const Args& base) {
  int bad = 0;
  for (const WorkloadSpec& w : kWorkloads) {
    Args a = base;
    a.workload = w.name;
    a.tiny = true;
    Tracer tr(kProcs + 1);
    tr.set_enabled(true);
    Bench b = set_up(w, a, tr);
    prepare_checks(b, a.seed);
    std::vector<Round> rounds;
    for (int i = 0; i < 2; ++i) rounds.push_back(run_round(b, tr, i == 1));
    std::string why;
    bool ok = deterministic(rounds, why);
    for (const Round& r : rounds) {
      const Checks c = check_round(b, r);
      if (!c.ok()) {
        ok = false;
        why = c.detail;
      }
    }
    std::printf("smoke %-16s %s %s\n", w.name, ok ? "ok" : "FAILED",
                why.c_str());
    bad += ok ? 0 : 1;
  }
  return bad == 0 ? 0 : 1;
}

/// Runs a correct round, then perturbs one value per check and requires
/// that check to fail.
int self_test(const Args& base) {
  Args a = base;
  a.tiny = true;
  Tracer tr(kProcs + 1);
  Bench b = set_up(kWorkloads[0], a, tr);
  prepare_checks(b, a.seed);
  std::vector<Round> rounds;
  rounds.push_back(run_round(b, tr, false));
  rounds.push_back(run_round(b, tr, false));
  int bad = 0;
  auto expect = [&](const char* what, bool failed_as_expected) {
    std::printf("self-test %-44s %s\n", what,
                failed_as_expected ? "ok" : "NOT DETECTED");
    bad += failed_as_expected ? 0 : 1;
  };
  std::string why;
  const Checks clean = check_round(b, rounds[0]);
  expect("unperturbed round passes every check",
         clean.ok() && deterministic(rounds, why));
  {
    Round r = rounds[0];
    r.y[r.y.size() / 2] += 1.0;
    const Checks c = check_round(b, r);
    expect("y(k) + 1 fails the bit-exact check", !c.y_exact);
  }
  {
    Bench b2 = set_up(kWorkloads[0], a, tr);
    prepare_checks(b2, a.seed);
    Round r = rounds[0];
    r.y[0] += 1.0;
    b2.ref_y[0] += 1.0;  // a reference wrong the same way
    const Checks c = check_round(b2, r);
    expect("y(k) + 1 in y and reference fails sum(y) = 0",
           c.y_exact && !c.sum_zero);
  }
  {
    Round r = rounds[0];
    r.measured_volume += 1;
    const Checks c = check_round(b, r);
    expect("gather volume + 1 fails the volume check", !c.gather_volume);
  }
  {
    std::vector<Round> rs = rounds;
    rs[1].m["modeled_s"] += 1e-9;
    expect("modeled_s + 1 ns in one round fails determinism",
           !deterministic(rs, why));
  }
  return bad == 0 ? 0 : 1;
}

}  // namespace
}  // namespace chaosbench

int main(int argc, char** argv) {
  using namespace chaosbench;
  const long long entry_ns = steady_ns();
  const Args args = parse(argc, argv);
  set_origin_ns(args.t0_ns >= 0 ? args.t0_ns : entry_ns);
  try {
    if (args.self_test) return self_test(args);
    if (args.smoke) return smoke(args);
    if (args.workload.empty()) usage("--workload is required");
    return run_workload(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "chaosbench: %s\n", e.what());
    return 1;
  }
}
