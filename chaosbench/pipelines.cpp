#include "pipelines.hpp"

#include <memory>
#include <span>

#include "alloc_hook.hpp"
#include "core/forall.hpp"
#include "core/geocol.hpp"
#include "core/inspector.hpp"
#include "core/iter_partition.hpp"
#include "core/mapper.hpp"
#include "dist/remap.hpp"
#include "dist/translation_cache.hpp"
#include "lang/interp.hpp"
#include "rt/cost_model.hpp"

namespace chaosbench {

namespace core = chaos::core;
namespace dist = chaos::dist;
namespace rt = chaos::rt;

namespace {

constexpr f64 kFlopsPerEdge = 30.0;

f64 flux1(f64 a, f64 b) { return (a - b) * (a + b) * kH; }
f64 flux2(f64 a, f64 b) { return (b - a) * (a + b) * kH; }

/// Modeled seconds spent in a scope, added to @p into on exit.
class ModelTimer {
 public:
  ModelTimer(rt::Process& p, f64& into) : section_(p.clock()), into_(into) {}
  ~ModelTimer() { into_ += section_.elapsed_sec(); }
  ModelTimer(const ModelTimer&) = delete;
  ModelTimer& operator=(const ModelTimer&) = delete;

 private:
  rt::ClockSection section_;
  f64& into_;
};

/// Node data on BLOCK, partitioned by RCB over the node coordinates, with x
/// and y redistributed onto the partition. Returns the data distribution.
std::shared_ptr<const dist::Distribution> partition_nodes(
    rt::Process& p, const Inputs& in,
    const std::shared_ptr<const dist::Distribution>& reg,
    dist::DistributedArray<f64>& x, dist::DistributedArray<f64>& y,
    Tracer& tr, RankOut& out) {
  const int r = p.rank();
  std::vector<f64> xc, yc, zc;
  for (i64 l = 0; l < reg->my_local_size(); ++l) {
    const auto g = static_cast<std::size_t>(reg->global_of(r, l));
    xc.push_back(in.mesh.x[g]);
    yc.push_back(in.mesh.y[g]);
    zc.push_back(in.mesh.z[g]);
  }
  std::shared_ptr<const core::GeoCol> geocol;
  {
    Span s(tr, r, "partition.geocol");
    ModelTimer m(p, out.m_geocol);
    const std::span<const f64> coords[] = {xc, yc, zc};
    core::GeoColBuilder builder(p, reg);
    builder.geometry(coords);
    geocol = builder.build();
  }
  std::shared_ptr<const dist::Distribution> data_dist;
  {
    Span s(tr, r, "partition.rcb");
    ModelTimer m(p, out.m_partition);
    data_dist = core::set_by_partitioning(p, *geocol, "RCB");
  }
  {
    Span s(tr, r, "dist.redistribute");
    ModelTimer m(p, out.m_remap);
    core::Redistributor rd;
    rd.add(x).add(y);
    rd.apply(p, data_dist);
  }
  return data_dist;
}

/// What every hand-coded round records after its last sweep.
void finish_rank(rt::Process& p, const dist::Distribution& data_dist,
                 const dist::DistributedArray<f64>& y,
                 const core::EdgeLoopPlan& plan, RankOut& out) {
  out.t_end = now_s();
  out.stats = p.stats();
  out.clock_us = p.clock().now_us();
  out.owned = data_dist.my_globals();
  out.y_owned.assign(y.local().begin(), y.local().end());
  out.end1 = plan.end1;
  out.end2 = plan.end2;
  out.gather_volume = plan.loc.schedule.send_volume(p.rank());
  out.ghosts = plan.loc.schedule.nghost;
  if (const dist::TranslationTable* t = data_dist.table()) {
    out.locate_queries = t->stats().wire_queries + t->stats().flat_wire_queries;
  }
}

void hand_body(rt::Process& p, Kind kind, const Inputs& in, int sweeps,
               Tracer& tr, RankOut& out) {
  const int r = p.rank();
  out.t_begin = now_s();
  Span round(tr, r, "bench.round");
  const chaos::wl::Mesh& mesh = in.mesh;
  auto reg = dist::Distribution::block(p, mesh.nnodes);
  auto reg2 = dist::Distribution::block(p, mesh.nedges);
  dist::DistributedArray<f64> x(p, reg), y(p, reg, 0.0);
  x.fill_by_global([&](i64 g) { return in.x[static_cast<std::size_t>(g)]; });
  std::vector<i64> e1, e2;  // this rank's BLOCK slice of the edge list
  for (i64 l = 0; l < reg2->my_local_size(); ++l) {
    const auto e = static_cast<std::size_t>(reg2->global_of(r, l));
    e1.push_back(mesh.edge1[e]);
    e2.push_back(mesh.edge2[e]);
  }
  const auto data_dist = partition_nodes(p, in, reg, x, y, tr, out);

  const bool reuse = kind == Kind::HandReuse;
  core::EdgeLoopPlan plan;
  // The inspector as three public calls, so each is timed on its own.
  auto build_plan = [&] {
    Span s(tr, r, "core.inspect");
    plan.build.begin_build();
    {
      Span s2(tr, r, "core.iter_partition");
      ModelTimer m(p, out.m_remap);
      const std::span<const i64> batches[] = {e1, e2};
      plan.iters = core::partition_iterations(p, *reg2, *data_dist, batches);
    }
    {
      Span s2(tr, r, "dist.remap");
      ModelTimer m(p, out.m_remap);
      plan.end1 = dist::apply_remap<i64>(p, plan.iters.remap, e1);
      plan.end2 = dist::apply_remap<i64>(p, plan.iters.remap, e2);
    }
    {
      Span s2(tr, r, "core.localize");
      ModelTimer m(p, out.m_inspector);
      const std::span<const i64> remapped[] = {plan.end1, plan.end2};
      core::localize_many(p, *data_dist, remapped, plan.iws, plan.loc);
    }
    plan.build.mark_built();
  };

  for (int s = 0; s < sweeps; ++s) {
    Span sweep(tr, r, "bench.sweep");
    if (s == 0 || !reuse) build_plan();
    Span s2(tr, r, "core.execute");
    ModelTimer m(p, out.m_executor);
    const long long a0 = thread_allocs();
    core::EdgeReductionLoop::execute(p, plan, x, y, flux1, flux2,
                                     kFlopsPerEdge);
    if (s > 0) {
      out.exec_allocs += thread_allocs() - a0;
      ++out.warm_sweeps;
    }
    if (s == 0) out.t_first_sweep = now_s();
  }
  finish_rank(p, *data_dist, y, plan, out);
}

void adaptive_body(rt::Process& p, const Inputs& in, int sweeps, Tracer& tr,
                   RankOut& out) {
  const int r = p.rank();
  out.t_begin = now_s();
  Span round(tr, r, "bench.round");
  const chaos::wl::Mesh& mesh = in.mesh;
  auto reg = dist::Distribution::block(p, mesh.nnodes);
  auto reg2 = dist::Distribution::block(p, mesh.nedges);
  dist::DistributedArray<f64> x(p, reg), y(p, reg, 0.0);
  x.fill_by_global([&](i64 g) { return in.x[static_cast<std::size_t>(g)]; });
  std::vector<i64> e1, e2;
  for (i64 l = 0; l < reg2->my_local_size(); ++l) {
    const auto e = static_cast<std::size_t>(reg2->global_of(r, l));
    e1.push_back(mesh.edge1[e]);
    e2.push_back(mesh.edge2[e]);
  }
  const auto data_dist = partition_nodes(p, in, reg, x, y, tr, out);

  dist::TranslationCache tcache(1 << 17);
  const core::PlanOptions opts{.translation_cache = &tcache,
                               .repair = core::RepairMode::Auto};
  auto inspect = [&] {
    Span s(tr, r, "core.inspect");
    ModelTimer m(p, out.m_inspector);
    return core::EdgeReductionLoop::inspect(
        p, *reg2, e1, e2, *data_dist, core::IterRule::MostLocalReferences,
        opts);
  };
  std::shared_ptr<core::EdgeLoopPlan> plan = inspect();
  bool warm = false;  // a repair after the first one is a warm repair
  for (int s = 0; s < sweeps; ++s) {
    Span sweep(tr, r, "bench.sweep");
    if (s > 0 && s % kRewireEvery == 0) {
      {
        Span s2(tr, r, "workload.rewire");
        const auto epoch = static_cast<std::size_t>(s / kRewireEvery - 1);
        for (const Rewire& c : in.rewires[epoch]) {
          if (reg2->owner_of(c.edge) != r) continue;
          const auto l = static_cast<std::size_t>(reg2->local_index_of(c.edge));
          e1[l] = c.e1;
          e2[l] = c.e2;
        }
      }
      bool repaired = false;
      {
        Span s2(tr, r, "core.repair");
        ModelTimer m(p, out.m_inspector);
        const long long a0 = thread_allocs();
        repaired = core::EdgeReductionLoop::repair(p, *plan, e1, e2,
                                                   *data_dist);
        if (warm) {
          out.repair_allocs += thread_allocs() - a0;
          ++out.warm_repairs;
        }
      }
      if (repaired) {
        ++out.repairs;
        warm = true;
      } else {
        ++out.fallbacks;
        plan = inspect();
      }
    }
    Span s2(tr, r, "core.execute");
    ModelTimer m(p, out.m_executor);
    const long long a0 = thread_allocs();
    core::EdgeReductionLoop::execute(p, *plan, x, y, flux1, flux2,
                                     kFlopsPerEdge);
    if (s > 0) {
      out.exec_allocs += thread_allocs() - a0;
      ++out.warm_sweeps;
    }
    if (s == 0) out.t_first_sweep = now_s();
  }
  finish_rank(p, *data_dist, y, *plan, out);
}

}  // namespace

std::string figure4_source(int sweeps) {
  std::string s;
  s += "      REAL*8 x(nnode), y(nnode)\n";
  s += "      INTEGER end_pt1(nedge), end_pt2(nedge)\n";
  s += "      REAL*8 xc(nnode), yc(nnode), zc(nnode)\n";
  s += "C$    DYNAMIC, DECOMPOSITION reg(nnode), reg2(nedge)\n";
  s += "C$    DISTRIBUTE reg(BLOCK), reg2(BLOCK)\n";
  s += "C$    ALIGN x, y, xc, yc, zc WITH reg\n";
  s += "C$    ALIGN end_pt1, end_pt2 WITH reg2\n";
  s += "C$    CONSTRUCT G (nnode, GEOMETRY(3, xc, yc, zc))\n";
  s += "C$    SET distfmt BY PARTITIONING G USING RCB\n";
  s += "C$    REDISTRIBUTE reg(distfmt)\n";
  s += "      DO step = 1, " + std::to_string(sweeps) + "\n";
  s += "      FORALL i = 1, nedge\n";
  s += "        REDUCE(ADD, y(end_pt1(i)), (x(end_pt1(i)) - x(end_pt2(i)))"
       " * (x(end_pt1(i)) + x(end_pt2(i))) * 15.0)\n";
  s += "        REDUCE(ADD, y(end_pt2(i)), (x(end_pt2(i)) - x(end_pt1(i)))"
       " * (x(end_pt1(i)) + x(end_pt2(i))) * 15.0)\n";
  s += "      END FORALL\n";
  s += "      END DO\n";
  return s;
}

void run_hand_round(rt::Machine& machine, Kind kind, const Inputs& in,
                    int sweeps, Tracer& tracer, std::vector<RankOut>& out) {
  out.assign(static_cast<std::size_t>(machine.nprocs()), RankOut{});
  machine.run([&](rt::Process& p) {
    RankOut& mine = out[static_cast<std::size_t>(p.rank())];
    if (kind == Kind::AdaptiveRepair) {
      adaptive_body(p, in, sweeps, tracer, mine);
    } else {
      hand_body(p, kind, in, sweeps, tracer, mine);
    }
  });
}

void run_compiler_round(rt::Machine& machine,
                        const chaos::lang::Program& program, const Inputs& in,
                        Tracer& tracer, std::vector<RankOut>& out) {
  out.assign(static_cast<std::size_t>(machine.nprocs()), RankOut{});
  machine.run([&](rt::Process& p) {
    const int r = p.rank();
    RankOut& mine = out[static_cast<std::size_t>(r)];
    mine.t_begin = now_s();
    chaos::lang::Instance inst(program);
    {
      Span round(tracer, r, "bench.round");
      inst.set_param("NNODE", in.mesh.nnodes);
      inst.set_param("NEDGE", in.mesh.nedges);
      inst.bind_real("X", in.x);
      inst.bind_int("END_PT1", in.fortran_e1);
      inst.bind_int("END_PT2", in.fortran_e2);
      inst.bind_real("XC", in.mesh.x);
      inst.bind_real("YC", in.mesh.y);
      inst.bind_real("ZC", in.mesh.z);
      Span s(tracer, r, "lang.execute");
      inst.execute(p);
    }
    mine.t_end = now_s();
    mine.stats = p.stats();
    mine.clock_us = p.clock().now_us();
    const chaos::lang::PhaseTimes& ph = inst.phases();
    mine.m_geocol = ph.graph_gen;
    mine.m_partition = ph.partition;
    mine.m_remap = ph.remap;
    mine.m_inspector = ph.inspector;
    mine.m_executor = ph.executor;
    mine.plan_hits = inst.cache_stats().hits;
    mine.plan_misses = inst.cache_stats().misses;
    std::vector<f64> y = inst.fetch_real(p, "Y");
    if (p.is_root()) mine.y_global = std::move(y);
  });
}

std::vector<int> rcb_owner_map(rt::Machine& machine, const Inputs& in) {
  std::vector<int> owner(static_cast<std::size_t>(in.mesh.nnodes), -1);
  Tracer quiet(machine.nprocs() + 1);
  machine.run([&](rt::Process& p) {
    RankOut scratch;
    auto reg = dist::Distribution::block(p, in.mesh.nnodes);
    dist::DistributedArray<f64> x(p, reg), y(p, reg, 0.0);
    const auto data_dist = partition_nodes(p, in, reg, x, y, quiet, scratch);
    // Each rank writes only the entries of the globals it owns.
    for (const i64 g : data_dist->my_globals()) {
      owner[static_cast<std::size_t>(g)] = p.rank();
    }
  });
  return owner;
}

}  // namespace chaosbench
