// One round of each workload: the whole pipeline from partitioning to the
// last sweep, run on the machine through the runtime's public calls only.
// Each rank fills its own RankOut; nothing is communicated after the last
// sweep, so the machine's message statistics and virtual clocks describe
// the pipeline alone.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "lang/ast.hpp"
#include "reference.hpp"
#include "rt/machine.hpp"
#include "trace.hpp"

namespace chaosbench {

enum class Kind { HandReuse, CompilerReuse, HandNoReuse, AdaptiveRepair };

struct RankOut {
  double t_begin = 0.0;       ///< wall: pipeline start (s since origin)
  double t_first_sweep = 0.0; ///< wall: end of the first sweep
  double t_end = 0.0;         ///< wall: end of the last sweep
  chaos::rt::MessageStats stats;  ///< this rank's counters at t_end
  f64 clock_us = 0.0;             ///< this rank's virtual clock at t_end
  /// Modeled seconds per paper phase (graph generation, partitioner,
  /// remap incl. iteration partitioning, inspector, executor).
  f64 m_geocol = 0.0, m_partition = 0.0, m_remap = 0.0, m_inspector = 0.0,
      m_executor = 0.0;
  /// The data distribution's owned globals (the owner map) and y on them.
  std::vector<i64> owned;
  std::vector<f64> y_owned;
  /// The plan's remapped endpoints: the edges this rank executes.
  std::vector<i64> end1, end2;
  i64 gather_volume = 0;   ///< schedule words sent off-rank per gather
  i64 ghosts = 0;          ///< ghost slots of the schedule
  i64 locate_queries = 0;  ///< translation-table wire queries (both protocols)
  long long exec_allocs = 0, warm_sweeps = 0;
  long long repair_allocs = 0, warm_repairs = 0;
  i64 repairs = 0, fallbacks = 0;
  i64 plan_hits = 0, plan_misses = 0;
  std::vector<f64> y_global;  ///< compiler workload: y fetched by rank 0
};

struct Programs {
  chaos::lang::Program full;   ///< the Figure 4 program with `sweeps` steps
  chaos::lang::Program single; ///< the same program with one step
};

/// The Figure 4 mini-Fortran-90D program with a DO loop of @p sweeps steps.
[[nodiscard]] std::string figure4_source(int sweeps);

/// Runs one round of a hand-coded workload on every rank of @p machine.
void run_hand_round(chaos::rt::Machine& machine, Kind kind, const Inputs& in,
                    int sweeps, Tracer& tracer, std::vector<RankOut>& out);

/// Runs @p program once on every rank (the compiler workload's pipeline).
void run_compiler_round(chaos::rt::Machine& machine,
                        const chaos::lang::Program& program, const Inputs& in,
                        Tracer& tracer, std::vector<RankOut>& out);

/// Owner map of the RCB partition of @p in (for checking the compiler
/// workload, whose data distribution is internal to the program). Runs
/// outside any timed region.
[[nodiscard]] std::vector<int> rcb_owner_map(chaos::rt::Machine& machine,
                                             const Inputs& in);

}  // namespace chaosbench
