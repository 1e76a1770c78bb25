// The benchmark's inputs and the checks it makes on the program's outputs,
// computed apart from the runtime: a serial replay of the edge loop over the
// global edge lists, and gather-volume counts taken from the owner map.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rt/types.hpp"
#include "workload/mesh.hpp"

namespace chaosbench {

using chaos::f64;
using chaos::i64;
using chaos::u64;

/// Loop constant h of y(e1) += (x1-x2)(x1+x2)h; y(e2) += (x2-x1)(x1+x2)h.
inline constexpr f64 kH = 15.0;
/// adaptive-repair rewires the mesh before every kRewireEvery-th sweep ...
inline constexpr int kRewireEvery = 2;
/// ... moving one endpoint of ~kRewirePerMille / 1000 of the edges.
inline constexpr u64 kRewirePerMille = 30;

/// One edge's endpoints after a rewire.
struct Rewire {
  i64 edge = 0, e1 = 0, e2 = 0;
};

/// Everything a run computes on: made from the seed alone.
struct Inputs {
  chaos::wl::Mesh mesh;
  /// x(g) = 1 + g mod 7: small integers, so every product and partial sum
  /// of the loop is an exact integer and results compare bit for bit.
  std::vector<f64> x;
  /// The edge lists as 1-based Fortran indices, for the compiler workload.
  std::vector<i64> fortran_e1, fortran_e2;
  /// adaptive-repair only: the rewires of epoch k, applied before sweep
  /// k * kRewireEvery, at index k - 1.
  std::vector<std::vector<Rewire>> rewires;
};

[[nodiscard]] Inputs make_inputs(chaos::wl::Mesh mesh, bool fortran);

/// Fills @p in.rewires for rounds of @p sweeps sweeps, replaying the epochs
/// serially over the global edge lists: each epoch moves one endpoint of
/// about 3% of the edges to a neighbor of that endpoint in the original
/// mesh, never making a self-loop. The choices are splitmix64 of (rewire
/// seed, epoch, edge), and the rewire seed is splitmix64(seed ^
/// 0x5eed0fa11ce5). Computed before the rounds, so a round only applies
/// its own slice of each epoch's list.
void plan_rewires(Inputs& in, u64 seed, int sweeps);

/// Serial reference: y after @p sweeps sweeps of the loop from y = 0, with
/// @p in.rewires replayed. On return @p e1 / @p e2 hold the edge lists the
/// last sweep ran on.
[[nodiscard]] std::vector<f64> reference_y(const Inputs& in, int sweeps,
                                           std::vector<i64>& e1,
                                           std::vector<i64>& e2);

/// Gather volume implied by an owner map: the number of distinct
/// (rank, node) pairs where the node is an endpoint of an edge executed on
/// that rank and is owned elsewhere. Edge e runs on the rank owning most of
/// (@p part1[e], @p part2[e]), ties to the lowest rank (the paper's "almost
/// owner computes" rule), and references (@p e1[e], @p e2[e]). The two pairs
/// differ after a repair, which keeps the iteration partition it was built
/// with while the endpoints move.
[[nodiscard]] i64 expected_gather_volume(const std::vector<int>& owner,
                                         const std::vector<i64>& part1,
                                         const std::vector<i64>& part2,
                                         const std::vector<i64>& e1,
                                         const std::vector<i64>& e2,
                                         int procs);

/// Edges whose endpoints have different owners.
[[nodiscard]] i64 cut_edges(const std::vector<int>& owner,
                            const std::vector<i64>& e1,
                            const std::vector<i64>& e2);

/// Outcome of the output checks of one round; `detail` names the first
/// failure.
struct Checks {
  bool y_exact = true;
  bool sum_zero = true;
  bool gather_volume = true;
  std::string detail;
  [[nodiscard]] bool ok() const { return y_exact && sum_zero && gather_volume; }
};

/// y must equal the reference bit for bit, and sum exactly to 0 (the flux is
/// antisymmetric, so the loop conserves it).
void check_y(const std::vector<f64>& y, const std::vector<f64>& ref,
             Checks& out);
/// The runtime's gather volume must equal every independent count of it.
void check_volume(i64 measured, const std::vector<i64>& expected,
                  Checks& out);

}  // namespace chaosbench
