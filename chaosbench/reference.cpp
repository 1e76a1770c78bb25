#include "reference.hpp"

#include <cstring>
#include <unordered_set>

#include "workload/rng.hpp"

namespace chaosbench {

Inputs make_inputs(chaos::wl::Mesh mesh, bool fortran) {
  Inputs in;
  in.mesh = std::move(mesh);
  const i64 n = in.mesh.nnodes;
  in.x.resize(static_cast<std::size_t>(n));
  for (i64 g = 0; g < n; ++g) {
    in.x[static_cast<std::size_t>(g)] = static_cast<f64>(1 + g % 7);
  }
  if (fortran) {
    in.fortran_e1 = in.mesh.edge1;
    in.fortran_e2 = in.mesh.edge2;
    for (i64& v : in.fortran_e1) ++v;
    for (i64& v : in.fortran_e2) ++v;
  }
  return in;
}

void plan_rewires(Inputs& in, u64 seed, int sweeps) {
  const std::vector<i64>& m1 = in.mesh.edge1;
  const std::vector<i64>& m2 = in.mesh.edge2;
  const auto n = static_cast<std::size_t>(in.mesh.nnodes);
  // Adjacency (CSR) of the original mesh.
  std::vector<i64> off(n + 1, 0), adj;
  for (std::size_t e = 0; e < m1.size(); ++e) {
    ++off[static_cast<std::size_t>(m1[e]) + 1];
    ++off[static_cast<std::size_t>(m2[e]) + 1];
  }
  for (std::size_t v = 0; v < n; ++v) off[v + 1] += off[v];
  adj.resize(static_cast<std::size_t>(off.back()));
  std::vector<i64> cursor(off.begin(), off.end() - 1);
  for (std::size_t e = 0; e < m1.size(); ++e) {
    const auto a = static_cast<std::size_t>(m1[e]);
    const auto b = static_cast<std::size_t>(m2[e]);
    adj[static_cast<std::size_t>(cursor[a]++)] = m2[e];
    adj[static_cast<std::size_t>(cursor[b]++)] = m1[e];
  }

  const u64 rewire_seed = chaos::wl::splitmix64(seed ^ 0x5eed0fa11ce5ull);
  std::vector<i64> e1 = m1, e2 = m2;
  in.rewires.clear();
  for (int s = kRewireEvery; s < sweeps; s += kRewireEvery) {
    const auto epoch = static_cast<u64>(s / kRewireEvery);
    std::vector<Rewire>& changes = in.rewires.emplace_back();
    for (std::size_t e = 0; e < e1.size(); ++e) {
      const u64 h = chaos::wl::splitmix64(
          rewire_seed ^ chaos::wl::splitmix64(epoch << 40 ^ static_cast<u64>(e)));
      if (h % 1000 >= kRewirePerMille) continue;
      const bool second = ((h >> 10) & 1) != 0;
      const i64 from = second ? e2[e] : e1[e];
      const i64 other = second ? e1[e] : e2[e];
      const auto v = static_cast<std::size_t>(from);
      const i64 deg = off[v + 1] - off[v];
      const i64 to = adj[static_cast<std::size_t>(
          off[v] + static_cast<i64>((h >> 11) % static_cast<u64>(deg)))];
      if (to == other || to == from) continue;  // never make a self-loop
      (second ? e2[e] : e1[e]) = to;
      changes.push_back(Rewire{static_cast<i64>(e), e1[e], e2[e]});
    }
  }
}

std::vector<f64> reference_y(const Inputs& in, int sweeps,
                             std::vector<i64>& e1, std::vector<i64>& e2) {
  e1 = in.mesh.edge1;
  e2 = in.mesh.edge2;
  const std::size_t n = static_cast<std::size_t>(in.mesh.nnodes);
  std::vector<f64> y(n, 0.0), d(n, 0.0);
  auto contributions = [&] {
    std::fill(d.begin(), d.end(), 0.0);
    for (std::size_t e = 0; e < e1.size(); ++e) {
      const auto a = static_cast<std::size_t>(e1[e]);
      const auto b = static_cast<std::size_t>(e2[e]);
      const f64 x1 = in.x[a], x2 = in.x[b];
      d[a] += (x1 - x2) * (x1 + x2) * kH;
      d[b] += (x2 - x1) * (x1 + x2) * kH;
    }
  };
  contributions();
  for (int s = 0; s < sweeps; ++s) {
    if (s > 0 && s % kRewireEvery == 0 && !in.rewires.empty()) {
      for (const Rewire& c : in.rewires[static_cast<std::size_t>(s / kRewireEvery - 1)]) {
        e1[static_cast<std::size_t>(c.edge)] = c.e1;
        e2[static_cast<std::size_t>(c.edge)] = c.e2;
      }
      contributions();
    }
    for (std::size_t v = 0; v < n; ++v) y[v] += d[v];
  }
  return y;
}

i64 expected_gather_volume(const std::vector<int>& owner,
                           const std::vector<i64>& part1,
                           const std::vector<i64>& part2,
                           const std::vector<i64>& e1,
                           const std::vector<i64>& e2, int procs) {
  std::vector<std::unordered_set<i64>> ghosts(static_cast<std::size_t>(procs));
  for (std::size_t e = 0; e < e1.size(); ++e) {
    const int oa = owner[static_cast<std::size_t>(part1[e])];
    const int ob = owner[static_cast<std::size_t>(part2[e])];
    const int runs_on = oa < ob ? oa : ob;  // 1 vote each: lowest rank wins
    auto& mine = ghosts[static_cast<std::size_t>(runs_on)];
    for (const i64 v : {e1[e], e2[e]}) {
      if (owner[static_cast<std::size_t>(v)] != runs_on) mine.insert(v);
    }
  }
  i64 total = 0;
  for (const auto& g : ghosts) total += static_cast<i64>(g.size());
  return total;
}

i64 cut_edges(const std::vector<int>& owner, const std::vector<i64>& e1,
              const std::vector<i64>& e2) {
  i64 cut = 0;
  for (std::size_t e = 0; e < e1.size(); ++e) {
    cut += owner[static_cast<std::size_t>(e1[e])] !=
           owner[static_cast<std::size_t>(e2[e])];
  }
  return cut;
}

void check_y(const std::vector<f64>& y, const std::vector<f64>& ref,
             Checks& out) {
  if (y.size() != ref.size() ||
      (!y.empty() && std::memcmp(y.data(), ref.data(),
                                 y.size() * sizeof(f64)) != 0)) {
    out.y_exact = false;
    if (out.detail.empty()) {
      std::size_t k = 0;
      while (k < y.size() && k < ref.size() && std::memcmp(&y[k], &ref[k], sizeof(f64)) == 0) ++k;
      out.detail = "y differs from the serial reference at node " +
                   std::to_string(k);
    }
  }
  f64 sum = 0.0;
  for (const f64 v : y) sum += v;
  if (sum != 0.0) {
    out.sum_zero = false;
    if (out.detail.empty()) out.detail = "sum(y) = " + std::to_string(sum);
  }
}

void check_volume(i64 measured, const std::vector<i64>& expected,
                  Checks& out) {
  for (const i64 want : expected) {
    if (measured != want) {
      out.gather_volume = false;
      if (out.detail.empty()) {
        out.detail = "gather volume " + std::to_string(measured) +
                     " != counted " + std::to_string(want);
      }
    }
  }
}

}  // namespace chaosbench
