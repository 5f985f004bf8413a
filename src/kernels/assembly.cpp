#include "kernels/assembly.h"

#include <algorithm>
#include <iterator>
#include <numeric>

#include "kernels/work.h"

namespace spdistal::kern {

using rt::Coord;

bool needs_assembly(const Statement& stmt) {
  return !stmt.tensor(stmt.assignment.lhs.tensor).format().all_dense();
}

namespace {

using CoordKey = std::array<Coord, rt::kMaxDim>;

// Appends the stored coordinates of `acc`, projected onto the output
// variables, to `into` (duplicates included).
void project_pattern(const Statement& stmt, const tin::Access& acc,
                     const std::vector<tin::IndexVar>& out_vars,
                     fmt::Coo& into, WorkCounter& work) {
  const Tensor& t = stmt.tensor(acc.tensor);
  // out position of each access var (or -1).
  std::vector<int> proj(acc.vars.size(), -1);
  for (size_t d = 0; d < acc.vars.size(); ++d) {
    for (size_t o = 0; o < out_vars.size(); ++o) {
      if (acc.vars[d] == out_vars[o]) proj[d] = static_cast<int>(o);
    }
  }
  t.storage().for_each([&](const CoordKey& c, double) {
    CoordKey key{};
    for (size_t d = 0; d < acc.vars.size(); ++d) {
      if (proj[d] >= 0) key[static_cast<size_t>(proj[d])] = c[d];
    }
    into.push(key, 0.0);
    work.stream(1, 12.0);
  });
}

// The projected pattern of `acc` as a sorted list of distinct coordinates.
std::vector<CoordKey> sorted_pattern(const Statement& stmt,
                                     const tin::Access& acc,
                                     const std::vector<tin::IndexVar>& out_vars,
                                     const std::vector<Coord>& out_dims,
                                     WorkCounter& work) {
  fmt::Coo coo;
  coo.dims = out_dims;
  project_pattern(stmt, acc, out_vars, coo, work);
  std::vector<int> identity(out_dims.size());
  std::iota(identity.begin(), identity.end(), 0);
  coo.sort_and_combine(identity);
  return std::move(coo.coords);
}

}  // namespace

AssemblyResult assemble_output(Statement& stmt) {
  AssemblyResult res;
  if (!needs_assembly(stmt)) return res;
  WorkCounter work;

  const std::vector<tin::IndexVar>& out_vars = stmt.assignment.lhs.vars;
  Tensor out = stmt.tensor(stmt.assignment.lhs.tensor);

  // The union of the term patterns, duplicates included: pack orders and
  // combines them.
  fmt::Coo pattern;
  pattern.dims = out.dims();
  int sparse_terms_with_same_vars = 0;
  const auto terms = tin::sum_of_products(stmt.assignment.rhs);
  for (const auto& term : terms) {
    // Sparse accesses of this term.
    std::vector<tin::Access> sparse;
    for (const auto& acc : tin::expr_accesses(term)) {
      if (!stmt.tensor(acc.tensor).format().all_dense()) sparse.push_back(acc);
    }
    SPD_CHECK(!sparse.empty(), NotationError,
              "sparse output with an all-dense term would be dense: "
                  << stmt.str());
    // Every sparse access must determine the output coordinates.
    for (const auto& ov : out_vars) {
      bool covered = false;
      for (const auto& s : sparse) {
        for (const auto& v : s.vars) {
          if (v == ov) covered = true;
        }
      }
      SPD_CHECK(covered, NotationError,
                "cannot assemble sparse output: variable "
                    << ov.name() << " is not covered by a sparse input in "
                    << stmt.str());
    }
    if (sparse.size() == 1) {
      project_pattern(stmt, sparse[0], out_vars, pattern, work);
      if (sparse[0].vars == out_vars) ++sparse_terms_with_same_vars;
      continue;
    }
    // Multiple sparse accesses: require identical variable lists and
    // intersect their sorted patterns.
    for (const auto& s : sparse) {
      SPD_CHECK(s.vars == sparse[0].vars, NotationError,
                "assembly of products of sparse tensors requires identical "
                "access variables: "
                    << stmt.str());
    }
    std::vector<CoordKey> inter =
        sorted_pattern(stmt, sparse[0], out_vars, out.dims(), work);
    for (size_t s = 1; s < sparse.size(); ++s) {
      const std::vector<CoordKey> other =
          sorted_pattern(stmt, sparse[s], out_vars, out.dims(), work);
      std::vector<CoordKey> next;
      std::set_intersection(inter.begin(), inter.end(), other.begin(),
                            other.end(), std::back_inserter(next));
      inter = std::move(next);
    }
    for (const CoordKey& key : inter) pattern.push(key, 0.0);
  }

  res.pattern_preserved =
      terms.size() == 1 && sparse_terms_with_same_vars == 1;

  // Phase 2: pack zero-valued storage with the assembled pattern.
  out.from_coo(pattern);
  res.output_nnz = out.storage().nnz();
  work.stream(res.output_nnz, 24.0);
  res.symbolic_work = work.done();
  return res;
}

}  // namespace spdistal::kern
