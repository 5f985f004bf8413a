// Distributed sparse tensor storage (paper §III-B).
//
// A tensor's coordinate tree is stored level by level. Dense levels store
// nothing (their coordinates are implicit in an index space); Compressed
// levels store a crd region of non-zero coordinates and a pos region of
// PosRange entries giving, for each parent position, the inclusive range of
// crd positions holding its children — Figure 7's "SpDISTAL CSR". Singleton
// levels store a crd region only: position q holds exactly one coordinate,
// and the position space is shared 1:1 with the parent level's (a COO chain
// below a Compressed(non-unique) root).
//
// Level position spaces chain: level d's entries are indexed 0..P_d-1, and
// the pos region of a Compressed level d is indexed by the *parent's*
// position space (P_{d-1} entries). The vals region aligns 1:1 with the last
// level's positions.
//
// pack builds this storage from a coordinate list (Chou et al.'s per-level
// assembly): an ordering pass puts the entries in storage order, and one
// walk in that order gives each entry a position at every level and writes
// it into regions sized exactly in advance. The ordering pass is shared
// with Coo::sort_and_combine, so generators and samplers order their output
// the same way pack does.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "format/format.h"
#include "runtime/index_space.h"
#include "runtime/region.h"

namespace spdistal::data {
struct SparsityFingerprint;
}

namespace spdistal::fmt {

using rt::Coord;

// Coordinate list representation used for construction and I/O.
struct Coo {
  std::vector<Coord> dims;
  std::vector<std::array<Coord, rt::kMaxDim>> coords;
  std::vector<double> vals;

  int order() const { return static_cast<int>(dims.size()); }
  int64_t nnz() const { return static_cast<int64_t>(vals.size()); }

  void push(std::initializer_list<Coord> coord, double v);
  void push(const std::array<Coord, rt::kMaxDim>& coord, double v);

  // Sorts stably and coordinate-lexicographically by the given dimension
  // order (storage order), then sums the values of equal coordinates left
  // to right in input order into one entry.
  void sort_and_combine(const std::vector<int>& dim_order);
};

// The ordering pass that pack and Coo::sort_and_combine share: the stable
// coordinate-lexicographic order of a coordinate list's entries over a
// dimension order (level l compares dimension dims[l]), in which entries
// with equal coordinates keep their input order.
struct EntryOrder {
  int levels = 0;
  std::array<int, rt::kMaxDim> dims{};
  size_t size = 0;  // entries
  // perm[k] is the input index of the k-th entry in order; empty when the
  // input already is in order.
  std::vector<uint32_t> perm;
  // The least and greatest coordinate at each level (0 and -1 when empty).
  std::array<Coord, rt::kMaxDim> lo{}, hi{};
  // breaks[l] counts the adjacent entries, in order, whose coordinates first
  // differ at level l; breaks[levels] counts equal neighbours (duplicates).
  std::array<int64_t, rt::kMaxDim + 1> breaks{};

  size_t operator[](size_t k) const { return perm.empty() ? k : perm[k]; }

  // Number of distinct coordinate prefixes over levels 0..l.
  int64_t distinct(int l) const {
    if (size == 0) return 0;
    int64_t n = 1;
    for (int m = 0; m <= l; ++m) n += breaks[static_cast<size_t>(m)];
    return n;
  }

  // The first level at which the k-th entry in order differs from the
  // (k-1)-th: 0 for k == 0, `levels` when their coordinates are equal.
  int split(const Coo& coo, size_t k) const {
    if (k == 0) return 0;
    const auto& a = coo.coords[(*this)[k - 1]];
    const auto& b = coo.coords[(*this)[k]];
    int l = 0;
    for (; l < levels; ++l) {
      const size_t d = static_cast<size_t>(dims[static_cast<size_t>(l)]);
      if (a[d] != b[d]) break;
    }
    return l;
  }
};

// O(nnz) when `coo` already is in order (every generator, to_coo and
// sample_coo output is): one scan finds that and counts the breaks.
// Otherwise a stable LSD radix sort builds the permutation over 11-bit
// digits of each level's coordinate offset by its minimum, skipping digits
// that are constant across entries, and one more scan counts the breaks.
EntryOrder order_entries(const Coo& coo, const std::vector<int>& dim_order);

// One stored level of the coordinate tree.
struct LevelStorage {
  ModeFormat kind = ModeFormat::Dense();
  // Logical dimension this level stores and its extent.
  int dim = 0;
  Coord extent = 0;
  // Number of entries (positions) at this level. For Singleton levels this
  // always equals parent_positions (the chain shares positions).
  Coord positions = 0;
  // Number of positions at the parent level (1 for the root).
  Coord parent_positions = 1;
  // pos (Compressed only) indexed by parent positions; crd (Compressed and
  // Singleton) by this level's positions.
  rt::RegionRef<rt::PosRange> pos;
  rt::RegionRef<int32_t> crd;
};

class TensorStorage {
 public:
  TensorStorage() = default;

  const std::string& name() const { return name_; }
  const Format& format() const { return format_; }
  const std::vector<Coord>& dims() const { return dims_; }
  int order() const { return static_cast<int>(dims_.size()); }
  int64_t nnz() const { return nnz_; }

  const LevelStorage& level(int l) const {
    return levels_.at(static_cast<size_t>(l));
  }
  LevelStorage& level(int l) { return levels_.at(static_cast<size_t>(l)); }
  int num_levels() const { return static_cast<int>(levels_.size()); }
  const rt::RegionRef<double>& vals() const { return vals_; }
  rt::RegionRef<double>& vals() { return vals_; }

  // Total bytes of all stored regions (pos + crd + vals).
  int64_t bytes() const;

  // Visits every stored value with its *logical* coordinates. For all-dense
  // tensors this includes explicit zeros.
  void for_each(
      const std::function<void(const std::array<Coord, rt::kMaxDim>&, double)>&
          fn) const;

  // Converts back to a (sorted, storage-order) coordinate list, dropping
  // explicit zeros.
  Coo to_coo() const;

  // Sparsity sketch computed by pack while it assembles the levels (every
  // storage with data comes from pack). Shared so plan-cache keys reuse one
  // immutable copy instead of re-scanning coordinates per compile.
  const std::shared_ptr<const data::SparsityFingerprint>& fingerprint()
      const {
    return fingerprint_;
  }

  std::string str() const;

 private:
  friend TensorStorage pack(const std::string& name, const Format& format,
                            const std::vector<Coord>& dims, const Coo& coo);

  std::string name_;
  Format format_;
  std::vector<Coord> dims_;
  std::vector<LevelStorage> levels_;
  rt::RegionRef<double> vals_;
  int64_t nnz_ = 0;
  std::shared_ptr<const data::SparsityFingerprint> fingerprint_;
};

// Packs a coordinate list into the given format in two linear passes and
// without copying it: order_entries, then one assembly walk that writes
// pos/crd/vals into exactly sized regions and sketches the fingerprint.
// Entries may arrive in any order; duplicate coordinates are summed, left
// to right in input order, into one stored entry. `dims` are logical
// dimension sizes. A level that stores coordinates (crd) holds them as
// int32, so its extent must not exceed INT32_MAX.
TensorStorage pack(const std::string& name, const Format& format,
                   const std::vector<Coord>& dims, const Coo& coo);

// Exact structural and numerical equality of the stored non-zeros
// (independent of format).
bool storage_equals(const TensorStorage& a, const TensorStorage& b,
                    double tol = 0.0);

}  // namespace spdistal::fmt
