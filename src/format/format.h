// The format language (paper §II-B): per-dimension level formats and mode
// orderings. A k-dimensional tensor is stored as k levels, each described by
// a property-driven ModeFormat descriptor (Chou et al., "Format Abstraction
// for Sparse Tensor Algebra Compilers"): a level *kind* (Dense, Compressed
// or Singleton) plus capability flags (unique/full/branchless/compact) the
// compiler consults instead of switching on a closed enum.
//
// CSR is {Dense, Compressed} with identity ordering; CSC is the same modes
// with ordering {1, 0} (Figure 3); DCSR is {Compressed, Compressed}; COO is
// a Compressed(non-unique) root followed by a Singleton chain — one stored
// coordinate per position, positions shared 1:1 with the parent level.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.h"

namespace spdistal::fmt {

enum class LevelKind : uint8_t { Dense, Compressed, Singleton };

const char* level_kind_name(LevelKind k);

// Per-level descriptor: kind + properties. Value type, cheap to copy.
//
// Properties (per Chou et al. Table 1):
//   * full:       every coordinate of the dimension appears (Dense only);
//   * unique:     no duplicate coordinates below one parent position — a
//     Compressed(unique=false) level stores one position per stored entry
//     (the root of a COO chain), so the same coordinate may repeat;
//   * branchless: positions map 1:1 onto the parent level's positions with
//     no pos indirection (Singleton);
//   * compact:    no unused positions between stored entries (non-Dense).
class ModeFormat {
 public:
  constexpr ModeFormat() = default;  // Dense

  static constexpr ModeFormat Dense() {
    return ModeFormat(LevelKind::Dense, /*unique=*/true);
  }
  static constexpr ModeFormat Compressed(bool unique = true) {
    return ModeFormat(LevelKind::Compressed, unique);
  }
  static constexpr ModeFormat Singleton(bool unique = true) {
    return ModeFormat(LevelKind::Singleton, unique);
  }

  constexpr LevelKind kind() const { return kind_; }
  constexpr bool is_dense() const { return kind_ == LevelKind::Dense; }
  constexpr bool is_compressed() const {
    return kind_ == LevelKind::Compressed;
  }
  constexpr bool is_singleton() const {
    return kind_ == LevelKind::Singleton;
  }

  // --- properties -------------------------------------------------------------
  constexpr bool full() const { return kind_ == LevelKind::Dense; }
  constexpr bool unique() const { return unique_; }
  constexpr bool branchless() const { return kind_ == LevelKind::Singleton; }
  constexpr bool compact() const { return kind_ != LevelKind::Dense; }

  // --- storage capabilities ---------------------------------------------------
  // Which regions the level materializes: Dense stores nothing, Compressed
  // stores pos + crd, Singleton stores crd only.
  constexpr bool has_pos() const { return kind_ == LevelKind::Compressed; }
  constexpr bool has_crd() const {
    return kind_ == LevelKind::Compressed || kind_ == LevelKind::Singleton;
  }

  bool operator==(const ModeFormat&) const = default;

  // "Dense", "Compressed" or "Singleton"; a non-unique level appends "!u".
  std::string str() const;

 private:
  constexpr ModeFormat(LevelKind kind, bool unique)
      : kind_(kind), unique_(unique) {}

  LevelKind kind_ = LevelKind::Dense;
  bool unique_ = true;
};

class Format {
 public:
  Format() = default;

  // Identity mode ordering: level d stores logical dimension d.
  explicit Format(std::vector<ModeFormat> modes);

  // Explicit ordering: level d stores logical dimension mode_ordering[d].
  Format(std::vector<ModeFormat> modes, std::vector<int> mode_ordering);

  int order() const { return static_cast<int>(modes_.size()); }
  ModeFormat mode(int level) const {
    return modes_.at(static_cast<size_t>(level));
  }
  const std::vector<ModeFormat>& modes() const { return modes_; }
  // The logical dimension stored at `level`.
  int dim_of_level(int level) const {
    return ordering_.at(static_cast<size_t>(level));
  }
  // The level storing logical dimension `dim`.
  int level_of_dim(int dim) const;
  const std::vector<int>& ordering() const { return ordering_; }

  bool all_dense() const;
  std::string str() const;
  bool operator==(const Format&) const = default;

 private:
  void validate() const;

  std::vector<ModeFormat> modes_;
  std::vector<int> ordering_;
};

// Common formats.
Format dense_vector();
Format dense_matrix();
Format csr();
Format csc();
Format dcsr();  // {Compressed, Compressed}
// CSF for 3-tensors: {Dense, Compressed, Compressed} (the format used for
// all paper 3-tensors except "patents").
Format csf3();
// "patents" format: {Dense, Dense, Compressed}.
Format ddc3();
Format dense3();
// COO of the given order: a Compressed(non-unique) root level followed by a
// Singleton chain (only the last level's coordinates are unique). coo(1)
// degenerates to a sparse vector {Compressed}.
Format coo(int order);

}  // namespace spdistal::fmt
