#include "format/format.h"

#include <numeric>

#include "common/str_util.h"

namespace spdistal::fmt {

const char* level_kind_name(LevelKind k) {
  switch (k) {
    case LevelKind::Dense:
      return "Dense";
    case LevelKind::Compressed:
      return "Compressed";
    case LevelKind::Singleton:
      return "Singleton";
  }
  return "?";
}

std::string ModeFormat::str() const {
  std::string s = level_kind_name(kind_);
  if (!unique_ && kind_ != LevelKind::Dense) s += "!u";
  return s;
}

Format::Format(std::vector<ModeFormat> modes) : modes_(std::move(modes)) {
  ordering_.resize(modes_.size());
  std::iota(ordering_.begin(), ordering_.end(), 0);
  validate();
}

Format::Format(std::vector<ModeFormat> modes, std::vector<int> mode_ordering)
    : modes_(std::move(modes)), ordering_(std::move(mode_ordering)) {
  validate();
}

void Format::validate() const {
  SPD_CHECK(modes_.size() == ordering_.size(), NotationError,
            "format: ordering has " << ordering_.size() << " entries for "
                                    << modes_.size() << " modes");
  std::vector<bool> seen(modes_.size(), false);
  for (int d : ordering_) {
    SPD_CHECK(d >= 0 && d < order(), NotationError,
              "format: ordering entry " << d << " is out of range [0, "
                                        << order() << ")");
    SPD_CHECK(!seen[static_cast<size_t>(d)], NotationError,
              "format: dimension " << d << " appears twice in the ordering");
    seen[static_cast<size_t>(d)] = true;
  }
  // Level structure rules. A Singleton level stores one coordinate per
  // parent position (positions are shared 1:1 with the parent), so it needs
  // a parent whose positions enumerate stored entries: Compressed or
  // Singleton, never Dense and never the root. A non-unique level resolves
  // its duplicate coordinates through deeper levels, which therefore must
  // all be position-aligned Singletons.
  for (int l = 0; l < order(); ++l) {
    const ModeFormat& m = modes_[static_cast<size_t>(l)];
    if (m.is_singleton()) {
      SPD_CHECK(l > 0, NotationError,
                "format: a Singleton level cannot be the root level");
      SPD_CHECK(modes_[static_cast<size_t>(l - 1)].has_crd(), NotationError,
                "format: a Singleton level must follow a Compressed or "
                "Singleton level, not Dense");
    }
    if (!m.unique() && l + 1 < order()) {
      SPD_CHECK(modes_[static_cast<size_t>(l + 1)].is_singleton(),
                NotationError,
                "format: a non-unique level must be followed by Singleton "
                "levels (its duplicates are resolved per position)");
    }
    SPD_CHECK(m.unique() || l + 1 < order(), NotationError,
              "format: the last level must be unique (duplicates would "
              "alias one value slot)");
  }
}

int Format::level_of_dim(int dim) const {
  for (int l = 0; l < order(); ++l) {
    if (ordering_[static_cast<size_t>(l)] == dim) return l;
  }
  SPD_ASSERT(false, "level_of_dim: dim " << dim << " not in ordering");
  return -1;
}

bool Format::all_dense() const {
  for (const ModeFormat& m : modes_) {
    if (!m.is_dense()) return false;
  }
  return true;
}

std::string Format::str() const {
  std::vector<std::string> parts;
  for (int l = 0; l < order(); ++l) {
    parts.push_back(strprintf("%s(d%d)",
                              modes_[static_cast<size_t>(l)].str().c_str(),
                              dim_of_level(l) + 1));
  }
  // Built with append: GCC 12 at -O3 misreads `"{" + s + "}"` as an
  // overlapping memcpy and warns (-Wrestrict).
  std::string out = "{";
  out.append(join(parts, ", ")).append(1, '}');
  return out;
}

Format dense_vector() { return Format({ModeFormat::Dense()}); }
Format dense_matrix() {
  return Format({ModeFormat::Dense(), ModeFormat::Dense()});
}
Format csr() { return Format({ModeFormat::Dense(), ModeFormat::Compressed()}); }
Format csc() {
  return Format({ModeFormat::Dense(), ModeFormat::Compressed()}, {1, 0});
}
Format dcsr() {
  return Format({ModeFormat::Compressed(), ModeFormat::Compressed()});
}
Format csf3() {
  return Format({ModeFormat::Dense(), ModeFormat::Compressed(),
                 ModeFormat::Compressed()});
}
Format ddc3() {
  return Format(
      {ModeFormat::Dense(), ModeFormat::Dense(), ModeFormat::Compressed()});
}
Format dense3() {
  return Format(
      {ModeFormat::Dense(), ModeFormat::Dense(), ModeFormat::Dense()});
}

Format coo(int order) {
  SPD_CHECK(order >= 1, NotationError, "coo: order must be positive");
  std::vector<ModeFormat> modes;
  modes.push_back(ModeFormat::Compressed(/*unique=*/order == 1));
  for (int l = 1; l < order; ++l) {
    modes.push_back(ModeFormat::Singleton(/*unique=*/l == order - 1));
  }
  return Format(std::move(modes));
}

}  // namespace spdistal::fmt
