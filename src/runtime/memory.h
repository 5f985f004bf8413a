// Simulated memory capacity accounting.
//
// Physical data lives once in the host address space; what we model is
// *instances*: the bytes a sub-region occupies in a simulated memory when a
// task mapped there needs it. Allocation beyond capacity throws
// OutOfMemoryError, which benchmark harnesses surface as "DNC" exactly like
// Figure 11 of the paper. Peak usage is reported per memory.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/error.h"
#include "runtime/machine.h"

namespace spdistal::rt {

class MemoryPool {
 public:
  MemoryPool() = default;
  MemoryPool(Mem mem, double capacity_bytes)
      : mem_(mem), capacity_(capacity_bytes) {}

  const Mem& mem() const { return mem_; }
  double capacity() const { return capacity_; }
  double used() const { return used_; }
  double peak() const { return peak_; }

  // Reserves `bytes`; throws OutOfMemoryError when over capacity unless the
  // pool allows oversubscription (UVM-style paging, used by the
  // Trilinos-like baseline); returns the number of bytes *over* capacity
  // after the allocation (0 when it fits), which the caller charges as
  // paging traffic.
  double allocate(double bytes, const std::string& what);
  void release(double bytes);
  void release_all() { used_ = 0; }

  void set_allow_oversubscription(bool allow) { allow_oversub_ = allow; }

 private:
  Mem mem_;
  double capacity_ = 0;
  double used_ = 0;
  double peak_ = 0;
  bool allow_oversub_ = false;
};

// All memory pools of a machine.
class MemorySystem {
 public:
  MemorySystem() = default;
  explicit MemorySystem(const Machine& machine);

  MemoryPool& pool(const Mem& mem);
  const MemoryPool& pool(const Mem& mem) const;

  // Total peak across pools of one kind.
  double peak(MemKind kind) const;
  void release_all();
  void set_allow_oversubscription(bool allow);

 private:
  std::map<Mem, MemoryPool> pools_;
};

}  // namespace spdistal::rt
