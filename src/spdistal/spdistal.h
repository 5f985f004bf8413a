// SpDISTAL umbrella header: the complete public API.
//
//   #include "spdistal/spdistal.h"
//
// pulls in the four input languages (tensor index notation, formats, tensor
// distribution notation, scheduling), the Tensor frontend, the compiler
// entry points, the Legion-like runtime, baselines, data generators, and
// I/O. Sub-headers remain individually includable for finer-grained builds.
#pragma once

#include "autosched/autosched.h"   // cost-model-guided schedule search
#include "baselines/common.h"      // baseline classification helpers
#include "baselines/ctf_like.h"    // interpretation baseline
#include "baselines/petsc_like.h"  // library baselines (PETSc/Trilinos)
#include "common/config.h"         // the SPDISTAL_* configuration, read once
#include "compiler/lower.h"        // CompiledKernel / Instance
#include "compiler/plan_ir.h"      // Figure 9b plan traces
#include "data/datasets.h"         // Table II registry
#include "data/generators.h"       // synthetic tensor generators
#include "format/format.h"         // format language (Dense/Compressed)
#include "format/level_format.h"   // Table I level functions
#include "format/storage.h"        // COO + packed storage
#include "obs/obs.h"               // tracing + metrics (SPDISTAL_TRACE/METRICS)
#include "runtime/runtime.h"       // Legion-like runtime + machine model
#include "sched/schedule.h"        // scheduling language
#include "tdn/tdn.h"               // tensor distribution notation
#include "tensor/dense_ref.h"      // brute-force oracle
#include "tensor/io.h"             // MatrixMarket / FROSTT I/O
#include "tensor/tensor.h"         // Tensor frontend + index notation sugar
#include "verify/verify.h"         // plan/privilege/race verifiers (SPDISTAL_VERIFY)
