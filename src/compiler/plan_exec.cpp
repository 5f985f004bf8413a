#include "compiler/lower.h"
#include "obs/trace.h"

namespace spdistal::comp {

Instance::~Instance() {
  if (runtime_ == nullptr) return;
  try {
    runtime_->flush();
  } catch (...) {
    // Deferred errors belong to wait()/flush() callers; a destructor drain
    // only guarantees no enqueued body outlives the piece bounds it reads.
  }
}

void Instance::run(int iters) {
  run_async(iters).wait();
  // Anything still in flight (e.g. an unrelated instance sharing the
  // runtime) is intentionally left running; waiting on our own last launch
  // is what makes the output readable on return.
}

exec::Future Instance::run_async(int iters) {
  SPD_ASSERT(runtime_ != nullptr, "Instance not bound to a runtime");
  exec::Future last;
  auto vals = output_.storage().vals();
  for (int it = 0; it < iters; ++it) {
    // Assignment semantics: the output is rebuilt every iteration; leaves
    // accumulate into zeroed values (reduction-safe for overlapping
    // non-zero partitions). The zeroing rides the task graph as a host
    // task with write privilege, so it orders after the previous
    // iteration's reductions and before this iteration's leaves without
    // joining the pipeline.
    // Named only while a capture is live, as the runtime names its tasks.
    runtime_->run_host_task(obs::TraceRecorder::global().active()
                                ? "zero " + output_.name()
                                : std::string(),
                            {rt::HostAccess{vals, rt::Privilege::WO}},
                            [vals] { vals->fill(0.0); });
    if (prepared_ == nullptr) prepared_ = runtime_->prepare(launch_);
    last = runtime_->execute(prepared_);
  }
  return last;
}

}  // namespace spdistal::comp
