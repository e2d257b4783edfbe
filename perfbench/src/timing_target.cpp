#include "timing_target.h"

namespace perfbench {

using ncsw::core::Target;

Target::BatchExec TimingTarget::execute_batch(std::int64_t images, int batch,
                                              double submit_s,
                                              bool /*aligned*/) {
  SpanRecorder::Scope span(&spans_, "core.submit");
  images_ += images;
  const ncsw::core::Ticket ticket = inner_.submit(images, batch, submit_s);
  const ncsw::core::TicketInfo info = inner_.info(ticket);
  BatchExec exec;
  exec.run = inner_.wait(ticket);  // rethrows a failed execution
  exec.start_s = info.start_s;
  exec.complete_s = info.complete_s;
  return exec;
}

std::vector<ncsw::core::Prediction> TimingTarget::classify(
    const std::vector<ncsw::tensor::TensorF>& inputs) {
  SpanRecorder::Scope span(&spans_, "core.classify");
  return inner_.classify(inputs);
}

}  // namespace perfbench
