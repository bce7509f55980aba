#include "sim/task_runtime.h"

namespace dsp {

void TaskRuntime::init(const JobSet& jobs) {
  jobs_ = &jobs;
  job_offset_.resize(jobs.size());
  Gid next = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    job_offset_[j] = next;
    next += static_cast<Gid>(jobs[j].task_count());
  }
  task_job_.resize(next);
  task_index_.resize(next);
  rt_.resize(next);
  state_bits_.assign(next, 0);
  queued_remaining_mi_.assign(next, 0.0);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    for (TaskIndex t = 0; t < jobs[j].task_count(); ++t) {
      const Gid g = job_offset_[j] + t;
      task_job_[g] = static_cast<JobId>(j);
      task_index_[g] = t;
      rt_[g].unfinished_parents =
          static_cast<std::uint32_t>(jobs[j].graph().parents(t).size());
      if (rt_[g].unfinished_parents == 0) state_bits_[g] = kReadyBit;
    }
  }

  job_rt_.resize(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j)
    job_rt_[j].unfinished_tasks =
        static_cast<std::uint32_t>(jobs[j].task_count());
}

}  // namespace dsp
