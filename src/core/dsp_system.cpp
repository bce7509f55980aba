#include "core/dsp_system.h"

#include "obs/events.h"

namespace dsp {

RunMetrics simulate(const ClusterSpec& cluster, JobSet jobs,
                    Scheduler& scheduler, PreemptionPolicy* preempt,
                    EngineParams engine_params) {
  Engine engine(cluster, std::move(jobs), scheduler, preempt, engine_params);
  // DSP_EVENT_LOG turns the recorder on for any simulate() caller (the
  // examples, the report-smoke CI stage) without code changes. No other
  // library entry point reads it.
  const std::unique_ptr<obs::EventLog> log = obs::EventLog::from_env();
  engine.set_event_log(log.get());
  return engine.run();
}

}  // namespace dsp
