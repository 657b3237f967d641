#include "runtime/engine.h"

namespace milr::runtime {

namespace {
ServingHostConfig HostConfigFrom(const EngineConfig& config) {
  ServingHostConfig host;
  host.worker_threads = config.worker_threads;
  host.scrubber_enabled = config.scrubber_enabled;
  host.scrub_period = config.scrub_period;
  host.incident_trace_dir = config.incident_trace_dir;
  return host;
}

ModelRuntimeConfig RuntimeConfigFrom(const EngineConfig& config) {
  ModelRuntimeConfig runtime;
  runtime.queue_capacity = config.queue_capacity;
  runtime.max_batch = config.max_batch;
  runtime.batch_linger = config.batch_linger;
  runtime.kernel = config.kernel;
  runtime.slo_ms = config.slo_ms;
  runtime.slo_target = config.slo_target;
  runtime.milr = config.milr;
  return runtime;
}
}  // namespace

InferenceEngine::InferenceEngine(nn::Model& model, EngineConfig config)
    : config_(config), host_(HostConfigFrom(config)) {
  runtime_ = host_.AddModel(model, RuntimeConfigFrom(config), "engine");
}

}  // namespace milr::runtime
