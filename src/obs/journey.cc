#include "obs/journey.h"

namespace simr::obs
{

const char *
journeyModeName(JourneyMode m)
{
    switch (m) {
      case JourneyMode::Off: return "off";
      case JourneyMode::Sampled: return "sampled";
      case JourneyMode::All: return "all";
    }
    return "?";
}

const char *
stageName(JStage s)
{
    switch (s) {
      case JStage::Arrival: return "arrival";
      case JStage::BatchFormed: return "batch-formed";
      case JStage::TierEnqueue: return "enqueue";
      case JStage::TierStart: return "service-start";
      case JStage::TierDone: return "service-done";
      case JStage::ReconvJoin: return "reconv-join";
      case JStage::Completion: return "completion";
      case JStage::CacheOutcome: return "cache-outcome";
      case JStage::SplitRetry: return "split-retry";
    }
    return "?";
}

JourneyRecorder::JourneyRecorder(JourneyMode mode, size_t capacity,
                                 uint64_t seed)
    : mode_(mode), capacity_(capacity ? capacity : 1), seed_(seed)
{}

void
JourneyRecorder::clear()
{
    seen_ = 0;
    journeys_.clear();
}

} // namespace simr::obs
