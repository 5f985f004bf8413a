// Umbrella header for the observability subsystem: the metrics registry
// (obs/metrics.h), the Perfetto trace recorder and OBS_SPAN macro
// (obs/trace.h), and the sinks configured in common/config.h:
//   SPDISTAL_TRACE=f.json     capture a Chrome/Perfetto trace (every event,
//                             kept as a plain record), render and write it
//                             at exit
//   SPDISTAL_METRICS=f.json   dump the metrics registry as JSON at exit
//
// Observability (obs::enabled) is on when a trace or metrics sink is
// configured, or when a program calls obs::set_enabled(true).
#pragma once

#include "obs/metrics.h"
#include "obs/trace.h"
