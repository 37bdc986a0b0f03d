// Content-addressed scheme fingerprints — the cache key of the estimation
// service and the dedup key of guided search.
//
// Two (PSDF, PSM, configuration) triples that are byte-different but
// semantically identical must hash to the same digest: XML attribute
// order and whitespace vanish at parse time, and *renumbered/renamed
// internal ids* are normalized here by relabeling every process with its
// canonical index — the position of its Functional Unit in (segment, FU)
// placement order. That order is exactly the arbiters' round-robin order,
// so it is semantically load-bearing and safe to canonicalize on; process
// *names* are not (a consistently renamed scheme emulates identically).
//
// Anything that can change the emulation outcome is folded into the
// digest: flow tuples (T, D, C) with canonical endpoints, package sizes,
// clocks, BU capacities, FU interface counts, the full TimingModel and
// the result-shaping EngineOptions. Deliberately excluded: model/process
// names, SessionConfig::parallel/threads (the parallel engine is
// bit-identical by construction), and diagnostic-only knobs.
#pragma once

#include <string>

#include "core/session.hpp"
#include "emu/engine.hpp"
#include "emu/timing.hpp"
#include "platform/model.hpp"
#include "psdf/model.hpp"
#include "support/status.hpp"

namespace segbus::core {

/// The canonical plain-text serialization the digest is computed over
/// (exposed for tests and debugging; one line per model element). Fails
/// when the mapping is incomplete — canonical ids need every process
/// placed, which validation guarantees for any emulatable pair.
Result<std::string> canonical_scheme(const psdf::PsdfModel& application,
                                     const platform::PlatformModel& platform,
                                     const emu::TimingModel& timing,
                                     const emu::EngineOptions& engine = {});

/// SHA-256 hex digest of canonical_scheme().
Result<std::string> scheme_digest(const psdf::PsdfModel& application,
                                  const platform::PlatformModel& platform,
                                  const emu::TimingModel& timing,
                                  const emu::EngineOptions& engine = {});

/// SessionConfig convenience: digests the config's timing and engine
/// options; the backend selection never affects the key (all backends
/// are bit-identical).
Result<std::string> scheme_digest(const psdf::PsdfModel& application,
                                  const platform::PlatformModel& platform,
                                  const SessionConfig& config);

}  // namespace segbus::core
