// Umbrella header: the full public API of the SegBus performance-estimation
// library. Include this to get everything:
//
//   #include "core/segbus.hpp"
//
//   auto app      = segbus::apps::mp3_decoder_psdf();
//   auto platform = segbus::apps::mp3_platform_three_segments(*app);
//   auto session  = segbus::core::EmulationSession::from_models(*app,
//                                                               *platform);
//   auto result   = session->emulate();
//   std::cout << segbus::core::render_paper_report(*result, *platform);
#pragma once

#include "core/accuracy.hpp"     // IWYU pragma: export
#include "core/advisor.hpp"     // IWYU pragma: export
#include "core/diff.hpp"        // IWYU pragma: export
#include "core/energy.hpp"      // IWYU pragma: export
#include "core/json_export.hpp"  // IWYU pragma: export
#include "core/report.hpp"       // IWYU pragma: export
#include "core/session.hpp"      // IWYU pragma: export
#include "core/svg_export.hpp"   // IWYU pragma: export
#include "emu/engine.hpp"        // IWYU pragma: export
#include "emu/parallel.hpp"      // IWYU pragma: export
#include "emu/stats.hpp"         // IWYU pragma: export
#include "emu/timing.hpp"        // IWYU pragma: export
#include "emu/trace.hpp"         // IWYU pragma: export
#include "emu/vcd.hpp"           // IWYU pragma: export
#include "m2t/codegen.hpp"       // IWYU pragma: export
#include "m2t/template.hpp"      // IWYU pragma: export
#include "place/apply.hpp"       // IWYU pragma: export
#include "place/placer.hpp"      // IWYU pragma: export
#include "platform/constraints.hpp"  // IWYU pragma: export
#include "platform/model.hpp"        // IWYU pragma: export
#include "platform/platform_xml.hpp" // IWYU pragma: export
#include "psdf/comm_matrix.hpp"  // IWYU pragma: export
#include "psdf/dot.hpp"          // IWYU pragma: export
#include "psdf/model.hpp"        // IWYU pragma: export
#include "psdf/psdf_xml.hpp"     // IWYU pragma: export
#include "psdf/validate.hpp"     // IWYU pragma: export
#include "xml/parser.hpp"        // IWYU pragma: export
#include "xml/writer.hpp"        // IWYU pragma: export
