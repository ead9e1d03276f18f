// The provenance block every BENCH_*.json carries under the "meta" key:
// git SHA, build flags, the box's hardware_concurrency, and the GEMM kernel
// variant the process dispatched to (kernel_isa). Without it a
// bench trajectory across commits/boxes is unattributable — a regression
// report cannot say whether the code or the machine changed.
// check_regression.py never gates on it, but prints a WARNING when the
// baseline and fresh runs differ in build flags or core count.
//
// The SHA/flags themselves live in obs/build_info.hpp (header-only
// accessors over top-level configure-time definitions), shared with the
// admin plane's /statusz so a bench JSON and a serving process report the
// same provenance.
#pragma once

#include <algorithm>
#include <ostream>
#include <string>
#include <thread>

#include "math/matrix.hpp"
#include "obs/build_info.hpp"

namespace mev::bench {

inline std::string meta_json_escape(const char* s) {
  std::string out;
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') out += '\\';
    if (static_cast<unsigned char>(*s) >= 0x20) out += *s;
  }
  return out;
}

/// Writes `"meta": {...}` (no trailing comma or newline) at `indent`.
inline void write_meta_json(std::ostream& os, const char* indent = "  ") {
  os << indent << "\"meta\": {\"git_sha\": \""
     << meta_json_escape(mev::obs::build_git_sha()) << "\", \"build_flags\": \""
     << meta_json_escape(mev::obs::build_flags())
     << "\", \"hardware_concurrency\": "
     << std::max(1u, std::thread::hardware_concurrency())
     << ", \"kernel_isa\": \"" << mev::math::kernel_isa() << "\"}";
}

}  // namespace mev::bench
