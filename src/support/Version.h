//===- support/Version.h - Build identification ----------------*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Build identification for the `--version`/`version` verbs of the
/// CLI tools: tool version, the .orpt format versions this build can
/// read, and the build-flag facts (check level, sanitizers) a bug
/// report needs. Header-only so tools don't gain a library dependency
/// just to print a banner.
///
//===----------------------------------------------------------------------===//

#ifndef ORP_SUPPORT_VERSION_H
#define ORP_SUPPORT_VERSION_H

#include <cstdio>

namespace orp {
namespace support {

/// The toolkit version. Tracks the PR sequence of this repository, not
/// any external release scheme.
constexpr const char *kVersionString = "0.9.0";

/// The .orpt format version this build writes and reads
/// (traceio::kFormatVersionV2, columnar blocks).
constexpr unsigned kTraceFormatVersion = 2;

/// True when this build has AddressSanitizer compiled in.
constexpr bool builtWithAsan() {
#if defined(__SANITIZE_ADDRESS__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

/// True when this build has ThreadSanitizer compiled in.
constexpr bool builtWithTsan() {
#if defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

/// The ORP_CHECK_LEVEL this build was compiled at.
constexpr int checkLevel() {
#ifdef ORP_CHECK_LEVEL
  return ORP_CHECK_LEVEL;
#else
  return 0;
#endif
}

/// Prints the standard version banner for tool \p ToolName to stdout.
inline void printVersion(const char *ToolName) {
  std::printf("%s (orp) %s\n", ToolName, kVersionString);
  std::printf("  trace format: .orpt v%u\n", kTraceFormatVersion);
  std::printf("  advice format: .orpa v1\n");
  std::printf("  check level:  ORP_CHECK_LEVEL=%d\n", checkLevel());
  std::printf("  sanitizers:   %s%s%s\n", builtWithAsan() ? "asan " : "",
              builtWithTsan() ? "tsan " : "",
              (!builtWithAsan() && !builtWithTsan()) ? "none" : "");
}

} // namespace support
} // namespace orp

#endif // ORP_SUPPORT_VERSION_H
