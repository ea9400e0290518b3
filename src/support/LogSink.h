//===- support/LogSink.h - Process-wide diagnostic output sink -*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The repository's single diagnostic-output discipline. Library and
/// tool code never calls fprintf(stderr, ...) directly (lint rule
/// log-sink): everything funnels through logMessage(), which
///
///   * writes to one redirectable diagnostic stream (default stderr),
///     so tests and embedders can capture or silence diagnostics;
///   * counts messages per severity in always-on atomic counters that
///     the telemetry registry folds into every MetricsSnapshot — the
///     "telemetry-aware" half: a run that logged errors is visible in
///     its metrics even when stderr was thrown away.
///
/// Report output (tables, experiment results) is separate from
/// diagnostics and goes to the report stream (default stdout), which
/// TablePrinter uses when no explicit stream is passed.
///
//===----------------------------------------------------------------------===//

#ifndef ORP_SUPPORT_LOGSINK_H
#define ORP_SUPPORT_LOGSINK_H

#include <cstdarg>
#include <cstdint>
#include <cstdio>

namespace orp {
namespace support {

/// Message severities, in increasing order.
enum class LogLevel : unsigned { Info = 0, Warn = 1, Error = 2, Fatal = 3 };

/// Number of severities (size of per-level counter arrays).
constexpr unsigned kNumLogLevels = 4;

/// Returns a short lowercase name ("info", "warn", "error", "fatal").
const char *logLevelName(LogLevel Level);

/// Formats \p Fmt printf-style and writes it, followed by a newline, to
/// the diagnostic stream. Also bumps the per-level message counter.
void logMessage(LogLevel Level, const char *Fmt, ...)
    __attribute__((format(printf, 2, 3)));

/// va_list variant of logMessage() for wrappers.
void logMessageV(LogLevel Level, const char *Fmt, std::va_list Args);

/// Redirects diagnostics to \p Stream (nullptr restores stderr).
/// Returns the previously active stream. Not thread-safe against
/// concurrent logMessage() calls; redirect before spawning workers.
std::FILE *setLogStream(std::FILE *Stream);

/// The currently active diagnostic stream.
std::FILE *logStream();

/// Redirects report output (nullptr restores stdout); returns the
/// previous stream. Same thread-safety caveat as setLogStream().
std::FILE *setReportStream(std::FILE *Stream);

/// The currently active report stream (TablePrinter's default).
std::FILE *reportStream();

/// Messages logged at \p Level since process start. Monotonic; safe to
/// read from any thread (relaxed).
uint64_t logMessageCount(LogLevel Level);

} // namespace support
} // namespace orp

#endif // ORP_SUPPORT_LOGSINK_H
