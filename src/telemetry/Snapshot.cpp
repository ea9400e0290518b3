//===- telemetry/Snapshot.cpp - Snapshot exporters ------------------------===//

#include "telemetry/Snapshot.h"

// orp-analyze: allow(endian-io): writeSnapshot() emits already-serialized
// text (JSON / Prometheus exposition); there are no fixed-width binary
// fields to byte-order.

#include <algorithm>
#include <cstdio>

using namespace orp;
using namespace orp::telemetry;

namespace {

/// Minimal JSON string escaping. Metric names are ASCII identifiers in
/// practice; this covers the worst case anyway.
std::string jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size() + 2);
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

std::string u64(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%llu", static_cast<unsigned long long>(V));
  return Buf;
}

std::string i64(int64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%lld", static_cast<long long>(V));
  return Buf;
}

/// Tiny incremental JSON writer handling commas and optional
/// pretty-printing, so the exporter body reads linearly.
class JsonWriter {
public:
  explicit JsonWriter(bool Pretty) : Pretty(Pretty) {}

  void openObject() {
    value("{");
    ++Depth;
    First = true;
  }
  void closeObject() {
    --Depth;
    if (!First)
      newline();
    Out += '}';
    First = false;
  }
  void openArray() {
    value("[");
    ++Depth;
    First = true;
  }
  void closeArray() {
    --Depth;
    if (!First)
      newline();
    Out += ']';
    First = false;
  }

  /// Starts a "key": entry (comma-separated from the previous one).
  void key(const std::string &K) {
    comma();
    newline();
    Out += '"';
    Out += jsonEscape(K);
    Out += Pretty ? "\": " : "\":";
    Pending = true;
  }

  /// Emits a raw value token (number, or an opening brace via
  /// openObject()).
  void value(const std::string &V) {
    if (!Pending) {
      comma();
      if (Depth > 0)
        newline();
    }
    Pending = false;
    Out += V;
    First = false;
  }

  std::string take() { return std::move(Out); }

private:
  void comma() {
    if (!First)
      Out += ',';
  }
  void newline() {
    if (!Pretty)
      return;
    Out += '\n';
    Out.append(static_cast<size_t>(Depth) * 2, ' ');
  }

  std::string Out;
  bool Pretty;
  bool First = true;
  bool Pending = false;
  int Depth = 0;
};

/// Prometheus-safe metric name: "orp_" prefix, dots and dashes to
/// underscores.
std::string promName(const std::string &Name) {
  std::string Out = "orp_";
  Out.reserve(Name.size() + 4);
  for (char C : Name)
    Out += (C == '.' || C == '-') ? '_' : C;
  return Out;
}

} // namespace

std::string MetricsSnapshot::toJson(bool Pretty) const {
  JsonWriter W(Pretty);
  W.openObject();
  W.key("version");
  W.value(u64(kVersion));

  W.key("counters");
  W.openObject();
  for (const CounterValue &C : Counters) {
    W.key(C.Name);
    W.value(u64(C.Value));
  }
  W.closeObject();

  W.key("gauges");
  W.openObject();
  for (const GaugeValue &G : Gauges) {
    W.key(G.Name);
    W.value(i64(G.Value));
  }
  W.closeObject();

  W.key("histograms");
  W.openObject();
  for (const HistogramValue &H : Histograms) {
    W.key(H.Name);
    W.openObject();
    W.key("count");
    W.value(u64(H.Count));
    W.key("sum");
    W.value(u64(H.Sum));
    W.key("buckets");
    W.openArray();
    for (size_t B = 0; B != H.Buckets.size(); ++B) {
      // Skip empty buckets: 32 fixed buckets per histogram would bury
      // the signal; "le": null marks the unbounded overflow bucket.
      if (!H.Buckets[B])
        continue;
      W.openObject();
      W.key("le");
      bool Unbounded = B + 1 == H.Buckets.size();
      W.value(Unbounded ? "null" : u64(H.Bounds[B]));
      W.key("count");
      W.value(u64(H.Buckets[B]));
      W.closeObject();
    }
    W.closeArray();
    W.closeObject();
  }
  W.closeObject();

  W.key("timers");
  W.openObject();
  for (const TimerValue &T : Timers) {
    W.key(T.Name);
    W.openObject();
    W.key("count");
    W.value(u64(T.Count));
    W.key("total_ns");
    W.value(u64(T.TotalNanos));
    W.closeObject();
  }
  W.closeObject();

  W.closeObject();
  std::string Out = W.take();
  Out += '\n';
  return Out;
}

std::string MetricsSnapshot::toPrometheus() const {
  std::string Out;
  for (const CounterValue &C : Counters) {
    std::string N = promName(C.Name);
    Out += "# TYPE " + N + " counter\n";
    Out += N + " " + u64(C.Value) + "\n";
  }
  for (const GaugeValue &G : Gauges) {
    std::string N = promName(G.Name);
    Out += "# TYPE " + N + " gauge\n";
    Out += N + " " + i64(G.Value) + "\n";
  }
  for (const HistogramValue &H : Histograms) {
    std::string N = promName(H.Name);
    Out += "# TYPE " + N + " histogram\n";
    uint64_t Cum = 0;
    for (size_t B = 0; B != H.Buckets.size(); ++B) {
      Cum += H.Buckets[B];
      bool Unbounded = B + 1 == H.Buckets.size();
      // Emit only the buckets that advance the cumulative count, plus
      // the mandatory +Inf bucket.
      if (!H.Buckets[B] && !Unbounded)
        continue;
      Out += N + "_bucket{le=\"" +
             (Unbounded ? std::string("+Inf") : u64(H.Bounds[B])) + "\"} " +
             u64(Cum) + "\n";
    }
    Out += N + "_count " + u64(H.Count) + "\n";
    Out += N + "_sum " + u64(H.Sum) + "\n";
  }
  for (const TimerValue &T : Timers) {
    std::string N = promName(T.Name);
    Out += "# TYPE " + N + "_count counter\n";
    Out += N + "_count " + u64(T.Count) + "\n";
    Out += "# TYPE " + N + "_ns_total counter\n";
    Out += N + "_ns_total " + u64(T.TotalNanos) + "\n";
  }
  return Out;
}

uint64_t MetricsSnapshot::counter(const std::string &Name) const {
  for (const CounterValue &C : Counters)
    if (C.Name == Name)
      return C.Value;
  return 0;
}

int64_t MetricsSnapshot::gauge(const std::string &Name) const {
  for (const GaugeValue &G : Gauges)
    if (G.Name == Name)
      return G.Value;
  return 0;
}

MetricsSnapshot
MetricsSnapshot::filterByPrefix(const std::string &Prefix) const {
  auto Matches = [&](const std::string &Name) {
    return Name.compare(0, Prefix.size(), Prefix) == 0;
  };
  MetricsSnapshot Out;
  for (const CounterValue &C : Counters)
    if (Matches(C.Name))
      Out.Counters.push_back(C);
  for (const GaugeValue &G : Gauges)
    if (Matches(G.Name))
      Out.Gauges.push_back(G);
  for (const HistogramValue &H : Histograms)
    if (Matches(H.Name))
      Out.Histograms.push_back(H);
  for (const TimerValue &T : Timers)
    if (Matches(T.Name))
      Out.Timers.push_back(T);
  return Out;
}

bool telemetry::writeSnapshot(const MetricsSnapshot &S,
                              const std::string &Path, SnapshotFormat Format,
                              bool Append, std::string &Err) {
  std::string Text;
  switch (Format) {
  case SnapshotFormat::Json:
    Text = S.toJson(true);
    break;
  case SnapshotFormat::JsonCompact:
    Text = S.toJson(false);
    break;
  case SnapshotFormat::Prometheus:
    Text = S.toPrometheus();
    break;
  }
  if (Path == "-") {
    std::fwrite(Text.data(), 1, Text.size(), stdout);
    return true;
  }
  std::FILE *Out = std::fopen(Path.c_str(), Append ? "ab" : "wb");
  if (!Out) {
    Err = "cannot open '" + Path + "' for writing";
    return false;
  }
  bool Ok = std::fwrite(Text.data(), 1, Text.size(), Out) == Text.size();
  if (std::fclose(Out) != 0)
    Ok = false;
  if (!Ok)
    Err = "short write to '" + Path + "'";
  return Ok;
}
