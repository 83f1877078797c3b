#include "obs/trace.hpp"

#include <algorithm>
#include <charconv>
#include <cstddef>

namespace mineq::obs {

namespace {

/// Track id: a packet's unique (source, inject-cycle) identity folded
/// into one integer. src rides in the high bits; 2^32 cycles of inject
/// headroom keeps every supported run unambiguous while the product
/// stays below 2^53 (exact in JSON doubles) for every supported fabric.
std::uint64_t track_id(const TraceEvent& event) {
  return (static_cast<std::uint64_t>(event.src) << 32) |
         (event.inject_cycle & 0xFFFFFFFFULL);
}

void append_u64(std::string& out, std::uint64_t value) {
  char buffer[20];  // 2^64 - 1 has 20 digits
  const std::to_chars_result result =
      std::to_chars(buffer, buffer + sizeof buffer, value);
  out.append(buffer, result.ptr);
}

/// Upper bound on one serialized event plus its ",\n" separator: the
/// longest kind (a stall named "downstream_full") with 20-digit ts and
/// tid, a 10-digit pid and a 3-digit stage is 156 bytes.
constexpr std::size_t kMaxEventBytes = 160;
/// Upper bound on the document frame plus one process's metadata event,
/// without its name.
constexpr std::size_t kMaxFrameBytes = 128;

/// Capacity that holds one process's share of the document, so the
/// output is reserved once instead of growing by doubling: the untouched
/// tail of the reservation is never written and stays out of the RSS.
std::size_t process_bound(std::string_view name,
                          const std::vector<TraceEvent>& events) {
  return kMaxFrameBytes + name.size() + events.size() * kMaxEventBytes;
}

void append_common(std::string& out, const TraceEvent& event,
                   std::uint32_t pid) {
  out += "\"ts\":";
  append_u64(out, event.cycle);
  out += ",\"pid\":";
  append_u64(out, pid);
  out += ",\"tid\":";
  append_u64(out, track_id(event));
}

void append_event(std::string& out, const TraceEvent& event,
                  std::uint32_t pid) {
  switch (event.kind) {
    case TraceEventKind::kPacketBegin:
      out += "{\"name\":\"pkt\",\"cat\":\"packet\",\"ph\":\"B\",";
      append_common(out, event, pid);
      out += ",\"args\":{\"src\":";
      append_u64(out, event.src);
      out += ",\"dst\":";
      append_u64(out, event.dst);
      out += "}}";
      return;
    case TraceEventKind::kPacketEnd:
      out += "{\"name\":\"pkt\",\"cat\":\"packet\",\"ph\":\"E\",";
      append_common(out, event, pid);
      out += '}';
      return;
    case TraceEventKind::kStageBegin:
    case TraceEventKind::kStageEnd:
      out += "{\"name\":\"stage ";
      append_u64(out, event.stage);
      out += "\",\"cat\":\"hop\",\"ph\":\"";
      out += event.kind == TraceEventKind::kStageBegin ? 'B' : 'E';
      out += "\",";
      append_common(out, event, pid);
      out += '}';
      return;
    case TraceEventKind::kStall:
      out += "{\"name\":\"stall ";
      out += stall_cause_name(static_cast<StallCause>(event.cause));
      out += "\",\"cat\":\"stall\",\"ph\":\"i\",\"s\":\"t\",";
      append_common(out, event, pid);
      out += ",\"args\":{\"stage\":";
      append_u64(out, event.stage);
      out += "}}";
      return;
    case TraceEventKind::kReroute:
      out += "{\"name\":\"reroute\",\"cat\":\"route\",\"ph\":\"i\","
             "\"s\":\"t\",";
      append_common(out, event, pid);
      out += ",\"args\":{\"stage\":";
      append_u64(out, event.stage);
      out += "}}";
      return;
    case TraceEventKind::kDrop:
      out += "{\"name\":\"drop\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"t\",";
      append_common(out, event, pid);
      out += ",\"args\":{\"stage\":";
      append_u64(out, event.stage);
      out += "}}";
      return;
  }
}

void append_process(std::string& out, std::string_view name,
                    const std::vector<TraceEvent>& events, std::uint32_t pid,
                    bool& first) {
  if (!first) out += ",\n";
  first = false;
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
  append_u64(out, pid);
  out += ",\"tid\":0,\"args\":{\"name\":\"";
  out += name;
  out += "\"}}";
  for (const TraceEvent& event : events) {
    out += ",\n";
    append_event(out, event, pid);
  }
}

}  // namespace

void sort_trace(std::vector<TraceEvent>& events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.cycle != b.cycle) return a.cycle < b.cycle;
                     return a.phase < b.phase;
                   });
}

std::string trace_json(const std::vector<TraceEvent>& events,
                       std::uint32_t pid, std::string_view process_name) {
  std::string out;
  out.reserve(process_bound(process_name, events));
  out += "{\"traceEvents\":[\n";
  bool first = true;
  append_process(out, process_name, events, pid, first);
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

std::string trace_json_multi(
    const std::vector<std::pair<std::string, const std::vector<TraceEvent>*>>&
        processes) {
  std::size_t bound = 0;
  for (const auto& [name, events] : processes) {
    bound += process_bound(name, *events);
  }
  std::string out;
  out.reserve(bound);
  out += "{\"traceEvents\":[\n";
  bool first = true;
  for (std::uint32_t pid = 0; pid < processes.size(); ++pid) {
    append_process(out, processes[pid].first, *processes[pid].second, pid,
                   first);
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

}  // namespace mineq::obs
