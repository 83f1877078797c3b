#include "workload/workload.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/flow.hpp"

namespace mineq::workload {

const std::vector<Kind>& all_kinds() {
  static const std::vector<Kind> kinds = {
      Kind::kOpen,
      Kind::kClosedLoop,
      Kind::kTrace,
  };
  return kinds;
}

std::string kind_name(Kind kind) {
  switch (kind) {
    case Kind::kOpen:
      return "open";
    case Kind::kClosedLoop:
      return "closedloop";
    case Kind::kTrace:
      return "trace";
  }
  throw std::invalid_argument("kind_name: unknown workload kind");
}

Kind parse_kind(std::string_view name) {
  for (Kind kind : all_kinds()) {
    if (kind_name(kind) == name) return kind;
  }
  std::string valid;
  for (Kind kind : all_kinds()) {
    if (!valid.empty()) valid += ", ";
    valid += kind_name(kind);
  }
  throw std::invalid_argument("parse_kind: unknown workload \"" +
                              std::string(name) + "\" (valid: " + valid + ')');
}

void Spec::validate() const {
  if (rr_window == 0) {
    throw std::invalid_argument(
        "workload: rr_window must be positive (a zero-request window can "
        "never inject)");
  }
  if (time_compression == 0) {
    throw std::invalid_argument(
        "workload: time_compression must be positive");
  }
  if (kind == Kind::kTrace && trace == nullptr) {
    throw std::invalid_argument(
        "workload: trace replay needs a loaded trace "
        "(SimConfig::workload.trace is null)");
  }
}

namespace {

[[noreturn]] void trace_fail(std::size_t line, const std::string& message) {
  throw std::invalid_argument("workload trace line " + std::to_string(line) +
                              ": " + message);
}

/// One whitespace-separated token of \p text starting at \p pos (updated
/// past the token); empty at end of text.
std::string_view next_token(std::string_view text, std::size_t& pos) {
  while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t')) ++pos;
  const std::size_t start = pos;
  while (pos < text.size() && text[pos] != ' ' && text[pos] != '\t') ++pos;
  return text.substr(start, pos - start);
}

std::uint64_t parse_field(std::string_view token, const char* field,
                          std::size_t line) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc{} || ptr != token.data() + token.size()) {
    trace_fail(line, std::string(field) + " \"" + std::string(token) +
                         "\" is not an unsigned integer");
  }
  return value;
}

}  // namespace

TraceData parse_trace(std::string_view text) {
  TraceData data;
  std::uint64_t last_cycle = 0;
  std::size_t line_number = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::size_t end = eol == std::string_view::npos ? text.size() : eol;
    std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    std::size_t at = 0;
    const std::string_view first = next_token(line, at);
    if (first.empty() || first.front() == '#') {
      if (eol == std::string_view::npos) break;
      continue;
    }
    TraceRecord record;
    record.line = static_cast<std::uint32_t>(line_number);
    record.cycle = parse_field(first, "cycle", line_number);
    const std::string_view src = next_token(line, at);
    const std::string_view dst = next_token(line, at);
    const std::string_view size = next_token(line, at);
    if (size.empty()) {
      trace_fail(line_number,
                 "expected `cycle src dst size [tag]`, got \"" +
                     std::string(line) + '"');
    }
    record.src =
        static_cast<std::uint32_t>(parse_field(src, "src", line_number));
    record.dst =
        static_cast<std::uint32_t>(parse_field(dst, "dst", line_number));
    const std::uint64_t size_value = parse_field(size, "size", line_number);
    if (size_value == 0) trace_fail(line_number, "size must be positive");
    record.size = static_cast<std::uint32_t>(size_value);
    const std::string_view tag = next_token(line, at);
    if (!tag.empty()) {
      const std::uint64_t tag_value = parse_field(tag, "tag", line_number);
      if (tag_value > kTagReply) {
        trace_fail(line_number, "tag " + std::to_string(tag_value) +
                                    " is not 0 (none), 1 (request) or 2 "
                                    "(reply)");
      }
      record.tag = static_cast<std::uint8_t>(tag_value);
    }
    const std::string_view extra = next_token(line, at);
    if (!extra.empty() && extra.front() != '#') {
      trace_fail(line_number,
                 "trailing field \"" + std::string(extra) + '"');
    }
    if (record.cycle < last_cycle) {
      trace_fail(line_number, "cycle " + std::to_string(record.cycle) +
                                  " runs backwards (previous record was at "
                                  "cycle " +
                                  std::to_string(last_cycle) + ')');
    }
    last_cycle = record.cycle;
    data.records.push_back(record);
    if (eol == std::string_view::npos) break;
  }
  return data;
}

std::string write_trace(const std::vector<TraceRecord>& records) {
  std::string out;
  out += "# mineq workload trace: cycle src dst size [tag]\n";
  out += "# tag: 1 = request, 2 = reply; omitted or 0 = untagged\n";
  for (const TraceRecord& record : records) {
    out += std::to_string(record.cycle);
    out += ' ';
    out += std::to_string(record.src);
    out += ' ';
    out += std::to_string(record.dst);
    out += ' ';
    out += std::to_string(record.size);
    if (record.tag != kTagNone) {
      out += ' ';
      out += std::to_string(record.tag);
    }
    out += '\n';
  }
  return out;
}

// --- WorkloadSource defaults -----------------------------------------------

void WorkloadSource::tick(std::uint64_t, bool) {}

void WorkloadSource::commit(std::uint64_t, std::uint32_t, const Injection&) {}

bool WorkloadSource::wants_deliveries() const { return false; }

void WorkloadSource::deliver(const Delivery&) {}

void WorkloadSource::set_service_recorder(obs::FlowRecorder*) {}

void WorkloadSource::finish(sim::SimResult&) {}

// --- SyntheticSource -------------------------------------------------------

void SyntheticSource::tick(std::uint64_t, bool) { tick_fast(); }

bool SyntheticSource::attempt(std::uint64_t, std::uint32_t terminal) {
  return attempt_fast(terminal);
}

Injection SyntheticSource::draw(std::uint64_t, std::uint32_t terminal) {
  return draw_fast(terminal);
}

// --- ClosedLoopSource ------------------------------------------------------

ClosedLoopSource::ClosedLoopSource(sim::Pattern pattern, int address_digits,
                                   int radix, const sim::SimConfig& config,
                                   std::uint64_t terminals,
                                   std::size_t reply_histogram_buckets)
    : source_(pattern, address_digits, radix,
              util::SplitMix64(config.seed).split(0),
              pattern == sim::Pattern::kPermutation
                  ? config.permutation
                  : std::vector<std::uint32_t>{}),
      gate_rng_(util::SplitMix64(config.seed).split(1)),
      rate_num_(static_cast<std::uint64_t>(config.injection_rate * 65536.0)),
      window_(config.workload.rr_window),
      outstanding_(terminals, 0),
      replies_(terminals),
      in_flight_(terminals),
      reply_histogram_(1.0, reply_histogram_buckets) {}

void ClosedLoopSource::tick(std::uint64_t, bool measuring) {
  measuring_ = measuring;
  source_.tick();
}

bool ClosedLoopSource::attempt(std::uint64_t, std::uint32_t terminal) {
  // A pending reply injects as soon as the server's turn comes — service
  // is not gated, only request generation is.
  if (!replies_[terminal].empty()) return true;
  if ((gate_rng_.next() & 0xFFFF) >= rate_num_) return false;
  if (outstanding_[terminal] >= window_) {
    // The client wanted to issue a request but its window is full: the
    // self-throttling event the sweep reports as window_stall_cycles.
    if (measuring_) ++window_stalls_;
    return false;
  }
  return true;
}

Injection ClosedLoopSource::draw(std::uint64_t, std::uint32_t terminal) {
  if (!replies_[terminal].empty()) {
    return {replies_[terminal].front().client, kTagReply};
  }
  return {source_.destination(terminal), kTagRequest};
}

void ClosedLoopSource::commit(std::uint64_t, std::uint32_t terminal,
                              const Injection& injection) {
  if (injection.tag == kTagReply) {
    const PendingReply reply = replies_[terminal].front();
    replies_[terminal].pop_front();
    in_flight_[reply.client].push_back({terminal, reply.request_inject});
    return;
  }
  ++outstanding_[terminal];
}

bool ClosedLoopSource::wants_deliveries() const { return true; }

void ClosedLoopSource::deliver(const Delivery& delivery) {
  if (delivery.tag == kTagRequest) {
    if (delivery.terminal != delivery.dest) {
      // A misdelivered request is lost: no reply will come, so free the
      // client's window slot instead of leaking it shut.
      ++orphans_;
      if (outstanding_[delivery.src] > 0) --outstanding_[delivery.src];
      return;
    }
    replies_[delivery.dest].push_back({delivery.src, delivery.inject_cycle});
    return;
  }
  if (delivery.tag != kTagReply) return;
  const std::uint32_t server = delivery.src;
  const std::uint32_t client = delivery.dest;
  std::vector<InFlightReply>& in_flight = in_flight_[client];
  const auto it = std::find_if(
      in_flight.begin(), in_flight.end(),
      [server](const InFlightReply& reply) { return reply.server == server; });
  if (it == in_flight.end()) {
    // A reply with no matching request in flight (only reachable via
    // faulted misdelivery of an earlier reply of the same pair).
    ++orphans_;
    return;
  }
  const std::uint64_t request_inject = it->request_inject;
  in_flight.erase(it);
  if (outstanding_[client] > 0) --outstanding_[client];
  if (delivery.terminal != delivery.dest) {
    ++orphans_;
    return;
  }
  const double latency =
      static_cast<double>(delivery.eject_cycle - request_inject);
  if (delivery.measured) {
    reply_stats_.add(latency);
    reply_histogram_.add(latency);
    if (service_ != nullptr) {
      service_->record_service(client, server, latency);
    }
  }
}

void ClosedLoopSource::set_service_recorder(obs::FlowRecorder* recorder) {
  service_ = recorder;
}

void ClosedLoopSource::finish(sim::SimResult& result) {
  result.window_stall_cycles = window_stalls_;
  result.reply_orphans = orphans_;
  result.reply_latency = reply_stats_;
  result.reply_latency_histogram = reply_histogram_;
}

// --- TraceSource -----------------------------------------------------------

TraceSource::TraceSource(const Spec& spec, std::uint64_t terminals,
                         std::size_t packet_length)
    : per_terminal_(terminals), cursor_(terminals, 0) {
  const std::vector<TraceRecord>& records = spec.trace->records;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const TraceRecord& record = records[i];
    const std::string where =
        record.line != 0 ? "line " + std::to_string(record.line)
                         : "record " + std::to_string(i);
    if (record.src >= terminals || record.dst >= terminals) {
      throw std::invalid_argument(
          "TraceSource: " + where + ": terminal " +
          std::to_string(record.src >= terminals ? record.src : record.dst) +
          " out of range (fabric has " + std::to_string(terminals) +
          " terminals)");
    }
    if (record.size != packet_length) {
      throw std::invalid_argument(
          "TraceSource: " + where + ": size " + std::to_string(record.size) +
          " != the run's packet_length " + std::to_string(packet_length) +
          " (the disciplines serialize one fixed length per run)");
    }
    per_terminal_[record.src].push_back(
        {record.cycle / spec.time_compression, record.dst, record.tag});
  }
}

bool TraceSource::attempt(std::uint64_t cycle, std::uint32_t terminal) {
  const std::size_t cursor = cursor_[terminal];
  return cursor < per_terminal_[terminal].size() &&
         per_terminal_[terminal][cursor].due <= cycle;
}

Injection TraceSource::draw(std::uint64_t, std::uint32_t terminal) {
  const Entry& entry = per_terminal_[terminal][cursor_[terminal]];
  return {entry.dest, entry.tag};
}

void TraceSource::commit(std::uint64_t, std::uint32_t terminal,
                         const Injection&) {
  ++cursor_[terminal];
}

// --- Factory ---------------------------------------------------------------

std::unique_ptr<WorkloadSource> make_source(
    sim::Pattern pattern, const sim::SimConfig& config, int address_digits,
    int radix, std::uint64_t terminals,
    std::size_t reply_histogram_buckets) {
  switch (config.workload.kind) {
    case Kind::kOpen:
      return std::make_unique<SyntheticSource>(pattern, address_digits, radix,
                                               config, terminals);
    case Kind::kClosedLoop:
      return std::make_unique<ClosedLoopSource>(pattern, address_digits,
                                                radix, config, terminals,
                                                reply_histogram_buckets);
    case Kind::kTrace:
      return std::make_unique<TraceSource>(config.workload, terminals,
                                           config.packet_length);
  }
  throw std::invalid_argument("make_source: unknown workload kind");
}

}  // namespace mineq::workload
