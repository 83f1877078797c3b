#include "obs/flow.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace mineq::obs {

namespace {

void append_double(std::string& out, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  out += buffer;
}

void append_stat_row(std::string& out, const char* kind,
                     const FlowStat& stat) {
  out += kind;
  out += ',';
  out += std::to_string(stat.src);
  out += ',';
  out += std::to_string(stat.dst);
  out += ',';
  out += std::to_string(stat.count);
  out += ',';
  append_double(out, stat.mean);
  out += ',';
  append_double(out, stat.p50);
  out += ',';
  append_double(out, stat.p99);
  out += ',';
  append_double(out, stat.p999);
  out += '\n';
}

/// Same quantile convention as sim::Histogram: the upper edge of the
/// first bucket whose cumulative count reaches q * count, which is the
/// bucket of the ceil(q * count)-th smallest sample; overflow mass
/// reports the sentinel edge just past the covered range.
double order_quantile(const std::uint32_t* sorted, std::uint64_t count,
                      std::uint32_t overflow, std::size_t buckets, double q) {
  const auto rank = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count))),
      1, count);
  const std::uint32_t bucket = sorted[rank - 1];
  return bucket == overflow ? static_cast<double>(buckets + 1)
                            : static_cast<double>(bucket + 1);
}

}  // namespace

std::string FlowSummary::csv() const {
  std::string out =
      "kind,src,dst,count,latency_mean,latency_p50,latency_p99,"
      "latency_p999\n";
  for (const FlowStat& stat : flows) append_stat_row(out, "flow", stat);
  for (const FlowStat& stat : per_sl) append_stat_row(out, "sl", stat);
  for (const FlowStat& stat : services) append_stat_row(out, "service", stat);
  return out;
}

void FlowRecorder::reset(std::uint32_t terminals, std::size_t buckets,
                         std::size_t service_levels) {
  terminals_ = terminals;
  buckets_ = buckets;
  overflow_ = static_cast<std::uint32_t>(std::min<std::size_t>(
      buckets, std::numeric_limits<std::uint32_t>::max()));
  flows_ = Table{};
  flows_.accs.assign(static_cast<std::size_t>(terminals) * terminals, Acc{});
  sls_ = Table{};
  sls_.accs.assign(service_levels, Acc{});
  services_ = Table{};
}

void FlowRecorder::add(Table& table, std::size_t key, double latency) {
  Acc& acc = table.accs[key];
  ++acc.count;
  acc.sum += latency;
  const std::uint32_t bucket = latency >= static_cast<double>(overflow_)
                                   ? overflow_
                                   : static_cast<std::uint32_t>(latency);
  table.log.push_back({static_cast<std::uint32_t>(key), bucket});
}

void FlowRecorder::record(std::uint32_t src, std::uint32_t dst, unsigned sl,
                          double latency) {
  add(flows_, static_cast<std::size_t>(src) * terminals_ + dst, latency);
  if (sl < sls_.accs.size()) add(sls_, sl, latency);
}

void FlowRecorder::record_service(std::uint32_t client, std::uint32_t server,
                                  double latency) {
  if (services_.accs.empty()) {
    services_.accs.assign(static_cast<std::size_t>(terminals_) * terminals_,
                          Acc{});
  }
  add(services_, static_cast<std::size_t>(client) * terminals_ + server,
      latency);
}

std::vector<FlowStat> FlowRecorder::stats_of(const Table& table,
                                             std::size_t width) const {
  // Counting sort of the log by key (the per-key counts are known), then
  // each key's segment by bucket: every quantile is an order statistic.
  std::vector<std::size_t> end(table.accs.size());
  std::size_t offset = 0;
  for (std::size_t key = 0; key < table.accs.size(); ++key) {
    end[key] = offset;
    offset += table.accs[key].count;
  }
  std::vector<std::uint32_t> sorted(table.log.size());
  for (const Sample& sample : table.log) {
    sorted[end[sample.key]++] = sample.bucket;
  }
  std::vector<FlowStat> out;
  for (std::size_t key = 0; key < table.accs.size(); ++key) {
    const Acc& acc = table.accs[key];
    if (acc.count == 0) continue;
    std::uint32_t* const first = sorted.data() + (end[key] - acc.count);
    std::sort(first, sorted.data() + end[key]);
    FlowStat stat;
    stat.src = static_cast<std::uint32_t>(key / width);
    stat.dst = static_cast<std::uint32_t>(key % width);
    stat.count = acc.count;
    stat.mean = acc.sum / static_cast<double>(acc.count);
    stat.p50 = order_quantile(first, acc.count, overflow_, buckets_, 0.5);
    stat.p99 = order_quantile(first, acc.count, overflow_, buckets_, 0.99);
    stat.p999 = order_quantile(first, acc.count, overflow_, buckets_, 0.999);
    out.push_back(stat);
  }
  return out;
}

FlowSummary FlowRecorder::summary() const {
  FlowSummary out;
  out.terminals = terminals_;
  out.flows = stats_of(flows_, terminals_);
  for (const FlowStat& stat : out.flows) {
    if (stat.p99 > out.worst_p99) {
      out.worst_p99 = stat.p99;
      out.worst_src = stat.src;
      out.worst_dst = stat.dst;
    }
  }
  out.per_sl = stats_of(sls_, 1);  // src = service level, dst = 0
  out.services = stats_of(services_, terminals_);
  for (const FlowStat& stat : out.services) {
    out.worst_service_p99 = std::max(out.worst_service_p99, stat.p99);
  }
  return out;
}

}  // namespace mineq::obs
