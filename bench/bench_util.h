// Shared helpers for the gated benchmarks.
//
// Every bench binary runs one system-level campaign or sweep of DESIGN.md
// §5: it prints its series as a fixed-width table on stdout (the
// deterministic simulation measurements: virtual latency, messages, hops),
// writes its gate metrics, and then runs its google-benchmark micro
// kernels (host wall time).
#ifndef UNISTORE_BENCH_BENCH_UTIL_H_
#define UNISTORE_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exec/envelope_coordinator.h"
#include "pgrid/entry.h"
#include "pgrid/peer.h"

namespace unistore {
namespace bench {

/// Order-sensitive FNV-1a over a visited entry stream: equal hashes +
/// equal counts == byte-identical streams. bench_durable_store checks
/// recovery with it. Accepts Entry via EntryView's implicit conversion.
struct StreamChecksum {
  uint64_t h = 1469598103934665603ull;
  uint64_t count = 0;

  void Mix(std::string_view s) {
    for (char c : s) {
      h ^= static_cast<uint8_t>(c);
      h *= 1099511628211ull;
    }
  }
  void Add(const pgrid::EntryView& e) {
    ++count;
    unsigned char buf[pgrid::Key::kMaxBytes];
    h ^= e.key.size();
    h *= 1099511628211ull;
    Mix(e.key.Packed(buf));
    Mix(e.id);
    h ^= e.version;
    h *= 1099511628211ull;
    h ^= e.deleted ? 1 : 0;
    h *= 1099511628211ull;
  }
  bool operator==(const StreamChecksum& o) const {
    return h == o.h && count == o.count;
  }
};

/// Fixed-width table printer for experiment series.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void Print() const {
    std::vector<size_t> widths(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c) {
      widths[c] = headers_[c].size();
    }
    for (const auto& row : rows_) {
      for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
        if (row[c].size() > widths[c]) widths[c] = row[c].size();
      }
    }
    auto print_row = [&widths](const std::vector<std::string>& cells) {
      std::printf("|");
      for (size_t c = 0; c < widths.size(); ++c) {
        const std::string& cell = c < cells.size() ? cells[c] : "";
        std::printf(" %-*s |", static_cast<int>(widths[c]), cell.c_str());
      }
      std::printf("\n");
    };
    auto rule = [&widths]() {
      std::printf("+");
      for (size_t w : widths) {
        for (size_t i = 0; i < w + 2; ++i) std::printf("-");
        std::printf("+");
      }
      std::printf("\n");
    };
    rule();
    print_row(headers_);
    rule();
    for (const auto& row : rows_) print_row(row);
    rule();
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Fmt(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

/// Prints the experiment banner (id + claim being reproduced).
inline void Banner(const char* experiment_id, const char* claim) {
  std::printf("\n=== %s ===\n%s\n\n", experiment_id, claim);
}

/// \brief Flat `{"metric": value, ...}` JSON artifact writer.
///
/// Each gated bench emits its acceptance metrics (speedups, allocation
/// counts, write-amplification factors) as a BENCH_*_gates.json file next
/// to the google-benchmark `--benchmark_out` artifact, so the CI bench job
/// uploads machine-readable gate numbers too. Shared by the gated benches
/// and bench_e2e instead of per-binary emitters.
class GateJson {
 public:
  void Add(const std::string& name, double value) {
    entries_.emplace_back(name, value);
  }

  bool WriteTo(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\n");
    for (size_t i = 0; i < entries_.size(); ++i) {
      std::fprintf(f, "  \"%s\": %.6g%s\n", entries_[i].first.c_str(),
                   entries_[i].second,
                   i + 1 < entries_.size() ? "," : "");
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
    return true;
  }

 private:
  std::vector<std::pair<std::string, double>> entries_;
};

/// Adds `<prefix>_retries_<policy>` for each routed-request retry policy
/// (lookup, bulk insert, range scan, repair chunk, envelope walk) from a
/// run's TrafficStats::retries_by_policy, and `<prefix>_final_virtual_s`,
/// the run's virtual clock at its end: what the deadline rule did under
/// faults, for the baseline diff.
inline void AddRetryGates(GateJson* gates, const std::string& prefix,
                          const std::map<std::string, uint64_t>& retries,
                          int64_t final_us) {
  const std::pair<std::string_view, const char*> policies[] = {
      {pgrid::kLookupRetryPolicy, "lookup"},
      {pgrid::kBulkRetryPolicy, "bulk_insert"},
      {pgrid::kRangeRetryPolicy, "range"},
      {pgrid::kRepairRetryPolicy, "repair"},
      {exec::kWalkRetryPolicy, "walk"}};
  for (const auto& [policy, name] : policies) {
    auto it = retries.find(std::string(policy));
    gates->Add(prefix + "_retries_" + name,
               it == retries.end() ? 0.0 : static_cast<double>(it->second));
  }
  gates->Add(prefix + "_final_virtual_s",
             static_cast<double>(final_us) / 1e6);
}

}  // namespace bench
}  // namespace unistore

#endif  // UNISTORE_BENCH_BENCH_UTIL_H_
