// Measurement helpers of the performance ledger: order statistics over
// repeated timings, the process's peak RSS, and the JSON writer every report
// goes through, so each number the ledger prints comes from one place.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace erb::ledger {

/// Order statistics of one sample set. Quantiles interpolate linearly between
/// the closest ranks; every field is 0 for an empty set.
struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  double p10 = 0.0;
  double p90 = 0.0;
  std::size_t n = 0;
};

/// The q-quantile (q in [0, 1]) of `sorted`, which must be ascending and
/// non-empty.
double Quantile(const std::vector<double>& sorted, double q);

/// Summarizes `samples` (taken by value: they are sorted in place).
Summary Summarize(std::vector<double> samples);

/// High-water resident set size of this process in MB (obs::PeakRssBytes).
double PeakRssMb();

/// Minimal streaming JSON writer. Commas are inserted automatically; the
/// caller balances Begin/End calls and pairs every Key with one value.
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& Key(std::string_view key);
  JsonWriter& Value(double value);
  JsonWriter& Value(std::uint64_t value);
  JsonWriter& Value(bool value);
  JsonWriter& Value(std::string_view value);
  /// {"value" (the median), "unit", "q1", "q3", "p10", "p90", "n"}.
  JsonWriter& Value(const Summary& summary, std::string_view unit);

  const std::string& str() const { return out_; }

 private:
  void Separate();

  std::string out_;
  bool need_comma_ = false;
};

}  // namespace erb::ledger
