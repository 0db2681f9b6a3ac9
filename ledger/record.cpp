#include "record.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/trace.hpp"

namespace erb::ledger {

double Quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.median = Quantile(samples, 0.5);
  s.q1 = Quantile(samples, 0.25);
  s.q3 = Quantile(samples, 0.75);
  s.p10 = Quantile(samples, 0.10);
  s.p90 = Quantile(samples, 0.90);
  return s;
}

double PeakRssMb() {
  return static_cast<double>(obs::PeakRssBytes()) / (1024.0 * 1024.0);
}

void JsonWriter::Separate() {
  if (need_comma_) out_ += ',';
  need_comma_ = true;
}

JsonWriter& JsonWriter::BeginObject() {
  Separate();
  out_ += '{';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  out_ += '}';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  Value(key);
  out_ += ':';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::Value(double value) {
  Separate();
  if (!std::isfinite(value)) {
    out_ += "null";
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Value(std::uint64_t value) {
  Separate();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Value(bool value) {
  Separate();
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Value(std::string_view value) {
  Separate();
  out_ += '"';
  for (const char c : value) {
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out_ += buf;
    } else {
      out_ += c;
    }
  }
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Value(const Summary& summary, std::string_view unit) {
  BeginObject();
  Key("value").Value(summary.median);
  Key("unit").Value(unit);
  Key("q1").Value(summary.q1);
  Key("q3").Value(summary.q3);
  Key("p10").Value(summary.p10);
  Key("p90").Value(summary.p90);
  Key("n").Value(static_cast<std::uint64_t>(summary.n));
  return EndObject();
}

}  // namespace erb::ledger
