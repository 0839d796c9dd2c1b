#include "trace.h"

#include <fstream>

namespace perfbench {

double Tracer::NowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int Tracer::Open(const char* name) {
  const std::int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, request_, parent, NowUs(), 0.0});
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::Close(int index) {
  spans_[static_cast<std::size_t>(index)].end_us = NowUs();
  // Spans are strictly nested (RAII on one thread): the closing span is the
  // innermost open one.
  open_.pop_back();
}

std::map<std::string, Tracer::Totals> Tracer::Summarize() const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Totals& t = out[s.name];
    const double dur = s.end_us - s.start_us;
    ++t.count;
    t.total_us += dur;
    t.self_us += dur - child_us[i];
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out.precision(12);
  for (const Span& s : spans_) {
    out << "{\"name\": \"" << s.name << "\", \"request\": " << s.request
        << ", \"parent\": " << s.parent << ", \"start_us\": " << s.start_us
        << ", \"dur_us\": " << (s.end_us - s.start_us) << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
