#include "trace.h"

#include <cstdio>

namespace perfbench {

Tracer::Scope::Scope(Tracer* tracer, const char* name, uint64_t query)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Span span;
  span.name = name;
  span.parent = tracer_->open_;
  span.query = query;
  index_ = static_cast<uint32_t>(tracer_->spans_.size());
  tracer_->spans_.push_back(span);
  tracer_->open_ = index_;
  // Read the clock last, so the bookkeeping above is not inside the span.
  tracer_->spans_[index_].start_ns = NowNs();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const int64_t end = NowNs();
  Span& span = tracer_->spans_[index_];
  span.end_ns = end;
  tracer_->open_ = span.parent;
  if (span.parent != kNoParent) {
    tracer_->spans_[span.parent].child_ns += span.duration_ns();
  }
}

Tracer::Totals Tracer::Sum(const std::string& name) const {
  Totals totals;
  for (const Span& span : spans_) {
    if (name != span.name) continue;
    totals.self_ns += span.self_ns();
    totals.duration_ns += span.duration_ns();
    ++totals.count;
  }
  return totals;
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "name,query,parent,start_ns,end_ns,self_ns\n");
  for (const Span& span : spans_) {
    std::fprintf(out, "%s,%llu,%lld,%lld,%lld,%lld\n", span.name,
                 static_cast<unsigned long long>(span.query),
                 span.parent == kNoParent ? -1LL
                                          : static_cast<long long>(span.parent),
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns),
                 static_cast<long long>(span.self_ns()));
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
