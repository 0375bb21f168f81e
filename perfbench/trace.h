#ifndef GAUSS_PERFBENCH_TRACE_H_
#define GAUSS_PERFBENCH_TRACE_H_

// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code around calls into the
// program's layers (and, through the PageCache wrapper, around the calls the
// program makes back into storage). Each span has a name, start and end,
// the span open on the same thread when it began (its parent), and the
// identifier of the query it serves, shared by every span of that query.
// Recording is single-threaded: only the benchmark thread opens spans.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  static constexpr uint32_t kNoParent = 0xFFFFFFFFu;

  struct Span {
    const char* name = "";
    uint32_t parent = kNoParent;
    uint64_t query = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t child_ns = 0;  // time covered by direct children

    int64_t duration_ns() const { return end_ns - start_ns; }
    // The span's duration minus the part its children cover.
    int64_t self_ns() const { return duration_ns() - child_ns; }
  };

  // RAII span; a null tracer records nothing, so traced and untraced code
  // paths are the same code.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, uint64_t query);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    uint32_t index_ = 0;
  };

  // Reserves room so recording does not reallocate mid-measurement.
  void Reserve(size_t spans) { spans_.reserve(spans); }

  const std::vector<Span>& spans() const { return spans_; }

  // Sum of self time of every span named `name`, and their count.
  struct Totals {
    int64_t self_ns = 0;
    int64_t duration_ns = 0;
    uint64_t count = 0;
  };
  Totals Sum(const std::string& name) const;

  // Writes every span as one CSV line: name,query,parent,start_ns,end_ns,
  // self_ns. Returns false when the file cannot be written.
  bool WriteCsv(const std::string& path) const;

 private:
  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::vector<Span> spans_;
  uint32_t open_ = kNoParent;  // innermost open span
};

}  // namespace perfbench

#endif  // GAUSS_PERFBENCH_TRACE_H_
