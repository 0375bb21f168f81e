#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <unordered_set>

namespace perfbench {
namespace {

constexpr long double kPi = 3.141592653589793238462643383279502884L;

// Absolute slack on probability comparisons: the program reports doubles,
// so its midpoints may sit a few ulps off an exact interval.
constexpr long double kProbSlack = 1e-12L;
// Two objects whose exact log densities differ by less than this are a tie:
// either may be reported at the k-th rank.
constexpr long double kTieLog = 1e-9L;

std::string Format(const char* fmt, long double a, long double b,
                   long double c = 0.0L) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, static_cast<double>(a),
                static_cast<double>(b), static_cast<double>(c));
  return buf;
}

}  // namespace

long double ExactLogDensity(const gauss::Pfv& v, const gauss::Pfv& q) {
  long double sum = 0.0L;
  for (size_t i = 0; i < q.mu.size(); ++i) {
    const long double sv = v.sigma[i];
    const long double sq = q.sigma[i];
    const long double var = sv * sv + sq * sq;
    const long double d = static_cast<long double>(q.mu[i]) - v.mu[i];
    sum += -0.5L * d * d / var - 0.5L * std::log(2.0L * kPi * var);
  }
  return sum;
}

void OracleGallery::Add(const gauss::Pfv* object) {
  index_of_.emplace(object->id, objects_.size());
  objects_.push_back(object);
}

OracleGallery::Exact OracleGallery::Evaluate(const gauss::Pfv& q) const {
  Exact exact;
  exact.log_density.resize(objects_.size());
  long double max_log = -INFINITY;
  for (size_t i = 0; i < objects_.size(); ++i) {
    exact.log_density[i] = ExactLogDensity(*objects_[i], q);
    max_log = std::max(max_log, exact.log_density[i]);
  }
  long double sum = 0.0L;
  for (const long double l : exact.log_density) sum += std::exp(l - max_log);
  exact.log_total = max_log + std::log(sum);
  return exact;
}

std::string OracleGallery::CheckItems(const Exact& exact, double accuracy,
                                      const gauss::QueryResponse& resp,
                                      bool certify_accuracy) const {
  if (resp.status != gauss::QueryResponse::Status::kOk) {
    return "query did not execute (status " +
           std::to_string(static_cast<int>(resp.status)) + ")";
  }
  long double sum = 0.0L;
  std::unordered_set<uint64_t> seen;
  for (size_t r = 0; r < resp.items.size(); ++r) {
    const gauss::IdentificationResult& item = resp.items[r];
    const auto it = index_of_.find(item.id);
    if (it == index_of_.end()) {
      return "reported id " + std::to_string(item.id) + " is not in the gallery";
    }
    if (!seen.insert(item.id).second) {
      return "id " + std::to_string(item.id) + " reported twice";
    }
    if (r > 0 && item.probability > resp.items[r - 1].probability) {
      return "items not in descending probability order";
    }
    const long double l = exact.log_density[it->second];
    if (std::fabs(item.log_density - l) > 1e-9L * std::max(1.0L, std::fabs(l))) {
      return Format("log density %.17g vs exact %.17g", item.log_density, l);
    }
    const long double p_exact = std::exp(l - exact.log_total);
    const long double p = item.probability;
    const long double err = item.probability_error;
    if (err == 0.0L) {
      ++unchecked_exact_claims_;
    } else if (std::fabs(p - p_exact) > err + kProbSlack) {
      return Format("|p - p_exact| too large: p %.17g exact %.17g error %.3g", p,
                    p_exact, err);
    }
    if (certify_accuracy && err > static_cast<long double>(accuracy) * p) {
      return Format("probability_error %.3g above accuracy * p (p %.17g, "
                    "accuracy %.3g)",
                    err, p, accuracy);
    }
    sum += p;
  }
  if (sum > 1.0L + kProbSlack) {
    return Format("reported probabilities sum to %.17g > 1", sum, 0.0L);
  }
  return "";
}

std::string OracleGallery::CheckMliq(const gauss::Pfv& q, size_t k,
                                     double accuracy,
                                     const gauss::QueryResponse& resp,
                                     bool certify_accuracy) const {
  const Exact exact = Evaluate(q);
  const size_t want = std::min(k, objects_.size());
  if (resp.items.size() != want) {
    return "MLIQ returned " + std::to_string(resp.items.size()) +
           " items, expected " + std::to_string(want);
  }
  if (want > 0) {
    std::vector<long double> sorted = exact.log_density;
    std::nth_element(sorted.begin(), sorted.begin() + (want - 1), sorted.end(),
                     std::greater<long double>());
    const long double kth = sorted[want - 1];
    for (const gauss::IdentificationResult& item : resp.items) {
      const auto it = index_of_.find(item.id);
      if (it != index_of_.end() &&
          exact.log_density[it->second] < kth - kTieLog) {
        return Format("id outside the exact top-k: log density %.17g below "
                      "k-th %.17g",
                      exact.log_density[it->second], kth);
      }
    }
  }
  return CheckItems(exact, accuracy, resp, certify_accuracy);
}

std::string OracleGallery::CheckTiq(const gauss::Pfv& q, double threshold,
                                    double accuracy,
                                    const gauss::QueryResponse& resp,
                                    bool certify_accuracy) const {
  const Exact exact = Evaluate(q);
  std::unordered_set<uint64_t> reported;
  for (const gauss::IdentificationResult& item : resp.items) {
    reported.insert(item.id);
  }
  for (size_t i = 0; i < objects_.size(); ++i) {
    const long double p = std::exp(exact.log_density[i] - exact.log_total);
    if (std::fabs(p - threshold) <= kProbSlack) continue;  // boundary tie
    const bool in = reported.count(objects_[i]->id) != 0;
    if ((p >= threshold) != in) {
      return Format(in ? "TIQ reported an object with P %.17g < t %.3g"
                       : "TIQ missed an object with P %.17g >= t %.3g",
                    p, threshold);
    }
  }
  return CheckItems(exact, accuracy, resp, certify_accuracy);
}

std::string OracleSelfTest() {
  // Hand-derived constants: 0.5*ln(2*pi), ln 2, ln 1.3.
  const long double half_log_2pi = 0.918938533204672741780329736406L;
  const long double ln2 = 0.693147180559945309417232121458L;
  const long double ln13 = 0.262364264467491052035495986881L;
  const auto near = [](long double a, long double b) {
    return std::fabs(a - b) <= 1e-15L;
  };

  // 1-d: sigma^2 = 0.8^2 + 0.6^2 = 1, z = 0.5.
  const gauss::Pfv v1(1, {0.5}, {0.8});
  const gauss::Pfv q1(0, {0.0}, {0.6});
  if (!near(ExactLogDensity(v1, q1), -0.125L - half_log_2pi)) {
    return "1-d density";
  }
  // 2-d: dim 0 has sigma = 0.5, z = 0.8; dim 1 has sigma = 1.3, z = 0.
  const gauss::Pfv v2(2, {1.0, -2.0}, {0.3, 1.2});
  const gauss::Pfv q2(0, {1.4, -2.0}, {0.4, 0.5});
  if (!near(ExactLogDensity(v2, q2),
            (-0.32L + ln2 - half_log_2pi) + (-ln13 - half_log_2pi))) {
    return "2-d density";
  }
  // Bayes over two objects with equal combined sigma 1 and distances 0 and
  // 1: P(first) = 1 / (1 + exp(-1/2)).
  const gauss::Pfv a(10, {0.0}, {0.6});
  const gauss::Pfv b(11, {1.0}, {0.6});
  const gauss::Pfv qb(0, {0.0}, {0.8});
  OracleGallery pair;
  pair.Add(&a);
  pair.Add(&b);
  const OracleGallery::Exact e = pair.Evaluate(qb);
  const long double p_first = std::exp(e.log_density[0] - e.log_total);
  if (!near(p_first, 0.622459331201854564638900565745L)) return "Bayes split";

  // Paper Figure 1: O1 is the Euclidean nearest neighbour, O3 must win.
  const gauss::Pfv o1(1, {2.6, 1.6}, {0.15, 0.15});
  const gauss::Pfv o2(2, {1.2, 2.6}, {0.90, 0.90});
  const gauss::Pfv o3(3, {1.8, 4.2}, {0.80, 0.15});
  const gauss::Pfv fq(0, {3.05, 3.05}, {0.12, 0.85});
  OracleGallery fig1;
  for (const gauss::Pfv* o : {&o1, &o2, &o3}) fig1.Add(o);
  const OracleGallery::Exact f = fig1.Evaluate(fq);
  const auto dist2 = [&](const gauss::Pfv& o) {
    long double s = 0.0L;
    for (size_t i = 0; i < 2; ++i) {
      const long double d = static_cast<long double>(o.mu[i]) - fq.mu[i];
      s += d * d;
    }
    return s;
  };
  if (!(dist2(o1) < dist2(o2) && dist2(o1) < dist2(o3))) {
    return "Figure 1: O1 is not the Euclidean nearest neighbour";
  }
  if (!(f.log_density[2] > f.log_density[0] &&
        f.log_density[2] > f.log_density[1])) {
    return "Figure 1: O3 does not win";
  }

  // The checkers accept the exact answer and reject a wrong one.
  // The exact top-2, best first: O3 and the better of O1/O2.
  const size_t second = f.log_density[0] >= f.log_density[1] ? 0 : 1;
  gauss::QueryResponse good;
  for (const size_t i : {size_t{2}, second}) {
    gauss::IdentificationResult item;
    item.id = i + 1;
    item.log_density = static_cast<double>(f.log_density[i]);
    item.probability = static_cast<double>(std::exp(f.log_density[i] -
                                                    f.log_total));
    good.items.push_back(item);
  }
  if (const std::string err = fig1.CheckMliq(fq, 2, 1e-6, good); !err.empty()) {
    return "checker rejects the exact MLIQ answer: " + err;
  }
  gauss::QueryResponse wrong = good;
  wrong.items[0].id = 2 - second;  // the loser in place of O3
  if (fig1.CheckMliq(fq, 2, 1e-6, wrong).empty()) {
    return "checker accepts a wrong MLIQ answer";
  }
  gauss::QueryResponse tiq;
  tiq.items.push_back(good.items[0]);
  const double t = 0.5 * (good.items[0].probability + good.items[1].probability);
  if (const std::string err = fig1.CheckTiq(fq, t, 1e-6, tiq); !err.empty()) {
    return "checker rejects the exact TIQ answer: " + err;
  }
  if (fig1.CheckTiq(fq, t, 1e-6, good).empty()) {
    return "checker accepts a TIQ answer below the threshold";
  }
  return "";
}

}  // namespace perfbench
