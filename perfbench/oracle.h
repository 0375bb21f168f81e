#ifndef GAUSS_PERFBENCH_ORACLE_H_
#define GAUSS_PERFBENCH_ORACLE_H_

// Independent correctness oracle for identification answers.
//
// It never calls the library's math: densities are evaluated here, in
// long double with <cmath>, straight from paper Lemma 1 under the
// convolution sigma policy (sigma^2 = sigma_v^2 + sigma_q^2), and Bayes
// probabilities are normalized by a long-double log-sum-exp over the whole
// gallery. Only the library's plain data types (Pfv, QueryResponse) are
// shared.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "pfv/pfv.h"
#include "service/query_service.h"

namespace perfbench {

// Exact log p(q|v) of one object under the convolution policy.
long double ExactLogDensity(const gauss::Pfv& v, const gauss::Pfv& q);

// The gallery an answer is checked against: pointers to every live object
// (base plus enrolled so far). The objects must outlive the gallery.
class OracleGallery {
 public:
  void Add(const gauss::Pfv* object);
  size_t size() const { return objects_.size(); }

  // Exact log densities of every object and their log-sum-exp.
  struct Exact {
    std::vector<long double> log_density;  // parallel to the gallery
    long double log_total = 0.0L;
  };
  Exact Evaluate(const gauss::Pfv& q) const;

  // Empty when `resp` is a correct k-MLIQ answer at `accuracy`, otherwise
  // what is wrong. Checks: the ids are the exact top-k (tie-tolerant), every
  // |p - p_exact| <= probability_error + 1e-12, every probability_error <=
  // accuracy * p (unless `certify_accuracy` is false), and the
  // probabilities sum to at most 1. An item that claims an exact
  // probability (probability_error 0) is left out of the |p - p_exact|
  // check and counted in unchecked_exact_claims(): the program's double
  // sums over the gallery miss the exact value by up to ~2e-12 there.
  std::string CheckMliq(const gauss::Pfv& q, size_t k, double accuracy,
                        const gauss::QueryResponse& resp,
                        bool certify_accuracy = true) const;

  // Same for a TIQ answer: the id set equals the exact {P >= threshold}
  // (objects within 1e-12 of the threshold may fall either way), plus the
  // per-item probability checks above.
  std::string CheckTiq(const gauss::Pfv& q, double threshold, double accuracy,
                       const gauss::QueryResponse& resp,
                       bool certify_accuracy = true) const;

  // Items left out of the |p - p_exact| check so far (see CheckMliq).
  size_t unchecked_exact_claims() const { return unchecked_exact_claims_; }

 private:
  std::string CheckItems(const Exact& exact, double accuracy,
                         const gauss::QueryResponse& resp,
                         bool certify_accuracy) const;

  std::vector<const gauss::Pfv*> objects_;
  std::unordered_map<uint64_t, size_t> index_of_;
  mutable size_t unchecked_exact_claims_ = 0;
};

// Closed-form self-test of the oracle: 1-d and 2-d densities against
// hand-derived values, a two-object Bayes split, and the paper's Figure 1
// scenario, where O3 must win although O1 is the Euclidean nearest
// neighbour. Empty on success, otherwise the failed case.
std::string OracleSelfTest();

}  // namespace perfbench

#endif  // GAUSS_PERFBENCH_ORACLE_H_
