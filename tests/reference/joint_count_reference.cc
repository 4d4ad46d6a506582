#include "reference/joint_count_reference.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/macros.h"

namespace metaleak {
namespace reference {

namespace {

// -sum p log2 p over the counts in order, one log2 per count: the
// oracle's own loop, so the library's tabled ShannonEntropyBits is held
// to a second implementation.
double PlainEntropyBits(const std::vector<uint64_t>& counts) {
  double total = 0.0;
  for (uint64_t c : counts) total += static_cast<double>(c);
  if (total == 0.0) return 0.0;
  double entropy = 0.0;
  for (uint64_t c : counts) {
    const double p = static_cast<double>(c) / total;
    entropy -= p * std::log2(p);
  }
  return entropy;
}

// Per-code marginal of one side of the joint, ascending by code.
std::map<uint32_t, uint64_t> Marginal(const JointCountMap& joint,
                                      bool first) {
  std::map<uint32_t, uint64_t> out;
  for (const auto& [key, count] : joint) {
    out[first ? key.first : key.second] += count;
  }
  return out;
}

}  // namespace

JointCountMap JointCounts(const CodeColumnView& a, const CodeColumnView& b) {
  METALEAK_DCHECK(a.size == b.size);
  JointCountMap joint;
  for (size_t r = 0; r < a.size; ++r) ++joint[{a.at(r), b.at(r)}];
  return joint;
}

double ConditionalEntropyBits(const CodeColumnView& a,
                              const CodeColumnView& b) {
  const JointCountMap joint = JointCounts(a, b);
  std::vector<uint64_t> joint_counts;
  for (const auto& [key, count] : joint) joint_counts.push_back(count);
  std::vector<uint64_t> a_counts;
  for (const auto& [code, count] : Marginal(joint, true)) {
    a_counts.push_back(count);
  }
  return std::max(0.0, PlainEntropyBits(joint_counts) -
                           PlainEntropyBits(a_counts));
}

double MutualInformationBits(const CodeColumnView& a,
                             const CodeColumnView& b) {
  const JointCountMap joint = JointCounts(a, b);
  std::map<uint32_t, uint64_t> a_counts = Marginal(joint, true);
  std::map<uint32_t, uint64_t> b_counts = Marginal(joint, false);
  const double dn = static_cast<double>(a.size);
  double mi = 0.0;
  for (const auto& [key, count] : joint) {
    const double cxy = static_cast<double>(count);
    mi += (cxy / dn) *
          std::log2(cxy * dn / (static_cast<double>(a_counts[key.first]) *
                                static_cast<double>(b_counts[key.second])));
  }
  return mi;
}

}  // namespace reference
}  // namespace metaleak
