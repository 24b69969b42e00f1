// Seeded byte-level mutations for the request-parser tests: no corpus, no
// network, and the same inputs on every run.
#ifndef APQ_TESTS_MUTATE_H_
#define APQ_TESTS_MUTATE_H_

#include <string>
#include <vector>

#include "util/rng.h"

namespace apq {

/// Applies one to four random edits to `s`: a bit flip, a truncation, a
/// duplicated range, an inserted short token (NUL, CR, space, '=', '+',
/// '-', '.', "nan", "inf"), or an inserted 5 KB token.
inline std::string Mutate(std::string s, Rng& rng) {
  static const std::vector<std::string> kTokens = {
      std::string(1, '\0'), "\r", " ", "=", "+", "-", ".", "nan", "inf"};
  const uint64_t edits = 1 + rng.Uniform(4);
  for (uint64_t e = 0; e < edits; ++e) {
    const size_t pos = rng.Uniform(s.size() + 1);
    switch (rng.Uniform(5)) {
      case 0:
        if (pos < s.size()) {
          s[pos] = static_cast<char>(s[pos] ^ (1 << rng.Uniform(8)));
        }
        break;
      case 1:
        s.resize(pos);
        break;
      case 2: {  // two statements: argument order would pick the draws
        const size_t len = rng.Uniform(s.size() - pos + 1);
        const std::string range = s.substr(pos, len);
        s.insert(rng.Uniform(s.size() + 1), range);
        break;
      }
      case 3:
        s.insert(pos, kTokens[rng.Uniform(kTokens.size())]);
        break;
      default:
        s.insert(pos,
                 std::string(5000, static_cast<char>(' ' + rng.Uniform(95))));
        break;
    }
  }
  return s;
}

}  // namespace apq

#endif  // APQ_TESTS_MUTATE_H_
