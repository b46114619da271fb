#ifndef SERVEBENCH_ORACLE_H_
#define SERVEBENCH_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "geometry/box.h"
#include "servebench/workload.h"

namespace servebench {

/// Brute-force reference answers for read replies, computed over the base
/// dataset (the CSV the served snapshot was built from) with the library's
/// own Box distance arithmetic, so a correct reply matches byte for byte.
///
/// On a read-only server every kind is checked exactly. On a live server
/// other connections' updates race the read, so the check is: base ids
/// (below kPrivateBase) match the base oracle exactly, every private id
/// names an object whose box satisfies the query, and the reading
/// connection's own private object is present exactly when its completed
/// updates left it inserted. SKYLINE and DIVKNN on a live server get only
/// the per-row checks (ids known, attributes right, no duplicates).
class Oracle {
 public:
  /// `base` holds the dataset with ids 0..n-1 in order; `seed` is the
  /// statement seed, which determines every private object's box.
  Oracle(std::vector<tlp::BoxEntry> base, std::uint64_t seed)
      : base_(std::move(base)), seed_(seed) {}

  /// Checks the rows of one OK reply to `s`, sent by connection `conn`
  /// whose own private object at the time was `own`. Returns an empty
  /// string when the reply is right, else a description of the first
  /// difference.
  [[nodiscard]] std::string Check(const Statement& s, std::size_t conn,
                                  const std::optional<tlp::BoxEntry>& own,
                                  bool live,
                                  const std::vector<std::string>& rows) const;

 private:
  std::vector<tlp::BoxEntry> base_;
  std::uint64_t seed_;
};

}  // namespace servebench

#endif  // SERVEBENCH_ORACLE_H_
