#include "common/query_stats.h"

#include <cstdio>

namespace tlp {

void QueryStats::MergeFrom(const QueryStats& other) {
  queries += other.queries;
  tiles_visited += other.tiles_visited;
  for (int c = 0; c < 4; ++c) scanned_class[c] += other.scanned_class[c];
  scanned_flat += other.scanned_flat;
  comparisons += other.comparisons;
  binary_search_probes += other.binary_search_probes;
  duplicates_avoided += other.duplicates_avoided;
  posthoc_dedup += other.posthoc_dedup;
  candidates += other.candidates;
  refine_hits += other.refine_hits;
  refine_misses += other.refine_misses;
  query_seconds += other.query_seconds;
}

std::string QueryStats::ToJson(const std::string& label) const {
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "{\"label\": \"%s\", \"queries\": %llu, "
      "\"query_seconds\": %.6f, \"tiles_visited\": %llu, "
      "\"scanned\": {\"A\": %llu, \"B\": %llu, \"C\": %llu, \"D\": %llu, "
      "\"flat\": %llu, \"total\": %llu}, "
      "\"comparisons\": %llu, \"binary_search_probes\": %llu, "
      "\"duplicates_avoided\": %llu, \"posthoc_dedup\": %llu, "
      "\"candidates\": %llu, \"refine_hits\": %llu, \"refine_misses\": %llu}",
      label.c_str(),
      static_cast<unsigned long long>(queries), query_seconds,
      static_cast<unsigned long long>(tiles_visited),
      static_cast<unsigned long long>(scanned_class[0]),
      static_cast<unsigned long long>(scanned_class[1]),
      static_cast<unsigned long long>(scanned_class[2]),
      static_cast<unsigned long long>(scanned_class[3]),
      static_cast<unsigned long long>(scanned_flat),
      static_cast<unsigned long long>(scanned_total()),
      static_cast<unsigned long long>(comparisons),
      static_cast<unsigned long long>(binary_search_probes),
      static_cast<unsigned long long>(duplicates_avoided),
      static_cast<unsigned long long>(posthoc_dedup),
      static_cast<unsigned long long>(candidates),
      static_cast<unsigned long long>(refine_hits),
      static_cast<unsigned long long>(refine_misses));
  return buf;
}

}  // namespace tlp
