// The per-dataset corner-case suite: the outcome of the Table IV/V search,
// cached as an artifact.
//
// A suite holds the fixed seed set plus one entry per transformation (and
// the combined transformation): the chosen parameters, success rate, mean
// confidence, the synthesized corner-case images, and per-image SCC flags.
#pragma once

#include <string>
#include <vector>

#include "augment/corner_case.h"
#include "pipeline/config.h"

namespace dv {

struct corner_entry {
  transform_kind kind{transform_kind::brightness};
  bool combined{false};
  bool usable{false};
  transform_chain chain;
  double success_rate{0.0};
  double mean_confidence{0.0};
  std::string range_description;
  dataset cases;
  std::vector<unsigned char> misclassified;  // 1 = SCC, 0 = FCC

  std::string display_name() const {
    return combined ? "combined" : transform_kind_name(kind);
  }

  /// Successful corner cases (misclassified) of this entry.
  dataset sccs() const;
  /// Failed corner cases (still correctly classified) of this entry.
  dataset fccs() const;
};

struct corner_suite {
  dataset seeds;
  std::vector<corner_entry> entries;

  /// All successful corner cases (SCCs) pooled over usable entries.
  dataset pooled_sccs() const;
  /// Number of usable transformation settings.
  int usable_count() const;

  /// Writes the suite as a flat snapshot (docs/SNAPSHOTS.md).
  void save(const std::string& path) const;
  /// Reads a suite written by save(); throws serialize_error on a file
  /// that is not a corner-suite snapshot, an inconsistent entry, or
  /// corruption.
  static corner_suite load(const std::string& path);
};

/// Loads the suite from the artifact cache or runs the full search:
/// seed selection, per-transformation grid search with the paper's stopping
/// rule, and the per-dataset combined transformation.
corner_suite load_or_generate_corners(const experiment_config& config,
                                      sequential& model, const dataset& test);

}  // namespace dv
