// File helpers shared by the artifact writers and readers. Every artifact
// is a flat snapshot (util/flat_snapshot.h, docs/SNAPSHOTS.md); a file
// that cannot be read, or that holds the wrong kind of snapshot, raises
// serialize_error instead of misparsing.
#pragma once

#include <stdexcept>
#include <string>

namespace dv {

/// Thrown when an artifact cannot be read or has an unexpected layout.
class serialize_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// True if a regular file exists at `path`.
bool file_exists(const std::string& path);

/// Creates `path` (and parents) if missing; throws serialize_error on failure.
void ensure_directory(const std::string& path);

}  // namespace dv
