// Immutable flat snapshot format: the one on-disk format of the program
// (docs/SNAPSHOTS.md, DESIGN.md §16). Model parameters, corner suites and
// validator banks are all snapshots.
//
// One file holds a set of named, length-prefixed sections. Numeric
// payloads (f32/f64/i32/i64 blobs) start on 64-byte boundaries inside the
// file, and a view reads the file once into a 64-byte-aligned buffer, so a
// loaded section is directly addressable as a typed span — no per-section
// copies of the large blobs (support-vector matrices, scaler rows).
// The footer carries a 128-bit strong-hash content digest (the same FNV
// family as util/strong_lru.h) over everything before it, so a flipped
// byte or a truncated file fails loudly with serialize_error instead of
// mis-scoring.
//
// Layout (little-endian, offsets from byte 0):
//   header   magic "DVSNAPS1" | u32 version | u32 section_count
//            | u64 toc_offset | u64 file_size
//   payload  each section's bytes, 64-byte aligned, zero padding between
//   toc      section_count records:
//            u32 name_len | name bytes | u8 kind | u64 offset | u64 size
//   footer   u64 digest_hi | u64 digest_lo | magic "DVSNAPE1"
//
// The digest covers [0, file_size - footer_size). Writers are in-memory
// builders; readers read the file once and hand out spans for the life of
// the view. A snapshot_view is immutable and internally thread-safe after
// open; share it via shared_ptr (serve/engine_handle.h publishes banks
// this way).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/strong_lru.h"

namespace dv {

/// Payload type of one snapshot section. `bytes` is uninterpreted; the
/// numeric kinds promise element alignment and a size that divides evenly.
enum class snapshot_section_kind : std::uint8_t {
  bytes = 0,
  f32 = 1,
  f64 = 2,
  i32 = 3,
  i64 = 4,
};

/// In-memory builder for the flat format. Append sections, then finish()
/// to a file (or serialize() for tests). Section names are unique,
/// non-empty UTF-8 strings; a duplicate or empty name throws.
class snapshot_writer {
 public:
  void add_bytes(std::string_view name, const void* data, std::size_t size);
  void add_f32(std::string_view name, std::span<const float> v);
  void add_f64(std::string_view name, std::span<const double> v);
  void add_i32(std::string_view name, std::span<const std::int32_t> v);
  void add_i64(std::string_view name, std::span<const std::int64_t> v);
  /// Scalar conveniences: one-element f64/i64 sections.
  void add_f64_scalar(std::string_view name, double v);
  void add_i64_scalar(std::string_view name, std::int64_t v);

  std::size_t section_count() const { return sections_.size(); }

  /// The complete file image (header + payload + toc + footer).
  std::vector<std::uint8_t> serialize() const;

  /// Writes the image to `path` atomically (tmp file + rename), so a
  /// crashed writer never leaves a half-written snapshot behind.
  void finish(const std::string& path) const;

 private:
  struct section {
    std::string name;
    snapshot_section_kind kind;
    std::vector<std::uint8_t> payload;
  };

  void add(std::string_view name, snapshot_section_kind kind,
           const void* data, std::size_t size);

  std::vector<section> sections_;
};

/// Read-only view of one snapshot file: the aligned image plus a parsed
/// table of contents. open() validates structure and digest and throws
/// serialize_error on any corruption or truncation. Accessors return
/// spans into the image, valid for the life of the view.
class snapshot_view {
 public:
  /// Reads `path` into an aligned buffer and validates it. Records
  /// dv_snapshot_load_seconds / dv_snapshot_bytes.
  static std::shared_ptr<const snapshot_view> open(const std::string& path);

  /// Validates an in-memory image (tests, corruption drills). The view
  /// copies into an aligned buffer so section alignment still holds.
  static std::shared_ptr<const snapshot_view> from_image(
      std::span<const std::uint8_t> image);

  ~snapshot_view();
  snapshot_view(const snapshot_view&) = delete;
  snapshot_view& operator=(const snapshot_view&) = delete;

  bool has(std::string_view name) const;
  std::span<const std::uint8_t> bytes(std::string_view name) const;
  std::span<const float> f32(std::string_view name) const;
  std::span<const double> f64(std::string_view name) const;
  std::span<const std::int32_t> i32(std::string_view name) const;
  std::span<const std::int64_t> i64(std::string_view name) const;
  /// One-element section reads; throw serialize_error on size mismatch.
  double f64_scalar(std::string_view name) const;
  std::int64_t i64_scalar(std::string_view name) const;
  /// Throws serialize_error naming the first f32/f64 section whose name
  /// starts with `prefix` and that holds a NaN or an infinity.
  void require_finite(std::string_view prefix) const;

  std::size_t section_count() const { return sections_.size(); }
  /// Total bytes of the validated image.
  std::size_t byte_size() const { return size_; }
  /// The footer's content digest.
  strong_hash digest() const { return digest_; }
  const std::string& path() const { return path_; }

 private:
  struct section {
    std::string name;
    snapshot_section_kind kind;
    std::uint64_t offset;
    std::uint64_t size;
  };

  snapshot_view() = default;
  void parse_and_validate();
  const section& find(std::string_view name) const;
  std::span<const std::uint8_t> typed(std::string_view name,
                                      snapshot_section_kind kind,
                                      std::size_t elem_size) const;

  std::uint8_t* data_{nullptr};  // owned, 64-byte aligned
  std::size_t size_{0};
  bool parsed_ok_{false};
  std::string path_;
  strong_hash digest_{};
  std::vector<section> sections_;  // sorted by name
};

}  // namespace dv
