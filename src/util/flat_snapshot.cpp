#include "util/flat_snapshot.h"

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "util/logging.h"
#include "util/metrics.h"
#include "util/serialize.h"

namespace dv {

namespace {

constexpr char k_head_magic[8] = {'D', 'V', 'S', 'N', 'A', 'P', 'S', '1'};
constexpr char k_foot_magic[8] = {'D', 'V', 'S', 'N', 'A', 'P', 'E', '1'};
constexpr std::uint32_t k_version = 1;
constexpr std::size_t k_header_size = 8 + 4 + 4 + 8 + 8;
constexpr std::size_t k_footer_size = 8 + 8 + 8;
constexpr std::size_t k_payload_align = 64;

/// An uninitialized 64-byte-aligned image buffer, freed by ~snapshot_view.
std::uint8_t* allocate_image(std::size_t size) {
  return static_cast<std::uint8_t*>(::operator new(
      std::max<std::size_t>(size, 1), std::align_val_t{k_payload_align}));
}

/// Live snapshot image bytes across every open view, published
/// as the dv_snapshot_bytes gauge (same survive-reset idiom as the cache
/// byte totals in strong_lru.cpp).
std::atomic<std::int64_t>& live_bytes() {
  // dv-lint: allow(thread-safety) atomic singleton
  static std::atomic<std::int64_t> total{0};
  return total;
}

void account_snapshot_bytes(std::int64_t delta) {
  const std::int64_t now =
      live_bytes().fetch_add(delta, std::memory_order_acq_rel) + delta;
  if (metrics::enabled()) {
    metrics::set("dv_snapshot_bytes", static_cast<double>(now));
  }
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

// Byte-wise append of an 8-byte magic; a pointer-range vector::insert here
// trips gcc 12's -Wstringop-overflow false positive under -Werror.
void put_magic(std::vector<std::uint8_t>& out, const char (&magic)[8]) {
  for (const char c : magic) out.push_back(static_cast<std::uint8_t>(c));
}

bool valid_kind(std::uint8_t k) {
  return k <= static_cast<std::uint8_t>(snapshot_section_kind::i64);
}

[[noreturn]] void corrupt(const std::string& path, const std::string& what) {
  throw serialize_error{"snapshot " + (path.empty() ? "<memory>" : path) +
                        ": " + what};
}

}  // namespace

// ---------------------------------------------------------------------------
// snapshot_writer

void snapshot_writer::add(std::string_view name, snapshot_section_kind kind,
                          const void* data, std::size_t size) {
  if (name.empty()) {
    throw std::invalid_argument{"snapshot_writer: empty section name"};
  }
  for (const auto& s : sections_) {
    if (s.name == name) {
      throw std::invalid_argument{"snapshot_writer: duplicate section '" +
                                  std::string{name} + "'"};
    }
  }
  section s;
  s.name = std::string{name};
  s.kind = kind;
  s.payload.resize(size);
  if (size > 0) std::memcpy(s.payload.data(), data, size);
  sections_.push_back(std::move(s));
}

void snapshot_writer::add_bytes(std::string_view name, const void* data,
                                std::size_t size) {
  add(name, snapshot_section_kind::bytes, data, size);
}

void snapshot_writer::add_f32(std::string_view name,
                              std::span<const float> v) {
  add(name, snapshot_section_kind::f32, v.data(), v.size_bytes());
}

void snapshot_writer::add_f64(std::string_view name,
                              std::span<const double> v) {
  add(name, snapshot_section_kind::f64, v.data(), v.size_bytes());
}

void snapshot_writer::add_i32(std::string_view name,
                              std::span<const std::int32_t> v) {
  add(name, snapshot_section_kind::i32, v.data(), v.size_bytes());
}

void snapshot_writer::add_i64(std::string_view name,
                              std::span<const std::int64_t> v) {
  add(name, snapshot_section_kind::i64, v.data(), v.size_bytes());
}

void snapshot_writer::add_f64_scalar(std::string_view name, double v) {
  add_f64(name, {&v, 1});
}

void snapshot_writer::add_i64_scalar(std::string_view name, std::int64_t v) {
  add_i64(name, {&v, 1});
}

std::vector<std::uint8_t> snapshot_writer::serialize() const {
  std::vector<std::uint8_t> out;
  // Header (file_size and toc_offset back-patched below).
  put_magic(out, k_head_magic);
  put_u32(out, k_version);
  put_u32(out, static_cast<std::uint32_t>(sections_.size()));
  const std::size_t toc_offset_at = out.size();
  put_u64(out, 0);
  const std::size_t file_size_at = out.size();
  put_u64(out, 0);

  // Payloads, each 64-byte aligned.
  std::vector<std::uint64_t> offsets(sections_.size());
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    while (out.size() % k_payload_align != 0) out.push_back(0);
    offsets[i] = out.size();
    out.insert(out.end(), sections_[i].payload.begin(),
               sections_[i].payload.end());
  }

  // Table of contents.
  const std::uint64_t toc_offset = out.size();
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    const section& s = sections_[i];
    put_u32(out, static_cast<std::uint32_t>(s.name.size()));
    out.insert(out.end(), s.name.begin(), s.name.end());
    out.push_back(static_cast<std::uint8_t>(s.kind));
    put_u64(out, offsets[i]);
    put_u64(out, s.payload.size());
  }

  // Footer: digest over everything before it.
  const std::uint64_t file_size = out.size() + k_footer_size;
  for (int i = 0; i < 8; ++i) {
    out[toc_offset_at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(toc_offset >> (8 * i));
    out[file_size_at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(file_size >> (8 * i));
  }
  const strong_hash digest = strong_hash::of_bytes(out.data(), out.size());
  put_u64(out, digest.hi);
  put_u64(out, digest.lo);
  put_magic(out, k_foot_magic);
  return out;
}

void snapshot_writer::finish(const std::string& path) const {
  const std::vector<std::uint8_t> image = serialize();
  const std::string tmp = path + ".tmp";
  {
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr) {
      throw serialize_error{"snapshot_writer: cannot open " + tmp};
    }
    const std::size_t written = std::fwrite(image.data(), 1, image.size(), f);
    const int closed = std::fclose(f);
    if (written != image.size() || closed != 0) {
      std::remove(tmp.c_str());
      throw serialize_error{"snapshot_writer: short write to " + tmp};
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw serialize_error{"snapshot_writer: cannot rename " + tmp + " to " +
                          path};
  }
  log_debug() << "snapshot_writer: wrote " << image.size() << " bytes, "
              << sections_.size() << " sections to " << path;
}

// ---------------------------------------------------------------------------
// snapshot_view

std::shared_ptr<const snapshot_view> snapshot_view::open(
    const std::string& path) {
  const std::int64_t start_ns = metrics::now_ns();
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw serialize_error{"snapshot: cannot open " + path};
  struct stat st{};
  if (::fstat(::fileno(f), &st) != 0 || !S_ISREG(st.st_mode)) {
    std::fclose(f);
    throw serialize_error{"snapshot: not a regular file: " + path};
  }
  auto view = std::shared_ptr<snapshot_view>(new snapshot_view);
  view->path_ = path;
  view->size_ = static_cast<std::size_t>(st.st_size);
  view->data_ = allocate_image(view->size_);
  const std::size_t got = std::fread(view->data_, 1, view->size_, f);
  std::fclose(f);
  if (got != view->size_) {
    throw serialize_error{"snapshot: short read from " + path};
  }
  view->parse_and_validate();  // throws; the dtor frees the buffer
  account_snapshot_bytes(static_cast<std::int64_t>(view->size_));
  if (metrics::enabled()) {
    metrics::observe("dv_snapshot_load_seconds",
                     metrics::histogram_options::latency(),
                     static_cast<double>(metrics::now_ns() - start_ns) * 1e-9);
    metrics::count("dv_snapshot_loads_total");
  }
  return view;
}

std::shared_ptr<const snapshot_view> snapshot_view::from_image(
    std::span<const std::uint8_t> image) {
  auto view = std::shared_ptr<snapshot_view>(new snapshot_view);
  view->size_ = image.size();
  view->data_ = allocate_image(view->size_);
  if (!image.empty()) std::memcpy(view->data_, image.data(), image.size());
  view->parse_and_validate();
  account_snapshot_bytes(static_cast<std::int64_t>(view->size_));
  return view;
}

snapshot_view::~snapshot_view() {
  // Validation failures throw before bytes are accounted.
  if (parsed_ok_) {
    account_snapshot_bytes(-static_cast<std::int64_t>(size_));
  }
  if (data_ != nullptr) {
    ::operator delete(data_, std::align_val_t{k_payload_align});
  }
}

void snapshot_view::parse_and_validate() {
  if (size_ < k_header_size + k_footer_size) {
    corrupt(path_, "truncated (smaller than header + footer)");
  }
  if (std::memcmp(data_, k_head_magic, 8) != 0) {
    corrupt(path_, "bad magic (not a dv snapshot)");
  }
  const std::uint32_t version = get_u32(data_ + 8);
  if (version != k_version) {
    corrupt(path_, "unsupported format version " + std::to_string(version));
  }
  const std::uint32_t count = get_u32(data_ + 12);
  const std::uint64_t toc_offset = get_u64(data_ + 16);
  const std::uint64_t file_size = get_u64(data_ + 24);
  if (file_size != size_) {
    corrupt(path_, "size mismatch (header says " + std::to_string(file_size) +
                       ", file has " + std::to_string(size_) + ")");
  }
  const std::uint64_t toc_end = size_ - k_footer_size;
  if (toc_offset < k_header_size || toc_offset > toc_end) {
    corrupt(path_, "table of contents offset out of range");
  }
  if (std::memcmp(data_ + toc_end + 16, k_foot_magic, 8) != 0) {
    corrupt(path_, "bad footer magic");
  }
  digest_.hi = get_u64(data_ + toc_end);
  digest_.lo = get_u64(data_ + toc_end + 8);
  const strong_hash actual = strong_hash::of_bytes(data_, toc_end);
  if (!(actual == digest_)) {
    corrupt(path_, "content digest mismatch (corrupted or tampered)");
  }

  // Digest verified; the toc bytes are trusted to be what the writer
  // produced, but still bounds-check every record so a snapshot written
  // by a buggy producer cannot index out of the image.
  sections_.reserve(count);
  std::uint64_t cursor = toc_offset;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (cursor + 4 > toc_end) corrupt(path_, "toc record truncated");
    const std::uint32_t name_len = get_u32(data_ + cursor);
    cursor += 4;
    if (name_len == 0 || cursor + name_len + 1 + 16 > toc_end) {
      corrupt(path_, "toc record truncated");
    }
    section s;
    s.name.assign(reinterpret_cast<const char*>(data_ + cursor), name_len);
    cursor += name_len;
    const std::uint8_t kind = data_[cursor];
    cursor += 1;
    if (!valid_kind(kind)) corrupt(path_, "unknown section kind");
    s.kind = static_cast<snapshot_section_kind>(kind);
    s.offset = get_u64(data_ + cursor);
    s.size = get_u64(data_ + cursor + 8);
    cursor += 16;
    if (s.offset < k_header_size || s.offset > toc_offset ||
        s.size > toc_offset - s.offset) {
      corrupt(path_, "section '" + s.name + "' out of bounds");
    }
    if (s.offset % k_payload_align != 0) {
      corrupt(path_, "section '" + s.name + "' misaligned");
    }
    sections_.push_back(std::move(s));
  }
  if (cursor != toc_end) corrupt(path_, "trailing bytes after toc");
  std::sort(sections_.begin(), sections_.end(),
            [](const section& a, const section& b) { return a.name < b.name; });
  for (std::size_t i = 1; i < sections_.size(); ++i) {
    if (sections_[i - 1].name == sections_[i].name) {
      corrupt(path_, "duplicate section '" + sections_[i].name + "'");
    }
  }
  parsed_ok_ = true;
}

const snapshot_view::section& snapshot_view::find(
    std::string_view name) const {
  const auto it = std::lower_bound(
      sections_.begin(), sections_.end(), name,
      [](const section& s, std::string_view n) { return s.name < n; });
  if (it == sections_.end() || it->name != name) {
    corrupt(path_, "missing section '" + std::string{name} + "'");
  }
  return *it;
}

bool snapshot_view::has(std::string_view name) const {
  const auto it = std::lower_bound(
      sections_.begin(), sections_.end(), name,
      [](const section& s, std::string_view n) { return s.name < n; });
  return it != sections_.end() && it->name == name;
}

std::span<const std::uint8_t> snapshot_view::bytes(
    std::string_view name) const {
  const section& s = find(name);
  return {data_ + s.offset, static_cast<std::size_t>(s.size)};
}

std::span<const std::uint8_t> snapshot_view::typed(
    std::string_view name, snapshot_section_kind kind,
    std::size_t elem_size) const {
  const section& s = find(name);
  if (s.kind != kind) {
    corrupt(path_, "section '" + std::string{name} + "' has wrong kind");
  }
  if (s.size % elem_size != 0) {
    corrupt(path_, "section '" + std::string{name} + "' has ragged size");
  }
  return {data_ + s.offset, static_cast<std::size_t>(s.size)};
}

std::span<const float> snapshot_view::f32(std::string_view name) const {
  const auto raw = typed(name, snapshot_section_kind::f32, sizeof(float));
  return {reinterpret_cast<const float*>(raw.data()),
          raw.size() / sizeof(float)};
}

std::span<const double> snapshot_view::f64(std::string_view name) const {
  const auto raw = typed(name, snapshot_section_kind::f64, sizeof(double));
  return {reinterpret_cast<const double*>(raw.data()),
          raw.size() / sizeof(double)};
}

std::span<const std::int32_t> snapshot_view::i32(std::string_view name) const {
  const auto raw =
      typed(name, snapshot_section_kind::i32, sizeof(std::int32_t));
  return {reinterpret_cast<const std::int32_t*>(raw.data()),
          raw.size() / sizeof(std::int32_t)};
}

std::span<const std::int64_t> snapshot_view::i64(std::string_view name) const {
  const auto raw =
      typed(name, snapshot_section_kind::i64, sizeof(std::int64_t));
  return {reinterpret_cast<const std::int64_t*>(raw.data()),
          raw.size() / sizeof(std::int64_t)};
}

double snapshot_view::f64_scalar(std::string_view name) const {
  const auto v = f64(name);
  if (v.size() != 1) {
    corrupt(path_, "section '" + std::string{name} + "' is not a scalar");
  }
  return v[0];
}

std::int64_t snapshot_view::i64_scalar(std::string_view name) const {
  const auto v = i64(name);
  if (v.size() != 1) {
    corrupt(path_, "section '" + std::string{name} + "' is not a scalar");
  }
  return v[0];
}

void snapshot_view::require_finite(std::string_view prefix) const {
  const auto all_finite = [](auto values) {
    return std::all_of(values.begin(), values.end(),
                       [](auto v) { return std::isfinite(v); });
  };
  for (const section& s : sections_) {
    if (s.name.compare(0, prefix.size(), prefix) != 0) continue;
    bool finite = true;
    if (s.kind == snapshot_section_kind::f32) finite = all_finite(f32(s.name));
    if (s.kind == snapshot_section_kind::f64) finite = all_finite(f64(s.name));
    if (!finite) {
      corrupt(path_, "section '" + s.name + "' holds a non-finite value");
    }
  }
}

}  // namespace dv
