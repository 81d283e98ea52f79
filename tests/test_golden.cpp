// Cross-commit golden: pins the bits of the whole train -> fit -> save ->
// load -> score -> serve path against tests/golden/dv_fast_digits.txt.
//
// Every other determinism test compares two paths inside one build; this
// one would notice a commit that moves the bits of every path together.
// It trains the DV_FAST-size digits model and fits its bank in-process,
// round-trips both through their on-disk formats (save_params/load_params,
// save_snapshot/from_snapshot) and scores with the reloaded pair. The
// output holds:
//   - a strong-hash digest of the reloaded parameter and state values;
//   - the bank snapshot's footer digest and threshold;
//   - hex-float joints and verdicts for 64 clean test frames and the same
//     frames under the paper's six single transformations;
//   - the monitor_service verdict stream over that frame sequence.
// Header lines ('#': compiler and flags) are not compared. On a mismatch
// the full output lands in the build tree and the first differing line is
// printed. tests/CMakeLists.txt reruns this binary across DV_THREADS,
// DV_SIMD and DV_CACHE; every rerun must match the same file.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <vector>

#include "augment/transforms.h"
#include "core/deep_validator.h"
#include "core/monitor.h"
#include "core/validator_bank.h"
#include "data/factory.h"
#include "eval/metrics.h"
#include "nn/trainer.h"
#include "pipeline/config.h"
#include "pipeline/models.h"
#include "serve/engine_handle.h"
#include "serve/monitor_service.h"
#include "serve/scoring.h"
#include "tensor/simd/simd.h"
#include "util/flat_snapshot.h"
#include "util/logging.h"
#include "util/strong_lru.h"
#include "util/thread_pool.h"

namespace dv {
namespace {

constexpr std::int64_t k_clean_frames = 64;

std::string hex_digest(const strong_hash& h) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(h.hi),
                static_cast<unsigned long long>(h.lo));
  return buf;
}

std::string hex_float(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// Digest of the parameter and state values in network order: each
/// tensor's shape, then its floats. File bytes play no part.
strong_hash parameter_digest(sequential& model) {
  std::vector<unsigned char> bytes;
  const auto append = [&](const tensor& t) {
    for (const std::int64_t e : t.shape()) {
      const auto* p = reinterpret_cast<const unsigned char*>(&e);
      bytes.insert(bytes.end(), p, p + sizeof e);
    }
    const auto* p = reinterpret_cast<const unsigned char*>(t.data());
    bytes.insert(bytes.end(), p, p + t.numel() * sizeof(float));
  };
  for (const auto& p : model.params()) append(*p.value);
  for (const tensor* t : model.state()) append(*t);
  return strong_hash::of_bytes(bytes.data(), bytes.size());
}

/// The first k_clean_frames test images, then the same images under each
/// of the paper's six single transformations at fixed parameters.
tensor golden_frames(const dataset& test, std::vector<std::string>& set) {
  const std::vector<std::pair<const char*, transform_chain>> transforms = {
      {"brightness", {{transform_kind::brightness, 0.25f, 0.0f}}},
      {"contrast", {{transform_kind::contrast, 1.6f, 0.0f}}},
      {"rotation", {{transform_kind::rotation, 25.0f, 0.0f}}},
      {"shear", {{transform_kind::shear, 0.25f, 0.1f}}},
      {"scale", {{transform_kind::scale, 0.8f, 0.8f}}},
      {"translation", {{transform_kind::translation, 4.0f, -3.0f}}},
  };
  const auto sets = static_cast<std::int64_t>(1 + transforms.size());
  tensor frames{{k_clean_frames * sets, test.channels(), test.height(),
                 test.width()}};
  std::int64_t row = 0;
  for (std::int64_t i = 0; i < k_clean_frames; ++i) {
    frames.set_sample(row++, test.images.sample(i));
    set.emplace_back("clean");
  }
  for (const auto& [name, chain] : transforms) {
    for (std::int64_t i = 0; i < k_clean_frames; ++i) {
      frames.set_sample(row++, apply_chain(test.images.sample(i), chain));
      set.emplace_back(name);
    }
  }
  return frames;
}

/// Runs the whole pipeline and returns the golden text (header included).
std::string golden_output(const std::string& scratch) {
  // DV_FAST pins every size in standard_config, so DV_SCALE cannot leak in.
  ::setenv("DV_FAST", "1", 1);
  const experiment_config config = standard_config(dataset_kind::digits);
  dataset_bundle data = make_dataset(config.data);
  std::unique_ptr<sequential> trained =
      make_model(dataset_kind::digits, config.model_seed);
  train_config train = config.train;
  train.verbose = false;
  (void)fit(*trained, data.train.images, data.train.labels, train);

  deep_validator fitted;
  fitted.fit(*trained, data.train, config.validator);
  fitted.set_threshold(threshold_for_fpr(
      fitted.evaluate(*trained, data.test.images).joint, 0.05));

  // Round-trip both halves through their on-disk formats.
  const std::string model_path = scratch + "model-digits.dvsnap";
  const std::string bank_path = scratch + "bank-digits.dvsnap";
  trained->save_params(model_path);
  fitted.save_snapshot(bank_path);
  std::unique_ptr<sequential> model =
      make_model(dataset_kind::digits, config.model_seed);
  model->load_params(model_path);
  const auto snap = snapshot_view::open(bank_path);
  const validator_bank_view bank = validator_bank_view::from_snapshot(snap);
  EXPECT_EQ(hex_digest(parameter_digest(*model)),
            hex_digest(parameter_digest(*trained)))
      << "parameters changed in the save/load round trip";

  std::ostringstream out;
  out << "# DV_FAST digits golden (tests/test_golden.cpp); '#' lines are "
         "not compared\n"
      << "# compiler: " << DV_GOLDEN_COMPILER << "\n"
      << "# flags: " << DV_GOLDEN_FLAGS << "\n";
  out << "params " << hex_digest(parameter_digest(*model)) << "\n"
      << "bank " << hex_digest(snap->digest()) << "\n"
      << "threshold " << hex_float(bank.threshold()) << "\n";

  std::vector<std::string> set;
  const tensor frames = golden_frames(data.test, set);
  const validation_scores scores = bank.evaluate(*model, frames);
  for (std::int64_t i = 0; i < frames.extent(0); ++i) {
    const auto r = static_cast<std::size_t>(i);
    out << "frame " << set[r] << " " << i % k_clean_frames << " pred "
        << scores.predictions[r] << " joint " << hex_float(scores.joint[r])
        << (bank.flags_invalid(scores.joint[r]) ? " INVALID" : " valid")
        << "\n";
  }

  // The served verdict stream over the same sequence, through a published
  // bank and the monitor's own snapshot-loaded validator.
  engine_handle handle;
  handle.publish(bank);
  engine_scorer scorer{*model, handle};
  const deep_validator monitor_bank = deep_validator::load_snapshot(bank_path);
  runtime_monitor monitor{*model, monitor_bank};
  monitor_service service{scorer, monitor};
  std::vector<std::future<monitor_verdict>> verdicts;
  for (std::int64_t i = 0; i < frames.extent(0); ++i) {
    verdicts.push_back(service.submit(frames.sample(i)));
  }
  for (std::size_t k = 0; k < verdicts.size(); ++k) {
    const monitor_verdict v = verdicts[k].get();
    out << "monitor " << k << " pred " << v.prediction << " joint "
        << hex_float(v.discrepancy) << (v.frame_invalid ? " INVALID" : " valid")
        << (v.alarm ? " ALARM" : " quiet") << "\n";
  }
  service.shutdown();
  std::remove(model_path.c_str());
  std::remove(bank_path.c_str());
  return out.str();
}

std::vector<std::string> compared_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in{text};
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') lines.push_back(line);
  }
  return lines;
}

TEST(Golden, DvFastDigitsMatchesCommittedBits) {
  set_log_level(log_level::warn);
  const std::string run_tag =
      "threads" + std::to_string(thread_count()) + "-" +
      std::string{simd_level_name(active_simd_level())} + "-cache" +
      (cache_enabled() ? "on" : "off") + "-" + std::to_string(::getpid());
  const std::string actual =
      golden_output(::testing::TempDir() + "dv-golden-" + run_tag + "-");

  std::ifstream golden_file{DV_GOLDEN_FILE};
  std::stringstream expected;
  expected << golden_file.rdbuf();
  const std::vector<std::string> want = compared_lines(expected.str());
  const std::vector<std::string> got = compared_lines(actual);
  if (want == got) return;

  const std::string dump =
      std::string{DV_GOLDEN_OUT_DIR} + "/dv_fast_digits." + run_tag + ".txt";
  std::ofstream{dump} << actual;
  std::size_t first = 0;
  while (first < want.size() && first < got.size() &&
         want[first] == got[first]) {
    ++first;
  }
  ADD_FAILURE() << "golden mismatch against " << DV_GOLDEN_FILE
                << " (full output written to " << dump << ")\n"
                << "first difference at compared line " << first + 1
                << ":\n  expected: "
                << (first < want.size() ? want[first] : "<end of file>")
                << "\n  actual:   "
                << (first < got.size() ? got[first] : "<end of output>");
}

}  // namespace
}  // namespace dv
