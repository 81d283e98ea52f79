// Probe reduction: hidden representation -> fixed-size feature vector.
//
// The paper feeds raw hidden representations to the one-class SVMs. Raw
// convolutional feature maps are infeasibly high-dimensional for kernel
// methods on a single CPU core, so convolutional probes are reduced by
// adaptive spatial average pooling to an s x s grid per channel (s = 1 is
// global average pooling). Fully connected probes pass through unchanged.
// This substitution is recorded in DESIGN.md §3 and ablated in
// bench_perf_validation. sequential::infer runs the reducer inside each
// inference slice when asked for reduced probes (nn/model.h), so the
// scoring and fitting paths never hold a batch of raw probes.
#pragma once

#include "tensor/tensor.h"

namespace dv {

/// Reduces a batched probe output to a 2-D feature matrix [N, d].
/// 4-D probes [N, C, H, W] are adaptively average-pooled to [N, C*s*s];
/// 2-D probes pass through. `spatial` must be >= 1.
tensor reduce_probe(const tensor& probe, int spatial);

/// The feature dimension reduce_probe would produce for a probe shape.
std::int64_t reduced_dimension(const std::vector<std::int64_t>& probe_shape,
                               int spatial);

}  // namespace dv
