#ifndef OPINEDB_EMBEDDING_SGNS_KERNEL_H_
#define OPINEDB_EMBEDDING_SGNS_KERNEL_H_

// The arithmetic kernels of WordEmbeddings::TrainSgns, in two arms: a
// portable one and, on x86-64 CPUs that have it, AVX2. Both produce the
// bits of the textbook loop (vector_ops.h's Dot and AxPy). Only the
// trainer and its tests include this header; the tests train through
// each arm and compare against a reference.

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "embedding/word2vec.h"

namespace opinedb::embedding::sgns {

/// Most rows one DotsFn call takes.
inline constexpr size_t kDotChunk = 8;

/// dots[k] = Dot(in, rows[k]) for k < m <= kDotChunk: the products
/// in[i] * double(rows[k][i]) summed in double in order of i, from 0.0.
/// `in` is the input vector already widened to double.
using DotsFn = void (*)(const double* in, const float* const* rows,
                        size_t m, size_t dim, double* dots);

/// One target's step, for each i in order: grad[i] += float(g * out[i]),
/// then out[i] += float(g * in[i]) — AxPy(g, out, &grad) followed by
/// AxPy(g, in, &out), fused (element i of one reads no other element).
using UpdateFn = void (*)(double g, const double* in, float* out,
                          float* grad, size_t dim);

struct Kernel {
  DotsFn dots = nullptr;
  UpdateFn update = nullptr;
};

/// The portable arm.
Kernel PortableKernel();

/// The AVX2 arm, or nullopt where the compiler or the CPU lacks AVX2.
std::optional<Kernel> Avx2Kernel();

/// TrainSgns through `kernel`; TrainSgns uses the AVX2 arm where there
/// is one and the portable arm elsewhere.
WordEmbeddings Train(const std::vector<std::vector<std::string>>& sentences,
                     const Word2VecOptions& options, const Kernel& kernel);

}  // namespace opinedb::embedding::sgns

#endif  // OPINEDB_EMBEDDING_SGNS_KERNEL_H_
