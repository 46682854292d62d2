#include "embedding/word2vec.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "embedding/sgns_kernel.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define OPINEDB_SGNS_AVX2 1
#include <immintrin.h>
#endif

namespace opinedb::embedding {
namespace sgns {
namespace {

double Sigmoid(double x) {
  if (x > 8.0) return 1.0;
  if (x < -8.0) return 0.0;
  return 1.0 / (1.0 + std::exp(-x));
}

/// Unigram^(3/4) negative-sampling table (the standard word2vec trick).
///
/// Sample() returns the index std::lower_bound finds in the cumulative
/// weights, through a guide table instead of a branchy binary search:
/// the target range is cut into kBucketsPerWord equal buckets per word,
/// and bucket b keeps lower_bound of its start b * step_. A lookup
/// starts from its bucket's index and scans forward, usually not at all.
class NegativeSampler {
 public:
  explicit NegativeSampler(const text::Vocab& vocab)
      : cumulative_(vocab.size()) {
    double total = 0.0;
    for (size_t i = 0; i < vocab.size(); ++i) {
      total += std::pow(
          static_cast<double>(vocab.count(static_cast<text::WordId>(i))),
          0.75);
      cumulative_[i] = total;
    }
    total_ = total;
    const size_t buckets =
        kBucketsPerWord * std::max<size_t>(1, cumulative_.size());
    step_ = total_ / static_cast<double>(buckets);
    bucket_scale_ = static_cast<double>(buckets) / total_;
    guide_.resize(buckets);
    for (size_t b = 0; b < buckets; ++b) {
      guide_[b] = static_cast<uint32_t>(
          std::lower_bound(cumulative_.begin(), cumulative_.end(), Start(b)) -
          cumulative_.begin());
    }
  }

  text::WordId Sample(Rng* rng) const {
    const double target = rng->Uniform() * total_;
    size_t b = std::min(static_cast<size_t>(target * bucket_scale_),
                        guide_.size() - 1);
    // Rounding may place a target one bucket late; bucket 0 starts at 0,
    // so stepping back stops there at the latest.
    while (Start(b) > target) --b;
    // lower_bound(start) <= lower_bound(target), and the last cumulative
    // weight is the total, which no target exceeds.
    size_t i = guide_[b];
    while (cumulative_[i] < target) ++i;
    return static_cast<text::WordId>(i);
  }

 private:
  static constexpr size_t kBucketsPerWord = 8;

  double Start(size_t b) const { return static_cast<double>(b) * step_; }

  std::vector<double> cumulative_;
  std::vector<uint32_t> guide_;
  double total_ = 0.0;
  double step_ = 0.0;
  double bucket_scale_ = 0.0;
};

// ---------------------------------------------------- portable arm.

/// M dot products at once: M independent sequential sums, which the
/// compiler keeps in registers and overlaps.
template <size_t M>
void PortableDotsOf(const double* in, const float* const* rows, size_t dim,
                    double* dots) {
  double sum[M] = {};
  for (size_t i = 0; i < dim; ++i) {
    for (size_t k = 0; k < M; ++k) {
      sum[k] += in[i] * static_cast<double>(rows[k][i]);
    }
  }
  for (size_t k = 0; k < M; ++k) dots[k] = sum[k];
}

void PortableDots(const double* in, const float* const* rows, size_t m,
                  size_t dim, double* dots) {
  static_assert(kDotChunk == 8);
  switch (m) {
    case 1: return PortableDotsOf<1>(in, rows, dim, dots);
    case 2: return PortableDotsOf<2>(in, rows, dim, dots);
    case 3: return PortableDotsOf<3>(in, rows, dim, dots);
    case 4: return PortableDotsOf<4>(in, rows, dim, dots);
    case 5: return PortableDotsOf<5>(in, rows, dim, dots);
    case 6: return PortableDotsOf<6>(in, rows, dim, dots);
    case 7: return PortableDotsOf<7>(in, rows, dim, dots);
    case 8: return PortableDotsOf<8>(in, rows, dim, dots);
  }
}

void PortableUpdate(double g, const double* __restrict in,
                    float* __restrict out, float* __restrict grad,
                    size_t dim) {
  for (size_t i = 0; i < dim; ++i) {
    grad[i] += static_cast<float>(g * out[i]);
    out[i] += static_cast<float>(g * in[i]);
  }
}

// -------------------------------------------------------- AVX2 arm.
// AVX2 only, not FMA: every multiply and add rounds on its own, as in
// the portable arm (the dot's products are exact in double anyway).

#ifdef OPINEDB_SGNS_AVX2
/// 4 * G rows in G groups of four: one lane per row, so each lane is
/// that row's sequential sum. Four elements of four rows are multiplied
/// at a time and transposed, then added into the lanes in order of i.
/// Rows past m repeat row 0 and are dropped.
template <size_t G>
__attribute__((target("avx2"))) void Avx2DotsOf(const double* in,
                                                const float* const* rows,
                                                size_t m, size_t dim,
                                                double* dots) {
  const float* r[4 * G];
  for (size_t k = 0; k < 4 * G; ++k) r[k] = rows[k < m ? k : 0];
  __m256d acc[G];
  for (size_t g = 0; g < G; ++g) acc[g] = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= dim; i += 4) {
    const __m256d x = _mm256_loadu_pd(in + i);
    for (size_t g = 0; g < G; ++g) {
      __m256d p[4];
      for (size_t k = 0; k < 4; ++k) {
        const __m128 row = _mm_loadu_ps(r[4 * g + k] + i);
        p[k] = _mm256_mul_pd(x, _mm256_cvtps_pd(row));
      }
      const __m256d lo01 = _mm256_unpacklo_pd(p[0], p[1]);
      const __m256d hi01 = _mm256_unpackhi_pd(p[0], p[1]);
      const __m256d lo23 = _mm256_unpacklo_pd(p[2], p[3]);
      const __m256d hi23 = _mm256_unpackhi_pd(p[2], p[3]);
      __m256d a = acc[g];
      a = _mm256_add_pd(a, _mm256_permute2f128_pd(lo01, lo23, 0x20));  // i
      a = _mm256_add_pd(a, _mm256_permute2f128_pd(hi01, hi23, 0x20));  // i+1
      a = _mm256_add_pd(a, _mm256_permute2f128_pd(lo01, lo23, 0x31));  // i+2
      a = _mm256_add_pd(a, _mm256_permute2f128_pd(hi01, hi23, 0x31));  // i+3
      acc[g] = a;
    }
  }
  double sum[4 * G];
  for (size_t g = 0; g < G; ++g) _mm256_storeu_pd(sum + 4 * g, acc[g]);
  for (; i < dim; ++i) {
    for (size_t k = 0; k < 4 * G; ++k) {
      sum[k] += in[i] * static_cast<double>(r[k][i]);
    }
  }
  for (size_t k = 0; k < m; ++k) dots[k] = sum[k];
}

__attribute__((target("avx2"))) void Avx2Dots(const double* in,
                                              const float* const* rows,
                                              size_t m, size_t dim,
                                              double* dots) {
  static_assert(kDotChunk == 8);
  if (m > 4) return Avx2DotsOf<2>(in, rows, m, dim, dots);
  return Avx2DotsOf<1>(in, rows, m, dim, dots);
}

__attribute__((target("avx2"))) void Avx2Update(double g,
                                                const double* __restrict in,
                                                float* __restrict out,
                                                float* __restrict grad,
                                                size_t dim) {
  const __m256d gv = _mm256_set1_pd(g);
  size_t i = 0;
  for (; i + 4 <= dim; i += 4) {
    const __m128 o = _mm_loadu_ps(out + i);
    const __m128 dg = _mm256_cvtpd_ps(_mm256_mul_pd(gv, _mm256_cvtps_pd(o)));
    _mm_storeu_ps(grad + i, _mm_add_ps(_mm_loadu_ps(grad + i), dg));
    const __m128 dout =
        _mm256_cvtpd_ps(_mm256_mul_pd(gv, _mm256_loadu_pd(in + i)));
    _mm_storeu_ps(out + i, _mm_add_ps(o, dout));
  }
  for (; i < dim; ++i) {
    grad[i] += static_cast<float>(g * out[i]);
    out[i] += static_cast<float>(g * in[i]);
  }
}
#endif  // OPINEDB_SGNS_AVX2

}  // namespace

Kernel PortableKernel() { return {&PortableDots, &PortableUpdate}; }

std::optional<Kernel> Avx2Kernel() {
#ifdef OPINEDB_SGNS_AVX2
  if (__builtin_cpu_supports("avx2")) return Kernel{&Avx2Dots, &Avx2Update};
#endif
  return std::nullopt;
}

WordEmbeddings Train(const std::vector<std::vector<std::string>>& sentences,
                     const Word2VecOptions& options, const Kernel& kernel) {
  // Pass 1: count the vocabulary.
  text::Vocab full;
  for (const auto& sentence : sentences) {
    for (const auto& token : sentence) full.Add(token);
  }
  text::Vocab vocab = full.Pruned(options.min_count);
  const size_t v = vocab.size();
  const size_t dim = options.dim;

  // Input and output vectors, one row per word.
  Rng rng(options.seed);
  std::vector<float> in(v * dim), out(v * dim, 0.0f);
  for (float& x : in) {
    x = static_cast<float>((rng.Uniform() - 0.5) / dim);
  }
  auto trained = [&] {
    std::vector<Vec> vectors(v);
    for (size_t i = 0; i < v; ++i) {
      vectors[i].assign(in.begin() + i * dim, in.begin() + (i + 1) * dim);
    }
    return WordEmbeddings(std::move(vocab), std::move(vectors));
  };
  if (v == 0) return trained();

  NegativeSampler sampler(vocab);

  // Frequent-word subsampling keeps each occurrence with its word's
  // probability; empty when subsampling is off.
  std::vector<double> keep_prob;
  if (options.subsample > 0.0) {
    const double total_count = static_cast<double>(vocab.total_count());
    keep_prob.resize(v);
    for (size_t id = 0; id < v; ++id) {
      const double freq =
          static_cast<double>(vocab.count(static_cast<text::WordId>(id))) /
          total_count;
      keep_prob[id] = std::min(1.0, std::sqrt(options.subsample / freq) +
                                        options.subsample / freq);
    }
  }

  // Pre-encode sentences as word ids.
  std::vector<std::vector<text::WordId>> encoded;
  encoded.reserve(sentences.size());
  for (const auto& sentence : sentences) {
    std::vector<text::WordId> ids;
    ids.reserve(sentence.size());
    for (const auto& token : sentence) {
      text::WordId id = vocab.Lookup(token);
      if (id != text::kInvalidWordId) ids.push_back(id);
    }
    if (ids.size() >= 2) encoded.push_back(std::move(ids));
  }

  // Per context: the center (label 1), then each negative draw that is
  // not the center (label 0).
  const size_t draws =
      static_cast<size_t>(std::max(0, options.negative_samples + 1));
  std::vector<text::WordId> targets(draws);
  std::vector<text::WordId> kept;
  std::vector<double> vin_wide(dim);
  Vec grad(dim);
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    const double lr = options.learning_rate *
                      (1.0 - static_cast<double>(epoch) / options.epochs);
    for (const auto& ids : encoded) {
      kept.clear();
      for (text::WordId id : ids) {
        if (!keep_prob.empty() && !rng.Bernoulli(keep_prob[id])) continue;
        kept.push_back(id);
      }
      for (size_t pos = 0; pos < kept.size(); ++pos) {
        const text::WordId center = kept[pos];
        const int reduced_window =
            1 + static_cast<int>(rng.Below(options.window));
        const size_t lo =
            pos >= static_cast<size_t>(reduced_window)
                ? pos - static_cast<size_t>(reduced_window)
                : 0;
        const size_t hi =
            std::min(kept.size() - 1, pos + static_cast<size_t>(reduced_window));
        for (size_t ctx_pos = lo; ctx_pos <= hi; ++ctx_pos) {
          if (ctx_pos == pos) continue;
          float* vin = &in[static_cast<size_t>(kept[ctx_pos]) * dim];
          std::copy(vin, vin + dim, vin_wide.begin());
          size_t n = 0;
          if (draws > 0) targets[n++] = center;
          for (size_t s = 1; s < draws; ++s) {
            const text::WordId target = sampler.Sample(&rng);
            if (target != center) targets[n++] = target;
          }
          std::fill(grad.begin(), grad.end(), 0.0f);
          for (size_t base = 0; base < n; base += kDotChunk) {
            const size_t m = std::min(kDotChunk, n - base);
            const text::WordId* chunk = &targets[base];
            float* rows[kDotChunk];
            for (size_t k = 0; k < m; ++k) {
              rows[k] = &out[static_cast<size_t>(chunk[k]) * dim];
            }
            double dots[kDotChunk];
            kernel.dots(vin_wide.data(), rows, m, dim, dots);
            for (size_t k = 0; k < m; ++k) {
              // A target drawn earlier in this chunk has been updated
              // since its dot was taken: take it again.
              if (std::find(chunk, chunk + k, chunk[k]) != chunk + k) {
                kernel.dots(vin_wide.data(), &rows[k], 1, dim, &dots[k]);
              }
              const double label = base + k == 0 ? 1.0 : 0.0;
              const double g = lr * (label - Sigmoid(dots[k]));
              kernel.update(g, vin_wide.data(), rows[k], grad.data(), dim);
            }
          }
          for (size_t i = 0; i < dim; ++i) vin[i] += grad[i];
        }
      }
    }
  }
  return trained();
}

}  // namespace sgns

WordEmbeddings::WordEmbeddings(text::Vocab vocab, std::vector<Vec> vectors)
    : vocab_(std::move(vocab)), vectors_(std::move(vectors)) {
  dim_ = vectors_.empty() ? 0 : vectors_[0].size();
}

// Training is serial on purpose. Every interpretation, seed expansion and
// marker centroid reads these vectors, and the goldens and the
// append == rebuild and follower == primary oracles compare what they
// produce bit for bit; a Hogwild-style parallel split would make the
// vectors depend on thread timing. sgns::Train returns exactly the bits
// of the textbook loop — per target: draw, Sigmoid(Dot(in, out)),
// AxPy(g, out, &grad), AxPy(g, in, &out); per context:
// AxPy(1, grad, &in) — on every arm: the same rng stream, and every
// float produced by the same IEEE operations in the same order.
// tests/embedding_test.cc keeps that loop as the reference.
WordEmbeddings WordEmbeddings::TrainSgns(
    const std::vector<std::vector<std::string>>& sentences,
    const Word2VecOptions& options) {
  static const sgns::Kernel kernel =
      sgns::Avx2Kernel().value_or(sgns::PortableKernel());
  return sgns::Train(sentences, options, kernel);
}

const Vec* WordEmbeddings::Get(std::string_view word) const {
  text::WordId id = vocab_.Lookup(word);
  if (id == text::kInvalidWordId && word.size() > 3 && word.back() == 's') {
    // Light morphological fallback: "rooms" -> "room". Review corpora are
    // small enough that one inflection may be unseen.
    id = vocab_.Lookup(word.substr(0, word.size() - 1));
  }
  if (id == text::kInvalidWordId) return nullptr;
  return &vectors_[id];
}

double WordEmbeddings::Similarity(std::string_view a,
                                  std::string_view b) const {
  const Vec* va = Get(a);
  const Vec* vb = Get(b);
  if (va == nullptr || vb == nullptr) return 0.0;
  return Cosine(*va, *vb);
}

std::vector<std::pair<std::string, double>> WordEmbeddings::MostSimilar(
    std::string_view word, size_t k) const {
  const Vec* query = Get(word);
  if (query == nullptr) return {};
  auto result = MostSimilarToVector(*query, k + 1);
  // Drop the word itself if present.
  std::vector<std::pair<std::string, double>> filtered;
  for (auto& [w, score] : result) {
    if (w != word) filtered.emplace_back(std::move(w), score);
    if (filtered.size() == k) break;
  }
  return filtered;
}

std::vector<std::pair<std::string, double>>
WordEmbeddings::MostSimilarToVector(const Vec& query, size_t k) const {
  std::vector<std::pair<std::string, double>> scored;
  scored.reserve(vectors_.size());
  for (size_t i = 0; i < vectors_.size(); ++i) {
    scored.emplace_back(vocab_.word(static_cast<text::WordId>(i)),
                        Cosine(query, vectors_[i]));
  }
  std::sort(scored.begin(), scored.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  if (scored.size() > k) scored.resize(k);
  return scored;
}

}  // namespace opinedb::embedding
