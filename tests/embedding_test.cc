#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datagen/domain_spec.h"
#include "datagen/generator.h"
#include "embedding/kdtree.h"
#include "embedding/phrase_rep.h"
#include "embedding/sgns_kernel.h"
#include "embedding/substitution_index.h"
#include "embedding/vector_ops.h"
#include "embedding/word2vec.h"
#include "text/tokenizer.h"

namespace opinedb::embedding {
namespace {

TEST(VectorOpsTest, DotNormCosine) {
  Vec a = {1.0f, 0.0f};
  Vec b = {0.0f, 2.0f};
  Vec c = {2.0f, 0.0f};
  EXPECT_EQ(Dot(a, b), 0.0);
  EXPECT_EQ(Norm(b), 2.0);
  EXPECT_NEAR(Cosine(a, c), 1.0, 1e-9);
  EXPECT_NEAR(Cosine(a, b), 0.0, 1e-9);
}

TEST(VectorOpsTest, CosineOfZeroVectorIsZero) {
  Vec zero = {0.0f, 0.0f};
  Vec a = {1.0f, 1.0f};
  EXPECT_EQ(Cosine(zero, a), 0.0);
}

TEST(VectorOpsTest, AxPyAndScale) {
  Vec a = {1.0f, 2.0f};
  Vec b = {10.0f, 20.0f};
  AxPy(0.5, b, &a);
  EXPECT_FLOAT_EQ(a[0], 6.0f);
  EXPECT_FLOAT_EQ(a[1], 12.0f);
  Scale(2.0, &a);
  EXPECT_FLOAT_EQ(a[0], 12.0f);
}

TEST(VectorOpsTest, MeanOfVectors) {
  Vec mean = Mean({{2.0f, 0.0f}, {0.0f, 2.0f}}, 2);
  EXPECT_FLOAT_EQ(mean[0], 1.0f);
  EXPECT_FLOAT_EQ(mean[1], 1.0f);
  Vec empty_mean = Mean({}, 3);
  EXPECT_EQ(empty_mean.size(), 3u);
  EXPECT_FLOAT_EQ(empty_mean[0], 0.0f);
}

// Synthetic corpus with two clearly separated topics: words within a
// topic co-occur, words across topics never do, so SGNS must embed them
// closer within topic than across.
std::vector<std::vector<std::string>> TwoTopicCorpus() {
  Rng rng(7);
  const std::vector<std::string> clean_words = {"clean", "spotless", "tidy",
                                                "fresh"};
  const std::vector<std::string> noisy_words = {"noisy", "loud", "traffic",
                                                "honking"};
  std::vector<std::vector<std::string>> sentences;
  for (int i = 0; i < 600; ++i) {
    const auto& pool = (i % 2 == 0) ? clean_words : noisy_words;
    std::vector<std::string> sentence;
    for (int j = 0; j < 6; ++j) {
      sentence.push_back(pool[rng.Below(pool.size())]);
    }
    sentences.push_back(std::move(sentence));
  }
  return sentences;
}

TEST(Word2VecTest, LearnsTopicStructure) {
  Word2VecOptions options;
  options.dim = 16;
  options.epochs = 4;
  options.seed = 3;
  auto model = WordEmbeddings::TrainSgns(TwoTopicCorpus(), options);
  EXPECT_GT(model.size(), 0u);
  EXPECT_GT(model.Similarity("clean", "spotless"),
            model.Similarity("clean", "noisy"));
  EXPECT_GT(model.Similarity("loud", "traffic"),
            model.Similarity("loud", "tidy"));
}

/// Asserts two models have the same words and bit-identical vectors.
void ExpectSameBits(const WordEmbeddings& expected,
                    const WordEmbeddings& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  ASSERT_EQ(expected.dim(), actual.dim());
  for (size_t i = 0; i < expected.size(); ++i) {
    const auto id = static_cast<text::WordId>(i);
    ASSERT_EQ(expected.vocab().word(id), actual.vocab().word(id));
    ASSERT_EQ(std::memcmp(expected.vector(id).data(), actual.vector(id).data(),
                          expected.dim() * sizeof(float)),
              0)
        << "vector of \"" << expected.vocab().word(id) << "\" differs";
  }
}

TEST(Word2VecTest, DeterministicAcrossRuns) {
  Word2VecOptions options;
  options.dim = 8;
  options.epochs = 2;
  auto corpus = TwoTopicCorpus();
  auto a = WordEmbeddings::TrainSgns(corpus, options);
  auto b = WordEmbeddings::TrainSgns(corpus, options);
  ASSERT_NE(a.Get("clean"), nullptr);
  ExpectSameBits(a, b);
}

TEST(Word2VecTest, OovReturnsNull) {
  Word2VecOptions options;
  options.dim = 8;
  options.epochs = 1;
  auto model = WordEmbeddings::TrainSgns(TwoTopicCorpus(), options);
  EXPECT_EQ(model.Get("unseen-word"), nullptr);
  EXPECT_EQ(model.Similarity("unseen-word", "clean"), 0.0);
  EXPECT_TRUE(model.MostSimilar("unseen-word", 3).empty());
}

TEST(Word2VecTest, MinCountPrunesRareWords) {
  std::vector<std::vector<std::string>> sentences = {
      {"common", "common", "rare"},
      {"common", "common", "common"},
  };
  Word2VecOptions options;
  options.dim = 4;
  options.min_count = 3;
  options.epochs = 1;
  auto model = WordEmbeddings::TrainSgns(sentences, options);
  EXPECT_NE(model.Get("common"), nullptr);
  EXPECT_EQ(model.Get("rare"), nullptr);
}

TEST(Word2VecTest, MostSimilarExcludesSelf) {
  Word2VecOptions options;
  options.dim = 16;
  options.epochs = 3;
  auto model = WordEmbeddings::TrainSgns(TwoTopicCorpus(), options);
  auto similar = model.MostSimilar("clean", 3);
  ASSERT_EQ(similar.size(), 3u);
  for (const auto& [word, score] : similar) EXPECT_NE(word, "clean");
}

// ------------------------------------------------ SGNS kernel identity.

/// The textbook SGNS loop: binary-search negative sampling, and per
/// target Dot, Sigmoid and two AxPy calls. TrainSgns must return exactly
/// its bits on every kernel arm.
WordEmbeddings ReferenceTrainSgns(
    const std::vector<std::vector<std::string>>& sentences,
    const Word2VecOptions& options) {
  text::Vocab full;
  for (const auto& sentence : sentences) {
    for (const auto& token : sentence) full.Add(token);
  }
  text::Vocab vocab = full.Pruned(options.min_count);
  const size_t v = vocab.size();
  const size_t dim = options.dim;
  Rng rng(options.seed);
  std::vector<Vec> in(v), out(v);
  for (size_t i = 0; i < v; ++i) {
    in[i].resize(dim);
    for (float& x : in[i]) {
      x = static_cast<float>((rng.Uniform() - 0.5) / dim);
    }
    out[i].assign(dim, 0.0f);
  }
  if (v == 0) return WordEmbeddings(std::move(vocab), std::move(in));

  std::vector<double> cumulative(v);
  double total = 0.0;
  for (size_t i = 0; i < v; ++i) {
    total += std::pow(
        static_cast<double>(vocab.count(static_cast<text::WordId>(i))), 0.75);
    cumulative[i] = total;
  }
  auto sample = [&] {
    const double target = rng.Uniform() * total;
    return static_cast<text::WordId>(
        std::lower_bound(cumulative.begin(), cumulative.end(), target) -
        cumulative.begin());
  };
  auto sigmoid = [](double x) {
    if (x > 8.0) return 1.0;
    if (x < -8.0) return 0.0;
    return 1.0 / (1.0 + std::exp(-x));
  };
  const double total_count = static_cast<double>(vocab.total_count());

  std::vector<std::vector<text::WordId>> encoded;
  for (const auto& sentence : sentences) {
    std::vector<text::WordId> ids;
    for (const auto& token : sentence) {
      const text::WordId id = vocab.Lookup(token);
      if (id != text::kInvalidWordId) ids.push_back(id);
    }
    if (ids.size() >= 2) encoded.push_back(std::move(ids));
  }

  Vec grad(dim);
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    const double lr = options.learning_rate *
                      (1.0 - static_cast<double>(epoch) / options.epochs);
    for (const auto& ids : encoded) {
      std::vector<text::WordId> kept;
      for (text::WordId id : ids) {
        if (options.subsample > 0.0) {
          const double freq =
              static_cast<double>(vocab.count(id)) / total_count;
          const double keep_prob =
              std::min(1.0, std::sqrt(options.subsample / freq) +
                                options.subsample / freq);
          if (!rng.Bernoulli(keep_prob)) continue;
        }
        kept.push_back(id);
      }
      for (size_t pos = 0; pos < kept.size(); ++pos) {
        const text::WordId center = kept[pos];
        const size_t window = 1 + rng.Below(options.window);
        const size_t lo = pos >= window ? pos - window : 0;
        const size_t hi = std::min(kept.size() - 1, pos + window);
        for (size_t ctx_pos = lo; ctx_pos <= hi; ++ctx_pos) {
          if (ctx_pos == pos) continue;
          Vec& vin = in[kept[ctx_pos]];
          std::fill(grad.begin(), grad.end(), 0.0f);
          for (int s = 0; s < options.negative_samples + 1; ++s) {
            text::WordId target = center;
            double label = 1.0;
            if (s > 0) {
              target = sample();
              if (target == center) continue;
              label = 0.0;
            }
            Vec& vout = out[target];
            const double g = lr * (label - sigmoid(Dot(vin, vout)));
            AxPy(g, vout, &grad);
            AxPy(g, vin, &vout);
          }
          AxPy(1.0, grad, &vin);
        }
      }
    }
  }
  return WordEmbeddings(std::move(vocab), std::move(in));
}

/// Every kernel arm this build and CPU can run.
std::vector<std::pair<std::string, sgns::Kernel>> KernelArms() {
  std::vector<std::pair<std::string, sgns::Kernel>> arms = {
      {"portable", sgns::PortableKernel()}};
  if (auto avx2 = sgns::Avx2Kernel()) arms.emplace_back("avx2", *avx2);
  return arms;
}

// Each arm against Dot and AxPy directly, on every chunk size and on
// dims that leave every remainder past a four-wide vector.
TEST(SgnsKernelTest, ArmsMatchDotAndAxPyOnEveryShape) {
  Rng rng(17);
  for (const auto& [name, kernel] : KernelArms()) {
    SCOPED_TRACE(name);
    for (size_t dim = 1; dim <= 67; ++dim) {
      SCOPED_TRACE("dim=" + std::to_string(dim));
      auto random_vec = [&] {
        Vec v(dim);
        for (float& x : v) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
        return v;
      };
      const Vec in = random_vec();
      const std::vector<double> in_wide(in.begin(), in.end());
      std::vector<Vec> rows;
      for (size_t k = 0; k < sgns::kDotChunk; ++k) rows.push_back(random_vec());
      const float* row_ptrs[sgns::kDotChunk];
      for (size_t k = 0; k < sgns::kDotChunk; ++k) row_ptrs[k] = rows[k].data();
      for (size_t m = 1; m <= sgns::kDotChunk; ++m) {
        double dots[sgns::kDotChunk];
        kernel.dots(in_wide.data(), row_ptrs, m, dim, dots);
        for (size_t k = 0; k < m; ++k) {
          const double expected = Dot(in, rows[k]);
          EXPECT_EQ(std::memcmp(&dots[k], &expected, sizeof(double)), 0)
              << "m=" << m << " k=" << k;
        }
      }
      for (double g : {0.0, 0.08, -0.05, 1e-30, -3.5e3}) {
        Vec out = random_vec();
        Vec grad = random_vec();
        Vec expected_out = out;
        Vec expected_grad = grad;
        AxPy(g, expected_out, &expected_grad);
        AxPy(g, in, &expected_out);
        kernel.update(g, in_wide.data(), out.data(), grad.data(), dim);
        EXPECT_EQ(std::memcmp(out.data(), expected_out.data(),
                              dim * sizeof(float)),
                  0)
            << "g=" << g;
        EXPECT_EQ(std::memcmp(grad.data(), expected_grad.data(),
                              dim * sizeof(float)),
                  0)
            << "g=" << g;
      }
    }
  }
}

std::string Describe(const Word2VecOptions& options) {
  return "dim=" + std::to_string(options.dim) +
         " negative_samples=" + std::to_string(options.negative_samples) +
         " window=" + std::to_string(options.window) +
         " subsample=" + std::to_string(options.subsample) +
         " epochs=" + std::to_string(options.epochs);
}

/// Trains `options` on `sentences` through every kernel arm and checks
/// each against the reference loop.
void ExpectArmsMatchReference(
    const std::vector<std::vector<std::string>>& sentences,
    const Word2VecOptions& options) {
  SCOPED_TRACE(Describe(options));
  const WordEmbeddings reference = ReferenceTrainSgns(sentences, options);
  ASSERT_GT(reference.size(), 0u);
  for (const auto& [name, kernel] : KernelArms()) {
    SCOPED_TRACE(name);
    ExpectSameBits(reference, sgns::Train(sentences, options, kernel));
  }
}

// Every combination of dim 8/48/50, negative_samples 0/1/8/20 (none, one
// chunk, a full chunk plus one, several chunks), window 1/3/5 and
// subsampling off/on for one epoch; then 15 epochs (the lr schedule's
// far end) at one corner per negative_samples value.
TEST(SgnsKernelTest, MatchesReferenceOverOptionGridOnTwoTopicCorpus) {
  const auto corpus = TwoTopicCorpus();
  for (size_t dim : {8, 48, 50}) {
    for (int negative_samples : {0, 1, 8, 20}) {
      for (int window : {1, 3, 5}) {
        for (double subsample : {0.0, 1e-3}) {
          Word2VecOptions options;
          options.dim = dim;
          options.negative_samples = negative_samples;
          options.window = window;
          options.subsample = subsample;
          options.epochs = 1;
          ExpectArmsMatchReference(corpus, options);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
  struct Corner {
    size_t dim;
    int negative_samples;
    int window;
    double subsample;
  };
  for (const Corner& corner :
       {Corner{8, 0, 1, 1e-3}, Corner{48, 1, 5, 0.0}, Corner{50, 8, 3, 1e-3},
        Corner{48, 20, 5, 0.0}}) {
    Word2VecOptions options;
    options.dim = corner.dim;
    options.negative_samples = corner.negative_samples;
    options.window = corner.window;
    options.subsample = corner.subsample;
    options.epochs = 15;
    ExpectArmsMatchReference(corpus, options);
    if (HasFatalFailure()) return;
  }
}

/// The tokenized sentences of the seed hotel corpus (120 entities,
/// 25-60 reviews each, seed 42): what OpineDb::Build trains on.
std::vector<std::vector<std::string>> HotelSeedSentences() {
  datagen::GeneratorOptions generator;
  generator.num_entities = 120;
  generator.min_reviews_per_entity = 25;
  generator.max_reviews_per_entity = 60;
  generator.seed = 42;
  const auto domain = datagen::GenerateDomain(datagen::HotelDomain(),
                                              generator);
  text::Tokenizer tokenizer;
  std::vector<std::vector<std::string>> sentences;
  for (const auto& review : domain.corpus.reviews()) {
    for (const auto& sentence :
         text::Tokenizer::SplitSentences(review.body)) {
      sentences.push_back(tokenizer.Tokenize(sentence));
    }
  }
  return sentences;
}

// The exact training OpineDb::Build runs on the seed database, through
// TrainSgns (the arm this CPU dispatches to), then single epochs through
// every arm at the grid's extremes.
TEST(SgnsKernelTest, MatchesReferenceOnHotelSeedSentences) {
  const auto sentences = HotelSeedSentences();
  ExpectSameBits(ReferenceTrainSgns(sentences, Word2VecOptions()),
                 WordEmbeddings::TrainSgns(sentences, Word2VecOptions()));
  for (const auto& [dim, negative_samples] :
       {std::pair<size_t, int>{8, 0}, std::pair<size_t, int>{50, 20}}) {
    Word2VecOptions options;
    options.dim = dim;
    options.negative_samples = negative_samples;
    options.epochs = 1;
    ExpectArmsMatchReference(sentences, options);
    if (HasFatalFailure()) return;
  }
}

TEST(PhraseEmbedderTest, IdfWeightsDominantWord) {
  // Build tiny embeddings by hand: "clean" -> x-axis, "the" -> y-axis.
  text::Vocab vocab;
  vocab.Add("clean");
  vocab.Add("the");
  std::vector<Vec> vectors = {{1.0f, 0.0f}, {0.0f, 1.0f}};
  WordEmbeddings embeddings(std::move(vocab), std::move(vectors));
  PhraseEmbedder embedder(&embeddings, [](std::string_view w) {
    return w == "clean" ? 2.0 : 0.1;  // "the" has low idf.
  });
  Vec rep = embedder.Represent("the clean");
  EXPECT_GT(rep[0], rep[1]);
  EXPECT_NEAR(Cosine(rep, {1.0f, 0.0f}), 1.0, 0.1);
}

TEST(PhraseEmbedderTest, UnknownPhraseIsZero) {
  text::Vocab vocab;
  vocab.Add("clean");
  std::vector<Vec> vectors = {{1.0f, 0.0f}};
  WordEmbeddings embeddings(std::move(vocab), std::move(vectors));
  PhraseEmbedder embedder(&embeddings, nullptr);
  EXPECT_EQ(Norm(embedder.Represent("unknown words only")), 0.0);
  EXPECT_EQ(embedder.Similarity("unknown", "clean"), 0.0);
}

TEST(KdTreeTest, NearestMatchesBruteForce) {
  Rng rng(11);
  std::vector<Vec> points;
  for (int i = 0; i < 200; ++i) {
    Vec p(5);
    for (auto& x : p) x = static_cast<float>(rng.Uniform(-1, 1));
    points.push_back(p);
  }
  auto tree = KdTree::Build(points);
  for (int t = 0; t < 50; ++t) {
    Vec query(5);
    for (auto& x : query) x = static_cast<float>(rng.Uniform(-1, 1));
    int32_t best = -1;
    double best_dist = 1e18;
    for (size_t i = 0; i < points.size(); ++i) {
      const double d = SquaredDistance(points[i], query);
      if (d < best_dist) {
        best_dist = d;
        best = static_cast<int32_t>(i);
      }
    }
    EXPECT_EQ(tree.Nearest(query), best);
  }
}

TEST(KdTreeTest, KNearestSortedAndCorrectSize) {
  Rng rng(13);
  std::vector<Vec> points;
  for (int i = 0; i < 100; ++i) {
    points.push_back({static_cast<float>(rng.Uniform()),
                      static_cast<float>(rng.Uniform())});
  }
  auto tree = KdTree::Build(points);
  Vec query = {0.5f, 0.5f};
  auto knn = tree.KNearest(query, 10);
  ASSERT_EQ(knn.size(), 10u);
  for (size_t i = 1; i < knn.size(); ++i) {
    EXPECT_LE(SquaredDistance(points[knn[i - 1]], query),
              SquaredDistance(points[knn[i]], query));
  }
}

TEST(KdTreeTest, EmptyTree) {
  auto tree = KdTree::Build({});
  EXPECT_EQ(tree.Nearest({1.0f}), -1);
  EXPECT_TRUE(tree.KNearest({1.0f}, 3).empty());
}

TEST(KdTreeTest, PruningVisitsFewerNodesThanLinear) {
  Rng rng(5);
  std::vector<Vec> points;
  for (int i = 0; i < 2000; ++i) {
    points.push_back({static_cast<float>(rng.Uniform()),
                      static_cast<float>(rng.Uniform()),
                      static_cast<float>(rng.Uniform())});
  }
  auto tree = KdTree::Build(points);
  size_t visited = 0;
  tree.Nearest({0.5f, 0.5f, 0.5f}, &visited);
  EXPECT_LT(visited, points.size() / 2);
}

TEST(SubstitutionIndexTest, VerbatimHitUsesFastPath) {
  text::Vocab vocab;
  vocab.Add("very");
  vocab.Add("really");
  vocab.Add("clean");
  vocab.Add("dirty");
  std::vector<Vec> vectors = {
      {1.0f, 0.0f, 0.1f}, {0.9f, 0.1f, 0.1f},  // very ~ really
      {0.0f, 1.0f, 0.0f}, {0.0f, -1.0f, 0.0f}};
  WordEmbeddings embeddings(std::move(vocab), std::move(vectors));
  PhraseEmbedder embedder(&embeddings, nullptr);
  SubstitutionIndex index({"very clean", "dirty"}, &embedder);

  auto match = index.Lookup("very clean");
  EXPECT_TRUE(match.fast_path);
  EXPECT_EQ(index.phrase(match.phrase), "very clean");
}

TEST(SubstitutionIndexTest, OneWordSubstitutionUsesFastPath) {
  text::Vocab vocab;
  vocab.Add("very");
  vocab.Add("really");
  vocab.Add("clean");
  vocab.Add("dirty");
  std::vector<Vec> vectors = {
      {1.0f, 0.0f, 0.1f}, {0.95f, 0.05f, 0.1f},
      {0.0f, 1.0f, 0.0f}, {0.0f, -1.0f, 0.0f}};
  WordEmbeddings embeddings(std::move(vocab), std::move(vectors));
  PhraseEmbedder embedder(&embeddings, nullptr);
  // "really" does not occur in the domain, but its nearest word "very"
  // does, so "really clean" resolves by substitution.
  SubstitutionIndex index({"very clean", "very dirty", "really", "clean"},
                          &embedder);
  auto match = index.Lookup("really clean");
  EXPECT_TRUE(match.fast_path);
  EXPECT_EQ(index.phrase(match.phrase), "very clean");
}

TEST(SubstitutionIndexTest, FallsBackToSimilaritySearch) {
  text::Vocab vocab;
  vocab.Add("clean");
  vocab.Add("dirty");
  vocab.Add("spotless");
  std::vector<Vec> vectors = {
      {1.0f, 0.0f}, {-1.0f, 0.0f}, {0.9f, 0.3f}};
  WordEmbeddings embeddings(std::move(vocab), std::move(vectors));
  PhraseEmbedder embedder(&embeddings, nullptr);
  SubstitutionIndex index({"clean", "dirty"}, &embedder);
  // "spotless" matches nothing lexically; the k-d tree must find "clean".
  auto match = index.Lookup("spotless");
  EXPECT_FALSE(match.fast_path);
  EXPECT_EQ(index.phrase(match.phrase), "clean");
}

}  // namespace
}  // namespace opinedb::embedding
