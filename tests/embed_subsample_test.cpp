// Tests for word2vec-style frequent-word subsampling: the survival formula,
// its monotonicity in frequency, the filter semantics, and the trainer
// integration (off by default = bit-identical to pre-subsampling output).
#include <gtest/gtest.h>

#include <cmath>

#include "embed/cbow.hpp"
#include "embed/negative_sampling.hpp"
#include "embed/sgns.hpp"
#include "text/corpus.hpp"
#include "text/latent_space.hpp"
#include "util/rng.hpp"

namespace anchor::embed {
namespace {

text::Corpus zipf_corpus(std::uint64_t seed = 4) {
  text::LatentSpaceConfig lsc;
  lsc.vocab_size = 100;
  lsc.latent_dim = 6;
  lsc.seed = 9;
  const text::LatentSpace space(lsc);
  text::CorpusConfig cc;
  cc.num_documents = 120;
  cc.seed = seed;
  return text::generate_corpus(space, cc);
}

TEST(Subsampler, DisabledKeepsEverything) {
  const std::vector<std::int64_t> counts = {1000, 100, 10, 1};
  const FrequentWordSubsampler sub(counts, 0.0);
  Rng rng(1);
  for (std::int32_t w = 0; w < 4; ++w) {
    EXPECT_EQ(sub.keep_probability(w), 1.0);
    EXPECT_TRUE(sub.keep(w, rng));
  }
  const std::vector<std::int32_t> sentence = {0, 1, 2, 3, 0, 0};
  EXPECT_EQ(sub.filter(sentence, rng), sentence);
}

TEST(Subsampler, SurvivalMatchesWord2vecFormula) {
  const std::vector<std::int64_t> counts = {9000, 900, 90, 10};
  const double sample = 1e-2;
  const FrequentWordSubsampler sub(counts, sample);
  const double total = 10000.0;
  for (std::int32_t w = 0; w < 4; ++w) {
    const double f = static_cast<double>(counts[w]);
    const double expected = std::min(
        1.0, (std::sqrt(f / (sample * total)) + 1.0) * sample * total / f);
    EXPECT_NEAR(sub.keep_probability(w), expected, 1e-12) << "word " << w;
  }
}

TEST(Subsampler, KeepProbabilityDecreasesWithFrequency) {
  const std::vector<std::int64_t> counts = {50000, 5000, 500, 50, 5};
  const FrequentWordSubsampler sub(counts, 1e-3);
  for (std::int32_t w = 1; w < 5; ++w) {
    EXPECT_GE(sub.keep_probability(w), sub.keep_probability(w - 1));
  }
  // Rare enough words must always survive.
  EXPECT_EQ(sub.keep_probability(4), 1.0);
  // The most frequent word must actually be at risk.
  EXPECT_LT(sub.keep_probability(0), 1.0);
}

TEST(Subsampler, FilterDropsFrequentTokensAtExpectedRate) {
  const std::vector<std::int64_t> counts = {100000, 10};
  const FrequentWordSubsampler sub(counts, 1e-4);
  Rng rng(7);
  const std::vector<std::int32_t> frequent(10000, 0);
  const std::vector<std::int32_t> kept = sub.filter(frequent, rng);
  const double expected = sub.keep_probability(0);
  const double observed =
      static_cast<double>(kept.size()) / static_cast<double>(frequent.size());
  EXPECT_NEAR(observed, expected, 0.02);
}

TEST(Subsampler, ZeroCountWordsAreKept) {
  const std::vector<std::int64_t> counts = {100, 0, 100};
  const FrequentWordSubsampler sub(counts, 1e-3);
  EXPECT_EQ(sub.keep_probability(1), 1.0);
}

TEST(Subsampler, TrainersOffByDefaultAndDeterministicWhenOn) {
  const text::Corpus corpus = zipf_corpus();
  // subsample = 0 (default) must be the exact no-subsampling code path.
  CbowConfig off;
  off.dim = 8;
  off.epochs = 1;
  const Embedding baseline = train_cbow(corpus, off);
  CbowConfig explicit_off = off;
  explicit_off.subsample = 0.0;
  EXPECT_EQ(train_cbow(corpus, explicit_off).data, baseline.data);

  // With subsampling on: still deterministic, still finite, and different
  // from the baseline (tokens were dropped).
  CbowConfig on = off;
  on.subsample = 1e-3;
  const Embedding a = train_cbow(corpus, on);
  const Embedding b = train_cbow(corpus, on);
  EXPECT_EQ(a.data, b.data);
  EXPECT_NE(a.data, baseline.data);
  for (const float v : a.data) EXPECT_TRUE(std::isfinite(v));

  SgnsConfig son;
  son.dim = 8;
  son.epochs = 1;
  son.subsample = 1e-3;
  const Embedding sa = train_sgns(corpus, son);
  const Embedding sb = train_sgns(corpus, son);
  EXPECT_EQ(sa.data, sb.data);
}

TEST(SubsampleSweep, MoreAggressiveThresholdDropsMoreTokens) {
  // One test over the ordered thresholds (most permissive first), so the
  // comparison never depends on which tests ran before it.
  const text::Corpus corpus = zipf_corpus();
  double prev_rate = 1.1;
  for (const double threshold : {1e-1, 1e-2, 1e-3, 1e-4}) {
    const FrequentWordSubsampler sub(corpus.word_counts, threshold);
    Rng rng(3);
    std::size_t kept = 0, total = 0;
    for (const auto& sentence : corpus.sentences) {
      kept += sub.filter(sentence, rng).size();
      total += sentence.size();
    }
    const double rate =
        static_cast<double>(kept) / static_cast<double>(total);
    EXPECT_LE(rate, prev_rate + 1e-9)
        << "threshold=" << threshold
        << ": smaller sample thresholds must drop at least as many tokens";
    prev_rate = rate;
  }
}

}  // namespace
}  // namespace anchor::embed
