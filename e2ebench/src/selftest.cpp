// The benchmark's own tests: the checker catches a mutated row and a wrong
// gate outcome, the open-loop timer charges a stall to the requests queued
// behind it, and the request streams are a pure function of the seed.
// Exits nonzero on the first failure.
#include <iostream>

#include "e2e.hpp"

namespace {

int g_failures = 0;

void expect(bool cond, const char* what) {
  std::cout << (cond ? "ok   " : "FAIL ") << what << "\n";
  if (!cond) ++g_failures;
}

void checker_catches_mutated_row() {
  constexpr std::size_t kRows = 8;
  constexpr std::size_t kDim = 4;
  std::vector<std::vector<e2e::ShardReference>> refs(2);
  for (std::size_t s = 0; s < 2; ++s) {
    e2e::ShardReference ref;
    ref.rows = kRows;
    ref.dim = kDim;
    for (std::size_t i = 0; i < kRows * kDim; ++i) {
      ref.table.push_back(static_cast<float>(s * 1000 + i));
    }
    ref.oov["xabc"] = std::vector<float>(kDim, 0.5f + static_cast<float>(s));
    refs[s].push_back(ref);
  }
  const e2e::LookupChecker checker(refs, kRows, 2);
  const auto home = [](const std::string&) { return std::size_t{1}; };

  e2e::LookupRequest req;
  req.ids = {3, 12};  // shard 0 row 3, shard 1 row 4
  anchor::serve::LookupResult res;
  res.dim = kDim;
  res.oov = {0, 0};
  res.vectors.insert(res.vectors.end(), refs[0][0].row(3), refs[0][0].row(3) + kDim);
  res.vectors.insert(res.vectors.end(), refs[1][0].row(4), refs[1][0].row(4) + kDim);
  expect(checker.check(req, res, 1u, home), "checker accepts the reference rows");

  anchor::serve::LookupResult mutated = res;
  std::uint32_t bits = 0;
  std::memcpy(&bits, &mutated.vectors[kDim + 2], sizeof(bits));
  bits ^= 1u;  // one ulp in one float
  std::memcpy(&mutated.vectors[kDim + 2], &bits, sizeof(bits));
  expect(!checker.check(req, mutated, 1u, home), "checker rejects a row off by one bit");

  anchor::serve::LookupResult flagged = res;
  flagged.oov[0] = anchor::serve::kLookupFlagOov;
  expect(!checker.check(req, flagged, 1u, home), "checker rejects a wrong OOV flag");
  expect(!checker.check(req, res, 2u, home), "checker rejects rows of a version not allowed");

  e2e::LookupRequest words;
  words.words = {"w12", "xabc"};
  anchor::serve::LookupResult wres;
  wres.dim = kDim;
  wres.oov = {0, anchor::serve::kLookupFlagOov};
  wres.vectors.insert(wres.vectors.end(), refs[1][0].row(4), refs[1][0].row(4) + kDim);
  wres.vectors.insert(wres.vectors.end(), kDim, 1.5f);
  expect(checker.check(words, wres, 1u, home), "checker accepts words and home-shard OOV");
}

void checker_catches_wrong_gate_outcome() {
  expect(e2e::gate_outcome_ok("v2-good", true) && e2e::gate_outcome_ok("v1", true) &&
             e2e::gate_outcome_ok("v3-bad", false),
         "gate check accepts the expected outcomes");
  expect(!e2e::gate_outcome_ok("v3-bad", true), "gate check rejects an admitted v3-bad");
  expect(!e2e::gate_outcome_ok("v2-good", false), "gate check rejects a refused v2-good");
}

void topk_check_rejects_malformed_reply() {
  anchor::ann::TopKResult r;
  for (std::uint64_t i = 0; i < 3; ++i) r.hits.push_back({i, static_cast<float>(i), 0.0f});
  expect(e2e::topk_well_formed(r, 3, 10), "topk check accepts an ordered in-range reply");
  std::swap(r.hits[0], r.hits[2]);
  expect(!e2e::topk_well_formed(r, 3, 10), "topk check rejects descending distances");
  std::swap(r.hits[0], r.hits[2]);
  r.hits[1].id = 10;
  expect(!e2e::topk_well_formed(r, 3, 10), "topk check rejects an id out of range");
}

void open_loop_charges_stall_to_queued_requests() {
  // 1 worker, one request every 1 ms; request 10 stalls 30 ms. Requests
  // 11.. were due during the stall, so their latency — timed from when
  // they were due — includes the wait, although each one's own service
  // time is near zero.
  const auto res = e2e::run_open_loop(1000.0, 60, 1, [](std::size_t, std::size_t i) {
    if (i == 10) std::this_thread::sleep_for(std::chrono::milliseconds(30));
    return true;
  });
  const double stalled = res.ops[10].latency_us();
  const double next = res.ops[11].latency_us();
  const double later = res.ops[20].latency_us();
  expect(stalled >= 30000.0, "stalled request is charged its stall");
  expect(next >= 25000.0, "request queued behind the stall is charged the wait");
  expect(later >= 15000.0 && later < next, "backlog drains for later requests");
  expect(res.ops[11].service_us() < 5000.0, "queued request's own service time stays small");
  expect(res.ops[11].lateness_us() >= 25000.0, "lateness records the late send");
}

void streams_are_a_function_of_the_seed() {
  e2e::StreamConfig c;
  c.total_rows = 5000;
  const auto a = e2e::make_lookup_stream(7, 300, c);
  const auto b = e2e::make_lookup_stream(7, 300, c);
  const auto d = e2e::make_lookup_stream(8, 300, c);
  bool same = true;
  bool differs = false;
  std::size_t word_requests = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    same = same && a[i].ids == b[i].ids && a[i].words == b[i].words;
    differs = differs || a[i].ids != d[i].ids || a[i].words != d[i].words;
    word_requests += a[i].is_words() ? 1 : 0;
  }
  expect(same, "lookup stream is identical for one seed");
  expect(differs, "lookup stream changes with the seed");
  expect(word_requests > 0 && word_requests < 40, "about 5% of lookup requests are words");
  expect(e2e::make_uniform_ids(7, 500, 5000) == e2e::make_uniform_ids(7, 500, 5000),
         "id stream is identical for one seed");
  expect(e2e::make_uniform_ids(7, 500, 5000) != e2e::make_uniform_ids(8, 500, 5000),
         "id stream changes with the seed");

  // Zipf(1.0): rank 0 is drawn about twice as often as rank 1.
  e2e::Rng rng(1);
  const e2e::Zipf zipf(1000, 1.0);
  std::vector<std::size_t> hist(1000, 0);
  for (int i = 0; i < 200000; ++i) ++hist[zipf.sample(rng)];
  const double ratio = static_cast<double>(hist[0]) / static_cast<double>(hist[1]);
  expect(ratio > 1.8 && ratio < 2.2, "Zipf(1.0) rank frequencies fall as 1/rank");
}

}  // namespace

int main() {
  checker_catches_mutated_row();
  checker_catches_wrong_gate_outcome();
  topk_check_rejects_malformed_reply();
  open_loop_charges_stall_to_queued_requests();
  streams_are_a_function_of_the_seed();
  std::cout << (g_failures == 0 ? "all selftests passed" : "selftests FAILED") << "\n";
  return g_failures == 0 ? 0 : 1;
}
