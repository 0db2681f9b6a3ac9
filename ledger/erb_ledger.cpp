// erb_ledger: measures one workload of the performance ledger end to end and
// writes its report as one JSON object (schema "erb-ledger/1", see
// ledger/README.md). One workload per process, so the peak RSS it reports
// belongs to that workload alone.
//
// Usage: erb_ledger --workload=NAME [--seed=N] [--seconds=S] [--threads=N]
//                   [--trace] [--smoke] [--json=PATH] [--chrome=PATH]
//
// Run order, every phase outside the timed window untraced unless stated:
//   1. set-up, repeated (3x, 1x under --smoke): generate the inputs from the
//      mixed seed, then one untimed warm-up pass. `setup_s` is the median.
//   2. timed passes until --seconds have elapsed (at least three). `rt_s` is
//      the median wall time of the untraced passes; `peak_rss_mb` is read
//      right after them, before any check can raise it. Under --trace every
//      other pass runs with obs tracing on and yields the per-layer numbers,
//      and the standalone layer calls of step 3 run traced too.
//   3. the standalone layer calls (see each workload's Standalone).
//   4. checks: every pass must reproduce the first warm-up pass's digests,
//      and the standalone layer calls must reproduce the composite calls'
//      outputs through an independent path.
//
// The program only ever receives generated inputs; --seed=0 reproduces the
// registry specs, whose digests ledger/expected.json pins.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "blocking/cleaning.hpp"
#include "blocking/workflow.hpp"
#include "common/hash.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "core/profile_store.hpp"
#include "datagen/registry.hpp"
#include "datagen/scale.hpp"
#include "densenn/embedding.hpp"
#include "densenn/methods.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "oracle/dense.hpp"
#include "oracle/serve.hpp"
#include "record.hpp"
#include "serve/resolver.hpp"
#include "shard/scale.hpp"
#include "sparsenn/joins.hpp"
#include "sparsenn/scancount.hpp"
#include "sparsenn/tokenset.hpp"
#include "text/clean.hpp"

#include <unistd.h>

namespace {

using namespace erb;
using Clock = std::chrono::steady_clock;
using ledger::JsonWriter;
using ledger::Summary;
using ledger::Summarize;

constexpr core::SchemaMode kAgnostic = core::SchemaMode::kAgnostic;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Size plus FNV-1a 64 over the little-endian bytes of every output word.
struct Digest {
  std::uint64_t size = 0;
  std::uint64_t hash = 0xcbf29ce484222325ULL;

  void Add(std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      hash ^= (word >> (8 * b)) & 0xffu;
      hash *= 0x100000001b3ULL;
    }
  }
  bool operator==(const Digest&) const = default;
};

Digest DigestOf(const core::CandidateSet& candidates) {
  Digest d;
  d.size = candidates.size();
  for (const core::PairKey key : candidates) d.Add(key);
  return d;
}

std::string Hex(std::uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

/// The paper's phase split (Figures 7-9), common to every workload: each
/// layer's own phase names map onto these three.
enum Stage { kPreprocess, kIndex, kQuery, kNumStages };
constexpr const char* kStageNames[kNumStages] = {"preprocess_ms", "index_ms",
                                                 "query_ms"};

using StageMap = std::vector<std::pair<std::string, Stage>>;

/// One public call of a pass: its output digest, wall time and phases.
struct CallOutput {
  std::string name;
  Digest digest;
  bool ok = true;
  double wall_ms = 0.0;
  double stage_ms[kNumStages] = {};
};

/// One pass over a workload's calls.
struct PassOutput {
  std::vector<CallOutput> calls;
  double wall_ms = 0.0;
  // Requests issued inside a call (serve): each is one more operation.
  std::uint64_t requests = 0;
  std::uint64_t failed_requests = 0;  // threw or refused
  std::map<std::string, std::vector<double>> latency;  // per request kind
};

/// Adds the phases of a call's timing (PhaseTimer or PhaseAccumulator) to
/// the call's stages. Every phase a layer reports must be mapped.
template <typename Timing>
void AddPhases(const Timing& timing, const StageMap& map, CallOutput* call) {
  for (const auto& [name, ms] : timing.phases()) {
    bool mapped = false;
    for (const auto& [phase, stage] : map) {
      if (phase == name) {
        call->stage_ms[stage] += ms;
        mapped = true;
      }
    }
    if (!mapped) {
      std::fprintf(stderr, "erb_ledger: unmapped phase '%s' in %s\n",
                   name.c_str(), call->name.c_str());
      call->ok = false;
    }
  }
}

/// Named results of the standalone layer calls: check outcomes and timings.
struct StandaloneOutput {
  std::vector<std::pair<std::string, bool>> checks;
  std::map<std::string, double> layers;  // layer metric -> value
};

/// Runs `fn(call)` as one public call of `pass`, wrapped in a bench-side
/// trace span. An exception marks the call failed instead of ending the run.
template <typename Fn>
void RunCall(PassOutput* pass, const std::string& span_prefix,
             std::string name, Fn&& fn) {
  CallOutput call;
  call.name = std::move(name);
  const Clock::time_point start = Clock::now();
  {
    obs::Span span(span_prefix + call.name);
    try {
      fn(&call);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "erb_ledger: %s threw: %s\n", call.name.c_str(),
                   e.what());
      call.ok = false;
    }
  }
  call.wall_ms = MsSince(start);
  pass->calls.push_back(std::move(call));
}

volatile std::size_t g_sink = 0;

/// Median wall time in ms of `reps` runs of `fn()`, a standalone layer call
/// returning a work count (sunk, so the call cannot be elided).
template <typename Fn>
double TimeLayer(const std::string& span_name, int reps, Fn&& fn) {
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    obs::Span span(span_name);
    const Clock::time_point start = Clock::now();
    g_sink = g_sink + static_cast<std::size_t>(fn());
    samples.push_back(MsSince(start));
  }
  return Summarize(std::move(samples)).median;
}

/// Mixes the ledger seed into a spec's seed; 0 keeps the registry seed.
datagen::DatasetSpec Seeded(datagen::DatasetSpec spec, std::uint64_t seed) {
  if (seed != 0) spec.seed = SplitMix64(HashCombine(spec.seed, seed));
  return spec;
}

/// Regenerates `*data` as D<index> at `scale`, freeing the previous inputs
/// first so two copies never coexist.
void GenerateDataset(int index, double scale, std::uint64_t seed,
                     core::Dataset* data) {
  *data = core::Dataset();
  *data = datagen::Generate(Seeded(datagen::PaperSpec(index).Scaled(scale), seed));
}

std::vector<std::string> RenderTexts(const core::Dataset& data) {
  std::vector<std::string> texts;
  texts.reserve(data.e1().size() + data.e2().size());
  for (int side = 0; side < 2; ++side) {
    const core::ProfileStore store = core::ProfileStore::ForSide(data, side, kAgnostic);
    for (core::EntityId id = 0; id < store.size(); ++id) {
      texts.emplace_back(store.Text(id));
    }
  }
  return texts;
}

/// Render cost of a dataset workload: ProfileStore::ForSide over both sides.
void AddRenderLayer(const core::Dataset& data, const std::string& prefix,
                    StandaloneOutput* out) {
  const double ms = TimeLayer(prefix + "core.render", 3, [&] {
    return core::ProfileStore::ForSide(data, 0, kAgnostic).ArenaBytes() +
           core::ProfileStore::ForSide(data, 1, kAgnostic).ArenaBytes();
  });
  const double n = static_cast<double>(data.e1().size() + data.e2().size());
  out->layers["core.render_ms"] = ms;
  out->layers["render_us_per_entity"] = ms * 1000.0 / n;
}

class Workload {
 public:
  explicit Workload(std::string name) : name_(std::move(name)) {}
  virtual ~Workload() = default;

  const std::string& name() const { return name_; }
  std::string SpanPrefix() const { return "bench/" + name_ + "/"; }

  /// Generates the workload's inputs from the mixed seed.
  virtual void Generate(std::uint64_t seed, bool smoke) = 0;
  /// One pass over the workload's public calls.
  virtual PassOutput Pass() = 0;
  /// Issues the constituent layer calls standalone on the same inputs,
  /// checks them through an independent path against `reference` (the
  /// digest of each call of a pass, in call order), and times the
  /// per-entity render and representation costs.
  virtual StandaloneOutput Standalone(const std::vector<Digest>& reference) = 0;

 private:
  std::string name_;
};

// --- sparse_join -----------------------------------------------------------

class SparseJoinWorkload : public Workload {
 public:
  SparseJoinWorkload() : Workload("sparse_join") {}

  // Each call runs on its own scale of D10, chosen so that it takes about a
  // third of the pass: rt_s sees a regression in one call only in
  // proportion to that call's share.
  void Generate(std::uint64_t seed, bool smoke) override {
    GenerateDataset(10, smoke ? 0.01 : kEJoinScale, seed, &data_);
    GenerateDataset(10, smoke ? 0.01 : kKnnjScale, seed, &knnj_data_);
    GenerateDataset(10, smoke ? 0.01 : kDknnScale, seed, &dknn_data_);
  }

  PassOutput Pass() override {
    PassOutput pass;
    const StageMap stages = {{sparsenn::kPhasePreprocess, kPreprocess},
                             {sparsenn::kPhaseIndex, kIndex},
                             {sparsenn::kPhaseQuery, kQuery}};
    auto run = [&](const char* name, auto&& join) {
      RunCall(&pass, SpanPrefix(), name, [&](CallOutput* call) {
        const sparsenn::SparseResult r = join();
        call->digest = DigestOf(r.candidates);
        AddPhases(r.timing, stages, call);
      });
    };
    run("eJoin", [&] {
      return sparsenn::EpsilonJoin(data_, kAgnostic, EpsilonConfig(), kThreshold);
    });
    run("kNNJ", [&] {
      sparsenn::SparseConfig config;
      config.clean = true;
      config.model = sparsenn::TokenModel::kT1G;
      return sparsenn::KnnJoin(knnj_data_, kAgnostic, config, 5, false);
    });
    run("DkNN", [&] { return sparsenn::DefaultKnnJoin(dknn_data_, kAgnostic); });
    return pass;
  }

  StandaloneOutput Standalone(const std::vector<Digest>& reference) override {
    StandaloneOutput out;
    const std::string prefix = SpanPrefix();
    const sparsenn::SparseConfig config = EpsilonConfig();
    AddRenderLayer(data_, prefix, &out);

    const std::vector<std::string> texts = RenderTexts(data_);
    out.layers["text.clean_ms"] = TimeLayer(prefix + "text.clean", 1, [&] {
      std::size_t bytes = 0;
      for (const auto& t : texts) bytes += text::CleanText(t, true).size();
      return bytes;
    });
    const double tokenize_ms = TimeLayer(prefix + "sparsenn.tokenize", 1, [&] {
      std::size_t tokens = 0;
      for (const auto& t : texts) {
        tokens += sparsenn::BuildTokenSet(t, config.model, config.clean).size();
      }
      return tokens;
    });
    out.layers["represent_us_per_entity"] =
        tokenize_ms * 1000.0 / static_cast<double>(texts.size());

    // The ε-Join recomposed from its layer calls, verified through the
    // unfiltered ScanCount merge-count instead of the prefix/positional
    // stack the composite call runs (kAuto selects it for fixed thresholds).
    std::vector<sparsenn::TokenSet> indexed, queries;
    out.layers["sparsenn.tokenize_ms"] =
        TimeLayer(prefix + "sparsenn.BuildSideTokenSets", 1, [&] {
          indexed = sparsenn::BuildSideTokenSets(data_, 0, kAgnostic,
                                                 config.model, config.clean);
          queries = sparsenn::BuildSideTokenSets(data_, 1, kAgnostic,
                                                 config.model, config.clean);
          return indexed.size() + queries.size();
        });
    out.layers["sparsenn.rankmap_ms"] =
        TimeLayer(prefix + "sparsenn.TokenRankMap", 1, [&] {
          return sparsenn::TokenRankMap(indexed).NumRanked();
        });
    out.layers["sparsenn.prefix_index_build_ms"] =
        TimeLayer(prefix + "sparsenn.PrefixScanCountIndex", 1, [&] {
          return sparsenn::PrefixScanCountIndex(indexed, config.measure, kThreshold)
              .NumSets();
        });
    std::unique_ptr<sparsenn::ScanCountIndex> index;
    out.layers["sparsenn.index_build_ms"] =
        TimeLayer(prefix + "sparsenn.ScanCountIndex", 1, [&] {
          index = std::make_unique<sparsenn::ScanCountIndex>(indexed);
          return index->NumSets();
        });
    core::CandidateSet candidates;
    out.layers["sparsenn.unfiltered_probe_ms"] =
        TimeLayer(prefix + "sparsenn.Probe", 1, [&] {
          for (core::EntityId q = 0; q < queries.size(); ++q) {
            index->Probe(queries[q], [&](std::uint32_t id, std::uint32_t overlap,
                                         std::uint32_t size) {
              if (sparsenn::SetSimilarity(config.measure, overlap,
                                          queries[q].size(), size) >= kThreshold) {
                candidates.Add(id, q);
              }
            });
          }
          candidates.Finalize();
          return candidates.size();
        });
    out.checks.emplace_back("eJoin == tokenize + ScanCount probe + verify",
                            DigestOf(candidates) == reference[0]);
    return out;
  }

 private:
  static constexpr double kThreshold = 0.5;
  static constexpr double kEJoinScale = 0.2;
  static constexpr double kKnnjScale = 0.4;
  static constexpr double kDknnScale = 0.25;

  static sparsenn::SparseConfig EpsilonConfig() {
    sparsenn::SparseConfig config;
    config.clean = true;
    config.model = sparsenn::TokenModel::kC3G;
    config.measure = sparsenn::SimilarityMeasure::kCosine;
    config.filter = sparsenn::FilterMode::kAuto;
    return config;
  }

  core::Dataset data_;  // eJoin's; the standalone layer calls run on it
  core::Dataset knnj_data_;
  core::Dataset dknn_data_;
};

// --- blocking_workflow -----------------------------------------------------

class BlockingWorkload : public Workload {
 public:
  BlockingWorkload() : Workload("blocking_workflow") {}

  // Each workflow runs on its own scale of D10, chosen so that it takes
  // about a third of the pass: rt_s sees a regression in one workflow only
  // in proportion to that workflow's share.
  void Generate(std::uint64_t seed, bool smoke) override {
    GenerateDataset(10, smoke ? 0.01 : kPbwScale, seed, &pbw_data_);
    GenerateDataset(10, smoke ? 0.01 : kDbwScale, seed, &dbw_data_);
    GenerateDataset(10, smoke ? 0.01 : kEsabwScale, seed, &data_);
  }

  PassOutput Pass() override {
    PassOutput pass;
    const StageMap stages = {{blocking::kPhaseBuild, kPreprocess},
                             {blocking::kPhasePurge, kIndex},
                             {blocking::kPhaseFilter, kIndex},
                             {blocking::kPhaseClean, kQuery}};
    auto run = [&](const char* name, const core::Dataset& data,
                   const blocking::WorkflowConfig& config) {
      RunCall(&pass, SpanPrefix(), name, [&](CallOutput* call) {
        const blocking::WorkflowResult r =
            blocking::RunWorkflow(data, kAgnostic, config);
        call->digest = DigestOf(r.candidates);
        AddPhases(r.timing, stages, call);
      });
    };
    run("PBW", pbw_data_, blocking::ParameterFreeWorkflow());
    run("DBW", dbw_data_, blocking::DefaultWorkflow());
    run("ESABW", data_, Esabw());
    return pass;
  }

  StandaloneOutput Standalone(const std::vector<Digest>& reference) override {
    StandaloneOutput out;
    const std::string prefix = SpanPrefix();
    const std::size_t n1 = data_.e1().size();
    const std::size_t n2 = data_.e2().size();
    AddRenderLayer(data_, prefix, &out);

    const blocking::WorkflowConfig esa = Esabw();
    const std::vector<std::string> texts = RenderTexts(data_);
    const double keys_ms = TimeLayer(prefix + "blocking.ExtractKeys", 1, [&] {
      blocking::KeyScratch scratch;
      std::size_t keys = 0;
      for (const auto& t : texts) {
        blocking::ExtractKeysInto(t, esa.builder, &scratch);
        keys += scratch.keys.size();
      }
      return keys;
    });
    out.layers["represent_us_per_entity"] =
        keys_ms * 1000.0 / static_cast<double>(texts.size());

    // ESABW recomposed stage by stage.
    blocking::BlockCollection blocks;
    out.layers["blocking.build_ms"] = TimeLayer(prefix + "blocking.BuildBlocks", 1, [&] {
      blocks = blocking::BuildBlocks(data_, kAgnostic, esa.builder);
      return blocks.size();
    });
    out.layers["blocking.purge_ms"] = TimeLayer(prefix + "blocking.BlockPurging", 1, [&] {
      blocking::BlockPurging(&blocks, n1, n2);
      return blocks.size();
    });
    out.layers["blocking.filter_ms"] =
        TimeLayer(prefix + "blocking.BlockFiltering", 1, [&] {
          blocking::BlockFiltering(&blocks, esa.filter_ratio, n1, n2);
          return blocks.size();
        });
    core::CandidateSet candidates;
    out.layers["blocking.clean_ms"] =
        TimeLayer(prefix + "blocking.CleanComparisons", 1, [&] {
          candidates = blocking::CleanComparisons(blocks, n1, n2, esa.cleaning);
          return candidates.size();
        });
    out.checks.emplace_back("ESABW == BuildBlocks + purge + filter + clean",
                            DigestOf(candidates) == reference[2]);

    // PBW's Comparison Propagation against plain enumeration of every
    // block's E1 x E2 pairs (sort + dedup in Finalize), bypassing the CSR
    // entity index the production streamer walks.
    blocks = blocking::BuildBlocks(pbw_data_, kAgnostic,
                                   blocking::ParameterFreeWorkflow().builder);
    blocking::BlockPurging(&blocks, pbw_data_.e1().size(), pbw_data_.e2().size());
    core::CandidateSet pairs;
    for (const blocking::Block& block : blocks) {
      for (const core::EntityId i : block.e1) {
        for (const core::EntityId j : block.e2) pairs.Add(i, j);
      }
    }
    pairs.Finalize();
    out.checks.emplace_back("PBW == standard blocks + purge + pair enumeration",
                            DigestOf(pairs) == reference[0]);
    return out;
  }

 private:
  // ESABW: Extended Suffix Arrays (l_min 4, b_max 20), Block Purging, Block
  // Filtering (r = 0.5), Meta-blocking RCNP + JS.
  static blocking::WorkflowConfig Esabw() {
    blocking::WorkflowConfig config;
    config.builder.kind = blocking::BuilderKind::kExtendedSuffixArrays;
    config.builder.l_min = 4;
    config.builder.b_max = 20;
    config.block_purging = true;
    config.filter_ratio = 0.5;
    config.cleaning.use_metablocking = true;
    config.cleaning.scheme = blocking::WeightingScheme::kJs;
    config.cleaning.pruning = blocking::PruningAlgorithm::kRcnp;
    return config;
  }

  static constexpr double kPbwScale = 0.35;
  static constexpr double kDbwScale = 0.35;
  static constexpr double kEsabwScale = 0.08;

  core::Dataset pbw_data_;
  core::Dataset dbw_data_;
  core::Dataset data_;  // ESABW's; the standalone layer calls run on it
};

// --- dense_knn -------------------------------------------------------------

class DenseKnnWorkload : public Workload {
 public:
  DenseKnnWorkload() : Workload("dense_knn") {}

  void Generate(std::uint64_t seed, bool smoke) override {
    GenerateDataset(4, smoke ? 0.05 : 0.2, seed, &data_);
  }

  PassOutput Pass() override {
    PassOutput pass;
    const StageMap stages = {{densenn::kPhasePreprocess, kPreprocess},
                             {densenn::kPhaseTrain, kIndex},
                             {densenn::kPhaseIndex, kIndex},
                             {densenn::kPhaseQuery, kQuery}};
    auto run = [&](const char* name, auto&& method) {
      RunCall(&pass, SpanPrefix(), name, [&](CallOutput* call) {
        const densenn::DenseResult r = method();
        call->digest = DigestOf(r.candidates);
        AddPhases(r.timing, stages, call);
      });
    };
    run("FAISS", [&] { return densenn::FaissKnn(data_, kAgnostic, FaissConfig()); });
    run("DDB", [&] { return densenn::DefaultDeepBlocker(data_, kAgnostic, 1); });
    return pass;
  }

  StandaloneOutput Standalone(const std::vector<Digest>& reference) override {
    StandaloneOutput out;
    const std::string prefix = SpanPrefix();
    AddRenderLayer(data_, prefix, &out);

    const std::vector<std::string> texts = RenderTexts(data_);
    const double embed_text_ms = TimeLayer(prefix + "densenn.EmbedText", 1, [&] {
      std::size_t dims = 0;
      for (const auto& t : texts) {
        dims += densenn::EmbedText(text::CleanText(t, true)).size();
      }
      return dims;
    });
    out.layers["represent_us_per_entity"] =
        embed_text_ms * 1000.0 / static_cast<double>(texts.size());
    out.layers["densenn.embed_ms"] = TimeLayer(prefix + "densenn.EmbedSide", 1, [&] {
      return densenn::EmbedSide(data_, 0, kAgnostic, true).size() +
             densenn::EmbedSide(data_, 1, kAgnostic, true).size();
    });

    // FAISS against the exact-kNN oracle over independently embedded sides.
    out.checks.emplace_back(
        "FAISS == embed + exact kNN oracle",
        DigestOf(oracle::FaissKnnOracle(data_, kAgnostic, FaissConfig())) ==
            reference[0]);
    return out;
  }

 private:
  static densenn::KnnSearchConfig FaissConfig() {
    densenn::KnnSearchConfig config;
    config.clean = true;
    config.k = 10;
    return config;
  }

  core::Dataset data_;
};

// --- serve_stream ----------------------------------------------------------

class ServeStreamWorkload : public Workload {
 public:
  ServeStreamWorkload() : Workload("serve_stream") {}

  void Generate(std::uint64_t seed, bool smoke) override {
    GenerateDataset(10, smoke ? 0.02 : 0.5, seed, &data_);
    // The stream resolves the first 80% of E2; the rest checks the final
    // corpus state against the batch rebuild.
    num_stream_ = data_.e2().size() * 4 / 5;
  }

  // Closed loop, one client: bulk-insert E1 and seal, then resolve
  // E2[0, num_stream_) in order, inserting every 4th query under a new id
  // and sealing after every 500 stream inserts.
  PassOutput Pass() override {
    PassOutput pass;
    serve::ServeConfig config;
    config.threshold = 0.5;
    resolver_ = std::make_unique<serve::Resolver>(config);
    corpus_.clear();
    serve::Resolver& resolver = *resolver_;
    std::vector<double>& insert_us = pass.latency["insert_us"];
    std::vector<double>& resolve_us = pass.latency["resolve_us"];
    std::vector<double>& seal_us = pass.latency["seal_us"];
    const bool traced = obs::TraceEnabled();

    auto timed = [&](std::vector<double>* samples, auto&& op) {
      const Clock::time_point start = Clock::now();
      bool ok = false;
      try {
        ok = op();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "erb_ledger: serve request threw: %s\n", e.what());
      }
      samples->push_back(MsSince(start) * 1000.0);
      ++pass.requests;
      if (!ok) ++pass.failed_requests;
    };
    auto insert = [&](std::string id, const core::EntityProfile& profile) {
      timed(&insert_us, [&] {
        const bool inserted = resolver.Insert(std::move(id), profile).inserted;
        if (inserted) corpus_.push_back(&profile);
        return inserted;
      });
    };
    auto seal = [&] {
      timed(&seal_us, [&] {
        resolver.SealEpoch();
        return true;
      });
    };

    RunCall(&pass, SpanPrefix(), "stream", [&](CallOutput* call) {
      for (std::size_t i = 0; i < data_.e1().size(); ++i) {
        insert("e1:" + std::to_string(i), data_.e1()[i]);
      }
      seal();
      Digest digest;
      std::size_t stream_inserts = 0;
      for (std::size_t q = 0; q < num_stream_; ++q) {
        const core::EntityProfile& query = data_.e2()[q];
        serve::ResolveResult result;
        timed(&resolve_us, [&] {
          std::unique_ptr<obs::Span> span;
          if (traced) {
            span = std::make_unique<obs::Span>(SpanPrefix() + "resolve#" +
                                               std::to_string(q));
          }
          result = resolver.Resolve(query);
          return true;
        });
        for (const serve::Match& m : result.matches) {
          digest.Add((static_cast<std::uint64_t>(q) << 32) | m.id);
          std::uint64_t bits = 0;
          std::memcpy(&bits, &m.similarity, sizeof(bits));
          digest.Add(bits);
        }
        digest.size += result.matches.size();
        if ((q + 1) % 4 == 0) {
          insert("e2:" + std::to_string(q), query);
          if (++stream_inserts % 500 == 0) seal();
        }
      }
      call->digest = digest;
      AddPhases(resolver.timing(),
                {{"serve/insert", kPreprocess},
                 {"serve/seal", kIndex},
                 {"serve/resolve", kQuery}},
                call);
    });
    return pass;
  }

  StandaloneOutput Standalone(const std::vector<Digest>& /*reference*/) override {
    StandaloneOutput out;
    const std::string prefix = SpanPrefix();
    std::vector<std::string> texts;
    const double render_ms = TimeLayer(prefix + "core.AllValues", 1, [&] {
      texts.clear();
      for (const auto* side : {&data_.e1(), &data_.e2()}) {
        for (const auto& p : *side) texts.push_back(p.AllValues());
      }
      return texts.size();
    });
    out.layers["render_us_per_entity"] =
        render_ms * 1000.0 / static_cast<double>(texts.size());
    const serve::ServeConfig& config = resolver_->config();
    const double tokenize_ms = TimeLayer(prefix + "sparsenn.BuildTokenSet", 1, [&] {
      std::size_t tokens = 0;
      for (const auto& t : texts) {
        tokens += sparsenn::BuildTokenSet(t, config.sparse.model, config.sparse.clean)
                      .size();
      }
      return tokens;
    });
    out.layers["represent_us_per_entity"] =
        tokenize_ms * 1000.0 / static_cast<double>(texts.size());

    // The final corpus state (sealed epochs plus the unsealed delta tail)
    // against a from-scratch batch ε-Join over the same profiles, on the
    // queries the stream never saw.
    const std::vector<core::EntityProfile> checks(data_.e2().begin() + num_stream_,
                                                  data_.e2().end());
    std::vector<core::EntityProfile> corpus;
    corpus.reserve(corpus_.size());
    for (const auto* p : corpus_) corpus.push_back(*p);
    std::vector<serve::ResolveResult> resolved;
    out.layers["serve.resolve_batch_ms"] =
        TimeLayer(prefix + "serve.ResolveBatch", 1, [&] {
          resolved = resolver_->ResolveBatch(checks);
          return resolved.size();
        });
    out.checks.emplace_back(
        "stream end state == batch rebuild + EpsilonJoin",
        DigestOf(oracle::ServeResultsToCandidates(resolved)) ==
            DigestOf(oracle::ServeBatchReference(corpus, checks, config)));
    return out;
  }

 private:
  core::Dataset data_;
  std::size_t num_stream_ = 0;
  std::unique_ptr<serve::Resolver> resolver_;
  std::vector<const core::EntityProfile*> corpus_;  // insert order
};

// --- scale_rotate ----------------------------------------------------------

class ScaleRotateWorkload : public Workload {
 public:
  ScaleRotateWorkload() : Workload("scale_rotate") {}

  void Generate(std::uint64_t seed, bool smoke) override {
    config_ = shard::ScaleRunConfig();
    config_.spec = datagen::ScaleSpec::ForTargetCorpus(
        Seeded(datagen::PaperSpec(2), seed), smoke ? 5000 : 100000);
    config_.threshold = 0.6;
    config_.num_queries = smoke ? 50 : 500;
    config_.options.num_shards = 4;
    // Below the resident projection, above the rotating peak: forces kRotate.
    config_.options.mem_budget_mb = smoke ? 1 : 24;
    config_.collect_pairs = true;
  }

  PassOutput Pass() override {
    PassOutput pass;
    RunCall(&pass, SpanPrefix(), "RunScaleEpsilon", [&](CallOutput* call) {
      const shard::ScaleRunResult r = shard::RunScaleEpsilon(config_);
      call->digest = DigestOf(r.pairs);
      for (const shard::ShardCell& cell : r.cells) {
        call->stage_ms[kPreprocess] += cell.render_ms;
        call->stage_ms[kIndex] += cell.build_ms;
        call->stage_ms[kQuery] += cell.probe_ms;
      }
      if (r.pairs.size() != r.total_candidates) {
        std::fprintf(stderr, "erb_ledger: candidate total %llu != pairs %zu\n",
                     static_cast<unsigned long long>(r.total_candidates),
                     r.pairs.size());
        call->ok = false;
      }
      if (r.schedule != shard::ShardSchedule::kRotate) {
        std::fprintf(stderr, "erb_ledger: scale run did not rotate\n");
        call->ok = false;
      }
      last_projected_mb_ = static_cast<double>(r.projected_bytes) / (1024.0 * 1024.0);
    });
    return pass;
  }

  StandaloneOutput Standalone(const std::vector<Digest>& reference) override {
    StandaloneOutput out;
    const std::string prefix = SpanPrefix();
    const std::uint64_t sample =
        std::min<std::uint64_t>(config_.spec.CorpusSize(), 20000);
    std::vector<std::string> texts;
    const double render_ms = TimeLayer(prefix + "datagen.RenderScaledEntity", 1, [&] {
      texts.clear();
      for (std::uint64_t i = 0; i < sample; ++i) {
        const std::uint64_t replica = i / config_.spec.base.n1;
        texts.push_back(datagen::RenderScaledEntity(config_.spec, replica,
                                                    i % config_.spec.base.n1)
                            .AllValues());
      }
      return texts.size();
    });
    out.layers["render_us_per_entity"] =
        render_ms * 1000.0 / static_cast<double>(sample);
    const double tokenize_ms = TimeLayer(prefix + "sparsenn.BuildTokenSet", 1, [&] {
      std::size_t tokens = 0;
      for (const auto& t : texts) {
        tokens += sparsenn::BuildTokenSet(t, config_.sparse.model,
                                          config_.sparse.clean)
                      .size();
      }
      return tokens;
    });
    out.layers["represent_us_per_entity"] =
        tokenize_ms * 1000.0 / static_cast<double>(sample);
    out.layers["shard.projected_mb"] = last_projected_mb_;

    // Schedule independence: one resident shard emits the same pairs.
    shard::ScaleRunConfig resident = config_;
    resident.options.num_shards = 1;
    resident.options.mem_budget_mb = 0;
    out.checks.emplace_back(
        "4-shard rotate == 1-shard resident",
        DigestOf(shard::RunScaleEpsilon(resident).pairs) ==
            reference[0]);
    return out;
  }

 private:
  shard::ScaleRunConfig config_;
  double last_projected_mb_ = 0.0;
};

std::unique_ptr<Workload> MakeWorkload(std::string_view name) {
  if (name == "sparse_join") return std::make_unique<SparseJoinWorkload>();
  if (name == "blocking_workflow") return std::make_unique<BlockingWorkload>();
  if (name == "dense_knn") return std::make_unique<DenseKnnWorkload>();
  if (name == "serve_stream") return std::make_unique<ServeStreamWorkload>();
  if (name == "scale_rotate") return std::make_unique<ScaleRotateWorkload>();
  return nullptr;
}

// --- run -------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  std::size_t threads = 1;
  bool trace = false;
  bool smoke = false;
  std::string json_path;
  std::string chrome_path;
  std::vector<std::string> ignored_env;  // "NAME=value", see ClearKnobs
};

int Usage() {
  std::fprintf(stderr,
               "usage: erb_ledger --workload=NAME [--seed=N] [--seconds=S] "
               "[--threads=N] [--trace] [--smoke] [--json=PATH] "
               "[--chrome=PATH]\n"
               "workloads: sparse_join blocking_workflow dense_knn "
               "serve_stream scale_rotate\n");
  return 2;
}

bool ParseUnsigned(const char* text, std::uint64_t* out) {
  if (*text < '0' || *text > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = value;
  return true;
}

bool ParseOptions(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value_of = [&](std::string_view flag) -> const char* {
      return arg.substr(0, flag.size()) == flag ? argv[i] + flag.size() : nullptr;
    };
    if (const char* v = value_of("--workload=")) {
      opt->workload = v;
    } else if (const char* v = value_of("--seed=")) {
      if (!ParseUnsigned(v, &opt->seed)) return false;
    } else if (const char* v = value_of("--seconds=")) {
      std::uint64_t s = 0;
      if (!ParseUnsigned(v, &s) || s == 0 || s > 3600) return false;
      opt->seconds = static_cast<double>(s);
    } else if (const char* v = value_of("--threads=")) {
      opt->threads = ParseThreadCount(v, 0);
      if (opt->threads == 0) return false;
    } else if (arg == "--trace") {
      opt->trace = true;
    } else if (arg == "--smoke") {
      opt->smoke = true;
    } else if (const char* v = value_of("--json=")) {
      opt->json_path = v;
    } else if (const char* v = value_of("--chrome=")) {
      opt->chrome_path = v;
    } else {
      return false;
    }
  }
  return !opt->workload.empty();
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

/// Unsets every ERB_* and ERBENCH_* variable. They pick SIMD kernels, filter
/// modes, shard counts and input scales, so a report would otherwise depend
/// on the caller's environment without saying so. Returns the removed
/// "NAME=value" entries.
std::vector<std::string> ClearKnobs() {
  std::vector<std::string> removed;
  for (char** entry = environ; *entry != nullptr; ++entry) {
    const std::string_view e = *entry;
    if (e.rfind("ERB_", 0) == 0 || e.rfind("ERBENCH_", 0) == 0) {
      removed.emplace_back(e);
    }
  }
  for (const std::string& e : removed) unsetenv(e.substr(0, e.find('=')).c_str());
  return removed;
}

std::string_view FilterModeName(sparsenn::FilterMode mode) {
  switch (mode) {
    case sparsenn::FilterMode::kAuto: return "auto";
    case sparsenn::FilterMode::kLength: return "length";
    case sparsenn::FilterMode::kPrefix: return "prefix";
  }
  return "unknown";
}

/// Everything the run accumulates across its passes.
struct RunState {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;  // calls whose digest differs from the first pass
  std::vector<std::pair<std::string, Digest>> digests;  // first warm-up pass
  std::map<std::string, std::vector<double>> call_ms;   // timed passes
  std::map<std::string, std::vector<double>> latency;   // timed passes
  std::vector<double> pass_s;                           // timed passes

  /// Counts a pass's operations (its calls and their requests); a call that
  /// threw, or whose digest differs from the first pass's, failed.
  void Account(const PassOutput& pass) {
    attempted += pass.calls.size() + pass.requests;
    failed += pass.failed_requests;
    for (const CallOutput& c : pass.calls) failed += c.ok ? 0 : 1;
    if (digests.empty()) {
      for (const CallOutput& c : pass.calls) digests.emplace_back(c.name, c.digest);
      return;
    }
    for (std::size_t i = 0; i < pass.calls.size(); ++i) {
      if (pass.calls[i].digest != digests[i].second) {
        std::fprintf(stderr, "erb_ledger: %s digest differs from the first pass\n",
                     pass.calls[i].name.c_str());
        ++failed;
        ++mismatches;
      }
    }
  }
};

PassOutput TimedPass(Workload* workload) {
  const Clock::time_point start = Clock::now();
  PassOutput pass = workload->Pass();
  pass.wall_ms = MsSince(start);
  return pass;
}

int Run(const Options& opt) {
  std::unique_ptr<Workload> workload = MakeWorkload(opt.workload);
  if (workload == nullptr) return Usage();
  SetNumThreads(opt.threads);
  obs::SetTraceEnabled(false);

  RunState state;
  std::vector<double> setup_s;
  const int setups = opt.smoke ? 1 : 3;
  for (int i = 0; i < setups; ++i) {
    const Clock::time_point start = Clock::now();
    workload->Generate(opt.seed, opt.smoke);
    const PassOutput warm = workload->Pass();
    setup_s.push_back(MsSince(start) / 1000.0);
    state.Account(warm);
  }

  // Timed passes. Under --trace, traced passes alternate with untraced ones,
  // so both halves see the same machine state and the trace overhead is the
  // ratio of their medians.
  const std::size_t min_passes = opt.smoke ? 1 : 3;
  const double window_ms = opt.smoke ? 0.0 : opt.seconds * 1000.0;
  std::vector<double> traced_pass_ms, unattributed_ms;
  std::vector<double> stage_samples[kNumStages];
  obs::ResetCollected();
  bool traced = false;
  const Clock::time_point window = Clock::now();
  while (state.pass_s.size() < min_passes ||
         (opt.trace && traced_pass_ms.size() < min_passes) ||
         MsSince(window) < window_ms) {
    obs::SetTraceEnabled(traced);
    PassOutput pass = TimedPass(workload.get());
    obs::SetTraceEnabled(false);
    state.Account(pass);
    if (traced) {
      // Per-layer numbers: the calls' own phase timings.
      traced_pass_ms.push_back(pass.wall_ms);
      double sum = 0.0;
      for (int s = 0; s < kNumStages; ++s) {
        double stage = 0.0;
        for (const CallOutput& c : pass.calls) stage += c.stage_ms[s];
        stage_samples[s].push_back(stage);
        sum += stage;
      }
      unattributed_ms.push_back(pass.wall_ms - sum);
    } else {
      state.pass_s.push_back(pass.wall_ms / 1000.0);
      for (const CallOutput& c : pass.calls) state.call_ms[c.name].push_back(c.wall_ms);
      for (auto& [kind, samples] : pass.latency) {
        auto& pool = state.latency[kind];
        pool.insert(pool.end(), samples.begin(), samples.end());
      }
    }
    traced = opt.trace && !traced;
  }
  const double peak_rss_mb = ledger::PeakRssMb();

  obs::Snapshot snapshot;
  StandaloneOutput standalone;
  std::vector<Digest> reference;
  for (const auto& [name, digest] : state.digests) reference.push_back(digest);
  obs::SetTraceEnabled(opt.trace);
  try {
    standalone = workload->Standalone(reference);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "erb_ledger: standalone layer calls threw: %s\n", e.what());
    standalone.checks.emplace_back("standalone layer calls completed", false);
  }
  standalone.checks.emplace_back("every pass reproduces the first pass",
                                 state.mismatches == 0);
  if (opt.trace) {
    snapshot = obs::Collect();
    obs::SetTraceEnabled(false);
    if (!opt.chrome_path.empty() &&
        !obs::WriteChromeTraceFile(snapshot, opt.chrome_path)) {
      std::fprintf(stderr, "erb_ledger: cannot write %s\n", opt.chrome_path.c_str());
      return 1;
    }
  }

  // Report.
  JsonWriter w;
  w.BeginObject();
  w.Key("schema").Value(std::string_view("erb-ledger/1"));
  w.Key("workload").Value(std::string_view(workload->name()));
  w.Key("seed").Value(opt.seed);
  w.Key("threads").Value(static_cast<std::uint64_t>(opt.threads));
  w.Key("smoke").Value(opt.smoke);
  w.Key("trace").Value(opt.trace);
  w.Key("host").BeginObject();
  w.Key("nproc").Value(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.Key("cpu_model").Value(std::string_view(CpuModel()));
  w.Key("simd_kernel").Value(simd::KindName(simd::ActiveKind()));
  w.Key("filter_threshold_probes")
      .Value(FilterModeName(sparsenn::ResolveFilterMode(
          sparsenn::FilterMode::kAuto, sparsenn::ProbeShape::kThreshold)));
  w.Key("filter_decreasing_probes")
      .Value(FilterModeName(sparsenn::ResolveFilterMode(
          sparsenn::FilterMode::kAuto, sparsenn::ProbeShape::kDecreasing)));
  w.Key("ignored_env").BeginObject();
  for (const std::string& e : opt.ignored_env) {
    const std::size_t eq = e.find('=');
    w.Key(e.substr(0, eq)).Value(std::string_view(e).substr(eq + 1));
  }
  w.EndObject();
  w.EndObject();
  w.Key("attempted").Value(state.attempted);
  w.Key("failed").Value(state.failed);

  w.Key("digests").BeginObject();
  for (const auto& [name, digest] : state.digests) {
    w.Key(name).BeginObject();
    w.Key("size").Value(digest.size);
    w.Key("fnv1a64").Value(std::string_view(Hex(digest.hash)));
    w.EndObject();
  }
  w.EndObject();
  w.Key("checks").BeginObject();
  for (const auto& [name, ok] : standalone.checks) w.Key(name).Value(ok);
  w.EndObject();

  w.Key("metrics").BeginObject();
  w.Key("setup_s").Value(Summarize(setup_s), "s");
  w.Key("rt_s").Value(Summarize(state.pass_s), "s");
  w.Key("peak_rss_mb").Value(Summarize({peak_rss_mb}), "MB");
  w.EndObject();

  w.Key("calls").BeginObject();
  for (const auto& [name, samples] : state.call_ms) {
    w.Key("method." + name + "_ms").Value(Summarize(samples), "ms");
  }
  w.EndObject();
  // Each call's median as a share of the median pass: how much of a
  // regression in that call rt_s can show.
  const double pass_ms = Summarize(state.pass_s).median * 1000.0;
  w.Key("call_share").BeginObject();
  for (const auto& [name, samples] : state.call_ms) {
    w.Key(name).Value(Summarize(samples).median / pass_ms);
  }
  w.EndObject();

  if (!state.latency.empty()) {
    w.Key("latency").BeginObject();
    for (auto& [kind, samples] : state.latency) {
      std::vector<double> sorted = samples;
      std::sort(sorted.begin(), sorted.end());
      w.Key(kind).BeginObject();
      w.Key("p50").Value(ledger::Quantile(sorted, 0.50));
      w.Key("p99").Value(ledger::Quantile(sorted, 0.99));
      w.Key("p999").Value(ledger::Quantile(sorted, 0.999));
      w.Key("n").Value(static_cast<std::uint64_t>(sorted.size()));
      w.EndObject();
    }
    double total_ops = 0.0;
    for (const auto& [kind, samples] : state.latency) {
      total_ops += static_cast<double>(samples.size());
    }
    double total_s = 0.0;
    for (double s : state.pass_s) total_s += s;
    w.Key("ops_per_s").Value(total_ops / total_s);
    w.EndObject();
  }

  if (opt.trace) {
    w.Key("layers").BeginObject();
    for (int s = 0; s < kNumStages; ++s) {
      w.Key(kStageNames[s]).Value(Summarize(stage_samples[s]), "ms");
    }
    w.Key("unattributed_ms").Value(Summarize(unattributed_ms), "ms");
    const Summary traced = Summarize(traced_pass_ms);
    w.Key("pass_ms").Value(traced, "ms");
    const double untraced_ms = Summarize(state.pass_s).median * 1000.0;
    w.Key("trace_overhead_pct")
        .Value(Summarize({100.0 * (traced.median / untraced_ms - 1.0)}), "%");
    for (const auto& [name, value] : standalone.layers) {
      const bool per_entity = name.find("_us_per_entity") != std::string::npos;
      const bool mb = name.find("_mb") != std::string::npos;
      w.Key(name).Value(Summarize({value}), per_entity ? "us" : mb ? "MB" : "ms");
    }
    w.EndObject();
    w.Key("counters").BeginObject();
    for (const auto& [name, value] : snapshot.counters) w.Key(name).Value(value);
    w.EndObject();
    w.Key("gauges").BeginObject();
    for (const auto& [name, value] : snapshot.gauges) w.Key(name).Value(value);
    w.EndObject();
  }
  w.EndObject();

  const std::string& report = w.str();
  if (opt.json_path.empty()) {
    std::printf("%s\n", report.c_str());
    return 0;
  }
  std::FILE* f = std::fopen(opt.json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "erb_ledger: cannot write %s\n", opt.json_path.c_str());
    return 1;
  }
  std::fprintf(f, "%s\n", report.c_str());
  return std::fclose(f) == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseOptions(argc, argv, &opt)) return Usage();
  opt.ignored_env = ClearKnobs();
  for (const std::string& e : opt.ignored_env) {
    std::fprintf(stderr, "erb_ledger: ignoring %s\n", e.c_str());
  }
  try {
    return Run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "erb_ledger: %s\n", e.what());
    return 1;
  }
}
