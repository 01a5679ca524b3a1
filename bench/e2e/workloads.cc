#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "core/analysis_context.h"
#include "core/analytics.h"
#include "core/pipeline.h"
#include "corpus/text_generator.h"
#include "crawler/focused_crawler.h"
#include "crawler/relevance_classifier.h"
#include "crawler/seed_generator.h"
#include "e2e_lib.h"
#include "serve/admission_queue.h"
#include "serve/query_engine.h"
#include "serve/server.h"
#include "store/annotation_store.h"
#include "store/store_sink.h"
#include "web/search_engine.h"
#include "web/simulated_web.h"

namespace wsie::e2e {
namespace {

using ContextPtr = std::shared_ptr<const core::AnalysisContext>;
using Request = serve::QueryEngine::Request;
using Response = serve::QueryEngine::Response;

// Input sizes at scale 1. A batch workload repeats a cycle of fixed work
// round(--seconds / nominal cycle length) times, so that a faster commit
// does the same work, and its latency tail keeps the same percentile,
// instead of more cycles; a nominal length is what a cycle takes on a
// 4-core host. Every publish to the store rewrites its manifest through a
// replacing rename, which on ext4 waits for the disk (0.1 ms to 150 ms on a
// shared virtual disk), so a cycle publishes only a few times and the
// abstract appends run on their own thread. Web pages are analysed in
// batches of equal text, not of equal page count, so that batch latency
// does not depend on how long the seed's pages happen to be.
constexpr size_t kWebHosts = 300;
constexpr size_t kWebMaxPages = 800;
constexpr size_t kWebBatchBytes = 600 * 1024;
constexpr double kWebCycleSeconds = 4.0;
constexpr size_t kAbstractCycleDocs = 10000;
constexpr size_t kAbstractBatchDocs = 100;
constexpr size_t kAbstractBatchesPerAppend = 10;
constexpr double kAbstractCycleSeconds = 3.0;
constexpr size_t kServeStoreDocs = 3000;
constexpr size_t kServeBatchDocs = 100;
constexpr size_t kWriterBatchDocs = 50;
constexpr std::chrono::milliseconds kWriterPeriod{500};
constexpr size_t kRankedNames = 5000;

// Load shape. Fixed here, never derived from the host, so that runs on
// different machines drive the same concurrency.
constexpr size_t kFetchThreads = 4;
constexpr size_t kCompactMinSegments = 4;
constexpr size_t kQueryClients = 3;

/// query_mix is cut into windows of this length; its latency tail is the
/// median of the windows' tails, which one stall of the host cannot move.
constexpr double kWindowSeconds = 0.5;

/// query_mix requests are traced 1 in kTraceEvery, chosen by request index.
constexpr uint64_t kTraceEvery = 64;

constexpr size_t kReplayRequests = 10000;
constexpr size_t kHttpVerifyRequests = 1000;
constexpr size_t kSpanCapacity = 1 << 14;

constexpr int kMedlineCorpus = static_cast<int>(corpus::CorpusKind::kMedline);

size_t Scaled(size_t base, double scale, size_t floor) {
  return std::max(floor, static_cast<size_t>(static_cast<double>(base) * scale));
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Everything one run accumulates: operation accounting, the timings the
/// benchmark takes around calls into each layer (only while `measuring`),
/// and registry snapshots bracketing the measured phase.
struct Run {
  explicit Run(const RunOptions& o) : options(o) {}

  const RunOptions& options;
  RunResult result;
  bool measuring = false;
  bool peak_reset = false;
  int64_t measured_begin_ns = 0;
  int64_t measured_end_ns = 0;
  obs::MetricsSnapshot before;
  obs::MetricsSnapshot after;
  double setup_peak_rss_mb = 0.0;
  double measured_peak_rss_mb = 0.0;

  // End to end. The measured phase is cut into windows: a cycle of a batch
  // workload, half a second of query_mix. Throughput and mean latency are
  // medians over the windows, so a slow spell of the host in one window
  // does not move them. The tail pools every window's samples, except for
  // query_mix (windowed_tail), whose tail is the median of the windows'.
  std::vector<double> setup_s;
  double measured_s = 0.0;
  std::vector<double> window_rates;
  std::vector<std::vector<double>> window_latency_ms;
  bool windowed_tail = false;

  // Per layer, from the benchmark's own timing.
  std::vector<double> context_s, web_build_s, classifier_train_s;
  double unattributed_s = 0.0;
  double crawl_s = 0.0, flow_s = 0.0, drain_s = 0.0, vec_build_s = 0.0;
  std::vector<double> append_ms;
  uint64_t bytes_materialized = 0;
  size_t segments_max = 0;
  double store_bytes_per_kb = 0.0;
  std::vector<double> client_us, similar_us;

  bool Check(bool ok, const std::string& what) {
    if (!ok) {
      result.correct = false;
      result.failed_checks.push_back(what);
    }
    return ok;
  }

  /// Counts one operation; a non-OK status fails it (and the run).
  bool Op(const Status& status, const char* what) {
    ++result.attempted;
    if (status.ok()) return true;
    ++result.failed;
    Check(false, std::string(what) + ": " + status.ToString());
    return false;
  }

  void BeginMeasured() {
    setup_peak_rss_mb = PeakRssMb();
    peak_reset = ResetPeakRss();
    before = obs::MetricsRegistry::Global().Snapshot();
    measured_begin_ns = NowNs();
    measuring = true;
  }

  void EndMeasured() {
    measuring = false;
    measured_end_ns = NowNs();
    after = obs::MetricsRegistry::Global().Snapshot();
    measured_peak_rss_mb = PeakRssMb();
  }

  void Set(const std::string& name, double value, const std::string& unit,
           size_t n = 1) {
    result.metrics[name] = Metric{value, unit, n};
  }
};

/// Runs `make` setup_reps times and books the median as setup_s. Each
/// repetition builds the complete state; the previous one is destroyed
/// first, so only the last survives into the measured phase.
void RepeatSetup(Run& run, const std::function<void()>& make) {
  for (size_t rep = 0; rep < std::max<size_t>(1, run.options.setup_reps); ++rep) {
    const int64_t start = NowNs();
    make();
    run.setup_s.push_back(SecondsSince(start));
  }
}

ContextPtr MakeContext(Run& run) {
  const int64_t start = NowNs();
  auto context = std::make_shared<const core::AnalysisContext>();
  run.context_s.push_back(SecondsSince(start));
  return context;
}

std::shared_ptr<store::AnnotationStore> OpenStore(Run& run, const std::string& dir,
                                                  bool fresh) {
  if (fresh) std::filesystem::remove_all(dir);
  ScopedSpan span("store.Open");
  auto opened = store::AnnotationStore::Open(dir);
  if (!run.Op(opened.status(), "store open")) return nullptr;
  return *opened;
}

/// Folds the analysis of one batch into the analysis of a whole corpus.
void MergeAnalysis(core::CorpusAnalysis part, core::CorpusAnalysis* into) {
  into->kind = part.kind;
  into->per_doc.insert(into->per_doc.end(), part.per_doc.begin(), part.per_doc.end());
  into->total_chars += part.total_chars;
  into->total_sentences += part.total_sentences;
  for (size_t type = 0; type < core::kNumEntityTypes; ++type) {
    for (size_t method = 0; method < core::kNumMethods; ++method) {
      part.names[type][method].ForEach([&](std::string_view name, uint64_t count) {
        into->names[type][method].Add(name, count);
      });
    }
  }
}

/// One flow run over `docs` into `sink`, from building its plan to
/// releasing its outputs; while measuring, its time is one latency sample
/// of the batch workloads. When `analysis` is set, the analysed records are
/// folded into it (verification cycles only).
void AnalyzeBatch(Run& run, const ContextPtr& context,
                  const std::vector<corpus::Document>& docs, corpus::CorpusKind kind,
                  const std::shared_ptr<store::StoreSink>& sink,
                  core::CorpusAnalysis* analysis) {
  const int64_t start = NowNs();
  Status status;
  uint64_t materialized = 0;
  {
    ScopedSpan span("dataflow.RunFlow");
    dataflow::Plan plan = [&] {
      ScopedSpan build("core.BuildAnalysisFlow");
      dataflow::Plan built = core::BuildAnalysisFlow(context, core::FlowOptions{});
      store::AttachStoreSink(&built, sink);
      return built;
    }();
    auto result =
        core::RunFlow(plan, docs, dataflow::ExecutorConfig{run.options.dop, 0, 8});
    status = result.status();
    if (result.ok()) {
      materialized = result->total_bytes_materialized;
      if (analysis != nullptr) {
        MergeAnalysis(core::AnalyzeRecords(kind, result->sink_outputs["analyzed"]),
                      analysis);
      }
    }
  }
  const double seconds = SecondsSince(start);
  if (!run.Op(status, "flow run")) return;
  if (run.measuring) {
    run.flow_s += seconds;
    run.bytes_materialized += materialized;
    run.window_latency_ms.back().push_back(seconds * 1e3);
  }
}

/// Appends what `sink` accumulated as one segment, on the calling thread.
void Flush(Run& run, const store::StoreSink& sink, store::AnnotationStore* store) {
  const int64_t start = NowNs();
  Status flushed = [&] {
    ScopedSpan span("store.FlushTo");
    return sink.FlushTo(store);
  }();
  run.Op(flushed, "append");
  if (run.measuring) run.append_ms.push_back(SecondsSince(start) * 1e3);
}

void BuildIndex(Run& run, store::AnnotationStore* store) {
  const int64_t start = NowNs();
  {
    ScopedSpan span("store.BuildVectorIndex");
    run.Op(store->BuildVectorIndex(), "vector index build");
  }
  if (run.measuring) run.vec_build_s += SecondsSince(start);
}

/// Appends sinks to a store on its own thread, in submission order, so the
/// thread that analyses never waits on the disk. Its statuses and append
/// times are read after Finish().
class AsyncWriter {
 public:
  explicit AsyncWriter(store::AnnotationStore* store)
      : store_(store), thread_([this] { Loop(); }) {}
  ~AsyncWriter() { Finish(); }
  AsyncWriter(const AsyncWriter&) = delete;
  AsyncWriter& operator=(const AsyncWriter&) = delete;

  void Submit(std::shared_ptr<store::StoreSink> sink) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(sink));
    }
    cv_.notify_one();
  }

  /// Waits until every submitted sink is appended and stops the thread.
  void Finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      finishing_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
  }

  /// Books the appends into `run` (after Finish()).
  void Report(Run& run) const {
    for (const Status& status : statuses_) run.Op(status, "append");
    if (run.measuring) {
      run.append_ms.insert(run.append_ms.end(), append_ms_.begin(), append_ms_.end());
    }
  }

 private:
  void Loop() {
    while (true) {
      std::shared_ptr<store::StoreSink> sink;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return finishing_ || !queue_.empty(); });
        if (queue_.empty()) return;
        sink = std::move(queue_.front());
        queue_.pop_front();
      }
      const int64_t start = NowNs();
      Status flushed = [&] {
        ScopedSpan span("store.FlushTo");
        return sink->FlushTo(store_);
      }();
      append_ms_.push_back(SecondsSince(start) * 1e3);
      statuses_.push_back(std::move(flushed));
    }
  }

  store::AnnotationStore* store_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<store::StoreSink>> queue_;  ///< guarded by mu_
  bool finishing_ = false;                               ///< guarded by mu_
  // Written by the writer thread only, read after it is joined.
  std::vector<Status> statuses_;
  std::vector<double> append_ms_;
  std::thread thread_;  ///< declared last: starts after the members it uses
};

/// FNV-1a over the store's answers: TopK(50) per corpus x type, every
/// corpus frequency (type x method, method including the union), and the
/// ten nearest neighbours of the 20 most frequent names.
uint64_t AnswerDigest(const serve::QueryEngine& engine) {
  Fnv fnv;
  for (int corpus = 0; corpus < static_cast<int>(store::kNumCorpora); ++corpus) {
    for (int type = 0; type < static_cast<int>(core::kNumEntityTypes); ++type) {
      serve::QueryFilter filter;
      filter.corpus = corpus;
      filter.type = type;
      for (const auto& entry : engine.TopK(50, filter)) {
        fnv.Str(entry.name);
        fnv.U64(entry.count);
      }
      for (int method = serve::kAny; method < static_cast<int>(core::kNumMethods);
           ++method) {
        const auto frequency = engine.CorpusFrequency(corpus, type, method);
        fnv.U64(frequency.distinct_names);
        fnv.U64(frequency.annotations);
        fnv.U64(frequency.sentences);
        fnv.F64(frequency.per_1000_sentences);
      }
    }
  }
  for (const auto& entry : engine.TopK(20)) {
    for (const auto& hit : engine.Similar(entry.name, 10).neighbors) {
      fnv.Str(hit.name);
      fnv.F64(hit.distance);
    }
  }
  return fnv.value();
}

/// The store answers exactly what the in-memory analysis of the same
/// records says: distinct names and incidence per type x method, and the
/// all-methods union.
void ExactCheck(Run& run, const serve::QueryEngine& engine,
                const core::CorpusAnalysis& analysis) {
  const int corpus = static_cast<int>(analysis.kind);
  bool exact = true;
  uint64_t annotations = 0;
  for (size_t type = 0; type < core::kNumEntityTypes; ++type) {
    for (size_t method = 0; method < core::kNumMethods; ++method) {
      const auto frequency = engine.CorpusFrequency(
          corpus, static_cast<int>(type), static_cast<int>(method));
      annotations += frequency.annotations;
      exact = exact && frequency.distinct_names == analysis.DistinctNames(type, method);
      exact = exact && frequency.per_1000_sentences ==
                           analysis.EntitiesPer1000Sentences(type, method);
    }
    exact = exact && engine.CorpusFrequency(corpus, static_cast<int>(type))
                             .distinct_names == analysis.DistinctNamesAllMethods(type);
  }
  run.Check(exact, "store answers differ from the in-memory analysis");
  run.Check(annotations > 0, "no annotations reached the store");
}

double TextKb(const std::vector<corpus::Document>& docs) {
  double bytes = 0.0;
  for (const auto& doc : docs) bytes += static_cast<double>(doc.text.size());
  return bytes / 1024.0;
}

// ------------------------------------------------------- batch workloads

/// What one cycle of a batch workload leaves behind: its store (still
/// open), the operations it completed and the input text it read.
struct Cycle {
  std::shared_ptr<store::AnnotationStore> store;
  double ops = 0.0;
  double text_kb = 0.0;
};
using CycleFn =
    std::function<Cycle(const std::string& dir, core::CorpusAnalysis* analysis)>;

/// Answer digest of the store in `dir`, reopened from disk.
uint64_t ReopenedDigest(Run& run, const std::string& dir) {
  auto store = OpenStore(run, dir, /*fresh=*/false);
  if (store == nullptr) return 0;
  return AnswerDigest(serve::QueryEngine(store));
}

/// Runs one untimed verification cycle, then round(--seconds /
/// `cycle_seconds`) timed cycles. The verification cycle's store, reopened
/// from disk, must answer exactly what the in-memory analysis says; every
/// timed cycle's store, reopened after the phase, must give the same digest.
void RunCycles(Run& run, double cycle_seconds, const CycleFn& cycle) {
  const std::string verify_dir = run.options.work_dir + "/verify";
  core::CorpusAnalysis analysis;
  Cycle first = cycle(verify_dir, &analysis);
  if (first.store == nullptr) return;
  run.store_bytes_per_kb =
      Ratio(static_cast<double>(first.store->total_bytes()), first.text_kb);
  first.store.reset();
  {
    auto reopened = OpenStore(run, verify_dir, /*fresh=*/false);
    if (reopened == nullptr) return;
    serve::QueryEngine engine(reopened);
    run.result.digest = AnswerDigest(engine);
    ExactCheck(run, engine, analysis);
  }

  const size_t cycles = std::max<size_t>(
      1, static_cast<size_t>(run.options.seconds / cycle_seconds + 0.5));
  std::vector<std::string> dirs;
  SpanRecorder& spans = SpanRecorder::Global();
  run.BeginMeasured();
  while (dirs.size() < cycles) {
    dirs.push_back(run.options.work_dir + "/cycle" + std::to_string(dirs.size()));
    run.window_latency_ms.emplace_back();
    const int64_t begin = NowNs();
    Cycle done = cycle(dirs.back(), nullptr);
    const int64_t end = NowNs();
    const double wall = static_cast<double>(end - begin) / 1e9;
    run.measured_s += wall;
    run.window_rates.push_back(Ratio(done.ops, wall));
    run.unattributed_s += wall - spans.TopLevelSecondsOnThisThread(begin, end);
    if (done.store == nullptr) break;
  }
  run.EndMeasured();
  for (const std::string& dir : dirs) {
    run.Check(ReopenedDigest(run, dir) == run.result.digest,
              "answer_digest of " + dir + " differs from the verification cycle");
  }
}

// ------------------------------------------------------------- web_ingest

struct WebSetup {
  ContextPtr context;
  std::unique_ptr<web::SyntheticWeb> graph;
  std::unique_ptr<web::SimulatedWeb> web;
  std::unique_ptr<web::SearchEngineFederation> engines;
  std::vector<std::string> seeds;
  std::unique_ptr<crawler::RelevanceClassifier> classifier;
};

std::unique_ptr<WebSetup> MakeWebSetup(Run& run) {
  auto setup = std::make_unique<WebSetup>();
  setup->context = MakeContext(run);
  const int64_t start = NowNs();
  web::WebConfig config;
  config.num_hosts = Scaled(kWebHosts, run.options.scale, 12);
  config.seed = run.options.seed;
  setup->graph = std::make_unique<web::SyntheticWeb>(config);
  setup->web = std::make_unique<web::SimulatedWeb>(setup->graph.get(),
                                                   &setup->context->lexicons());
  setup->engines = std::make_unique<web::SearchEngineFederation>(setup->web.get());
  crawler::SeedGenerator seeder(&setup->context->lexicons(), setup->engines.get(),
                                run.options.seed);
  setup->seeds = seeder.Generate(crawler::SeedQueryBudget{20, 30, 30, 30}).seed_urls;
  run.web_build_s.push_back(SecondsSince(start));
  const int64_t train = NowNs();
  setup->classifier =
      std::make_unique<crawler::RelevanceClassifier>(&setup->context->lexicons());
  run.classifier_train_s.push_back(SecondsSince(train));
  return setup;
}

/// Crawl, analyse the relevant pages in batches into one sink, append it
/// as one segment, build the vector index. One operation is one KB of
/// relevant page text: how much of it a fixed-size crawl yields varies
/// from seed to seed, the page count does not.
Cycle WebCycle(Run& run, const WebSetup& setup, const std::string& dir,
               core::CorpusAnalysis* analysis) {
  Cycle cycle;
  auto store = OpenStore(run, dir, /*fresh=*/true);
  if (store == nullptr) return cycle;
  crawler::CrawlerConfig config;
  config.max_pages = Scaled(kWebMaxPages, run.options.scale, 40);
  config.num_fetch_threads = kFetchThreads;
  const int64_t crawl_start = NowNs();
  auto crawler = [&] {
    ScopedSpan span("crawler.Crawl");
    auto started = std::make_unique<crawler::FocusedCrawler>(
        setup.web.get(), setup.classifier.get(), config);
    started->InjectSeeds(setup.seeds);
    started->Crawl();
    return started;
  }();
  if (run.measuring) run.crawl_s += SecondsSince(crawl_start);
  const auto& docs = crawler->relevant_corpus().documents();
  auto sink = std::make_shared<store::StoreSink>();
  std::vector<corpus::Document> batch;
  size_t batch_bytes = 0;
  for (size_t i = 0; i < docs.size(); ++i) {
    batch.push_back(docs[i]);
    batch_bytes += docs[i].text.size();
    if (batch_bytes >= kWebBatchBytes || i + 1 == docs.size()) {
      AnalyzeBatch(run, setup.context, batch, corpus::CorpusKind::kRelevantWeb, sink,
                   analysis);
      batch.clear();
      batch_bytes = 0;
    }
  }
  Flush(run, *sink, store.get());
  BuildIndex(run, store.get());
  cycle.store = std::move(store);
  cycle.text_kb = TextKb(docs);
  cycle.ops = cycle.text_kb;
  const int64_t release_start = NowNs();
  {
    ScopedSpan span("crawler.Crawl");  // releasing the crawl's frontier and corpora
    crawler.reset();
  }
  if (run.measuring) run.crawl_s += SecondsSince(release_start);
  return cycle;
}

void WebIngest(Run& run) {
  std::unique_ptr<WebSetup> setup;
  RepeatSetup(run, [&] {
    setup.reset();
    setup = MakeWebSetup(run);
  });
  RunCycles(run, kWebCycleSeconds,
            [&](const std::string& dir, core::CorpusAnalysis* analysis) {
              return WebCycle(run, *setup, dir, analysis);
            });
}

// -------------------------------------------------------- abstract_ingest

struct AbstractSetup {
  ContextPtr context;
  std::vector<std::vector<corpus::Document>> batches;
  double kb = 0.0;
};

/// Small flow runs over abstracts, appended every few batches by a writer
/// thread while a BackgroundCompactor folds the segments; then the final
/// compaction and the vector index. One operation is one abstract.
Cycle AbstractCycle(Run& run, const AbstractSetup& setup, const std::string& dir,
                    core::CorpusAnalysis* analysis) {
  Cycle cycle;
  auto store = OpenStore(run, dir, /*fresh=*/true);
  if (store == nullptr) return cycle;
  {
    AsyncWriter writer(store.get());
    store::BackgroundCompactor compactor(store, kCompactMinSegments,
                                         std::chrono::milliseconds(20));
    auto sink = std::make_shared<store::StoreSink>();
    for (size_t i = 0; i < setup.batches.size(); ++i) {
      AnalyzeBatch(run, setup.context, setup.batches[i], corpus::CorpusKind::kMedline,
                   sink, analysis);
      if ((i + 1) % kAbstractBatchesPerAppend == 0 || i + 1 == setup.batches.size()) {
        writer.Submit(std::move(sink));
        sink = std::make_shared<store::StoreSink>();
        if (run.measuring) {
          run.segments_max = std::max(run.segments_max, store->num_segments());
        }
      }
    }
    const int64_t drain = NowNs();
    {
      ScopedSpan span("store.drain");
      writer.Finish();
    }
    if (run.measuring) run.drain_s += SecondsSince(drain);
    writer.Report(run);
    ScopedSpan span("store.Compact");
    compactor.Stop();
    run.Op(store->Compact(), "compact");
  }
  BuildIndex(run, store.get());
  cycle.store = std::move(store);
  cycle.ops = static_cast<double>(setup.batches.size() * kAbstractBatchDocs);
  cycle.text_kb = setup.kb;
  return cycle;
}

void AbstractIngest(Run& run) {
  const RunOptions& o = run.options;
  std::unique_ptr<AbstractSetup> setup;
  RepeatSetup(run, [&] {
    setup.reset();
    setup = std::make_unique<AbstractSetup>();
    setup->context = MakeContext(run);
    corpus::TextGenerator generator(&setup->context->lexicons(),
                                    corpus::ProfileFor(corpus::CorpusKind::kMedline),
                                    o.seed);
    const size_t docs = Scaled(kAbstractCycleDocs, o.scale, 2 * kAbstractBatchDocs);
    for (size_t first = 0; first < docs; first += kAbstractBatchDocs) {
      setup->batches.push_back(
          generator.GenerateCorpus(1000000 + first, kAbstractBatchDocs));
      setup->kb += TextKb(setup->batches.back());
    }
  });
  RunCycles(run, kAbstractCycleSeconds,
            [&](const std::string& dir, core::CorpusAnalysis* analysis) {
              return AbstractCycle(run, *setup, dir, analysis);
            });
}

// -------------------------------------------------------------- query_mix

struct ServeSetup {
  ContextPtr context;
  std::shared_ptr<store::AnnotationStore> store;
  std::vector<std::shared_ptr<store::StoreSink>> writer_batches;
  std::shared_ptr<const serve::QueryEngine> engine;
  std::unique_ptr<QueryMix> mix;
  std::shared_ptr<serve::AdmissionQueue> queue;
  double kb = 0.0;
};

/// One Medline-profile store analysed into a single segment with its
/// vector index, the writer's pre-analysed batches (`writer_batches` of
/// them), and the admission queue over it.
std::unique_ptr<ServeSetup> MakeServeSetup(Run& run, size_t writer_batches) {
  const RunOptions& o = run.options;
  auto setup = std::make_unique<ServeSetup>();
  setup->context = MakeContext(run);
  corpus::TextGenerator generator(&setup->context->lexicons(),
                                  corpus::ProfileFor(corpus::CorpusKind::kMedline),
                                  o.seed);
  setup->store = OpenStore(run, o.work_dir + "/serve_store", /*fresh=*/true);
  if (setup->store == nullptr) return setup;
  auto sink = std::make_shared<store::StoreSink>();
  const size_t store_docs = Scaled(kServeStoreDocs, o.scale, 2 * kServeBatchDocs);
  for (size_t first = 0; first < store_docs; first += kServeBatchDocs) {
    const auto docs = generator.GenerateCorpus(1000000 + first, kServeBatchDocs);
    setup->kb += TextKb(docs);
    AnalyzeBatch(run, setup->context, docs, corpus::CorpusKind::kMedline, sink, nullptr);
  }
  Flush(run, *sink, setup->store.get());
  BuildIndex(run, setup->store.get());
  const size_t batch_docs = Scaled(kWriterBatchDocs, o.scale, 5);
  for (size_t i = 0; i < writer_batches; ++i) {
    const auto docs = generator.GenerateCorpus(2000000 + i * batch_docs, batch_docs);
    setup->kb += TextKb(docs);
    setup->writer_batches.push_back(std::make_shared<store::StoreSink>());
    AnalyzeBatch(run, setup->context, docs, corpus::CorpusKind::kMedline,
                 setup->writer_batches.back(), nullptr);
  }
  setup->engine = std::make_shared<const serve::QueryEngine>(setup->store);
  std::vector<std::string> names;
  for (auto& entry : setup->engine->TopK(kRankedNames)) {
    names.push_back(std::move(entry.name));
  }
  run.Check(!names.empty(), "serving store holds no names");
  if (names.empty()) names.push_back("none");
  setup->mix = std::make_unique<QueryMix>(std::move(names), kMedlineCorpus);
  setup->queue = std::make_shared<serve::AdmissionQueue>(
      setup->engine, serve::AdmissionQueue::Options{});
  return setup;
}

/// A reply that cannot be right for a name drawn from the store.
bool ValidReply(const Request& request, const Response& response) {
  using Kind = Request::Kind;
  if (response.kind != request.kind) return false;
  switch (request.kind) {
    case Kind::kLookup:
      return response.lookup.found;
    case Kind::kPrefix:
      return !response.names.empty();
    case Kind::kTopK:
      return !response.topk.empty();
    case Kind::kFrequency:
      return response.frequency.sentences > 0;
    case Kind::kCoOccurrence:
      return true;
    case Kind::kSimilar:
      return response.similar.index_available && !response.similar.neighbors.empty();
  }
  return false;
}

std::chrono::steady_clock::time_point SteadyAt(int64_t ns) {
  return std::chrono::steady_clock::time_point(std::chrono::nanoseconds(ns));
}

/// After the measured phase: a fixed stream through the queue must digest
/// like the same requests through QueryEngine::Execute, and the HTTP front
/// end over the same queue must answer with the in-process bodies.
void VerifyServing(Run& run, const ServeSetup& setup) {
  const RunOptions& o = run.options;
  Fnv queued, direct;
  for (const Request& request : setup.mix->Stream(o.seed ^ 0x5eedf00dULL, kReplayRequests)) {
    Response response;
    ++run.result.attempted;
    if (!setup.queue->Submit(request, &response)) {
      ++run.result.failed;
      continue;
    }
    DigestResponse(response, &queued);
    DigestResponse(setup.engine->Execute(request), &direct);
  }
  run.Check(queued.value() == direct.value(),
            "queue replay digest differs from QueryEngine::Execute");
  run.result.digest = direct.value();

  serve::Server server(setup.queue, serve::Server::Options{});
  if (!run.Op(server.Start(), "server start")) return;
  size_t mismatches = 0;
  for (const Request& request :
       setup.mix->Stream(o.seed ^ 0xa11ce5ULL, kHttpVerifyRequests)) {
    std::string body;
    ++run.result.attempted;
    if (HttpGet(server.port(), HttpTarget(request), &body) != 200 ||
        body != FormatResponseBody(setup.engine->Execute(request))) {
      ++run.result.failed;
      ++mismatches;
    }
  }
  run.Check(mismatches == 0, "HTTP bodies differ from the in-process answers");
}

void QueryMixWorkload(Run& run) {
  const RunOptions& o = run.options;
  // One writer batch per period, half a period off the phase boundaries.
  const size_t writer_batches =
      static_cast<size_t>(o.seconds * 1000.0 / static_cast<double>(kWriterPeriod.count()));
  std::unique_ptr<ServeSetup> setup;
  RepeatSetup(run, [&] {
    setup.reset();
    setup = MakeServeSetup(run, writer_batches);
  });
  if (!run.result.correct) return;

  const size_t windows = std::max<size_t>(
      1, static_cast<size_t>(o.seconds / kWindowSeconds + 0.5));
  const int64_t window_ns = static_cast<int64_t>(o.seconds * 1e9) /
                            static_cast<int64_t>(windows);
  struct Client {
    std::vector<std::vector<double>> latency_ms;  ///< by window of completion
    std::vector<double> similar_us;
    double submit_s = 0.0;
    uint64_t ok = 0;
    uint64_t submitted = 0;
    uint64_t failed = 0;
  };
  std::vector<Client> clients(kQueryClients);
  std::atomic<bool> stop{false};

  run.BeginMeasured();
  auto writer = std::make_unique<AsyncWriter>(setup->store.get());
  auto compactor =
      std::make_unique<store::BackgroundCompactor>(setup->store, kCompactMinSegments);
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(o.seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kQueryClients; ++c) {
    threads.emplace_back([&, c] {
      Client& client = clients[c];
      client.latency_ms.resize(windows);
      Rng rng(o.seed * 0x9e3779b97f4a7c15ULL + c + 1);
      for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const Request request = setup->mix->Next(rng);
        Response response;
        const int64_t sent = NowNs();
        bool admitted = false;
        if (i % kTraceEvery == 0) {
          ScopedSpan span("serve.Submit", (c << 32) | i);
          admitted = setup->queue->Submit(request, &response);
        } else {
          admitted = setup->queue->Submit(request, &response);
        }
        const int64_t done = NowNs();
        const double us = static_cast<double>(done - sent) / 1e3;
        client.submit_s += us / 1e6;
        ++client.submitted;
        if (!admitted || !ValidReply(request, response)) {
          ++client.failed;
          continue;
        }
        ++client.ok;
        const size_t window = static_cast<size_t>((done - start) / window_ns);
        if (window < windows) client.latency_ms[window].push_back(us / 1e3);
        if (request.kind == Request::Kind::kSimilar) client.similar_us.push_back(us);
      }
    });
  }
  for (size_t i = 0; i < setup->writer_batches.size(); ++i) {
    const int64_t due = start + (2 * static_cast<int64_t>(i) + 1) *
                                    (std::chrono::nanoseconds(kWriterPeriod).count() / 2);
    if (due >= end) break;
    std::this_thread::sleep_until(SteadyAt(due));
    writer->Submit(setup->writer_batches[i]);
    run.segments_max = std::max(run.segments_max, setup->store->num_segments());
  }
  std::this_thread::sleep_until(SteadyAt(end));
  stop.store(true);
  for (auto& thread : threads) thread.join();
  run.measured_s = SecondsSince(start);
  writer->Finish();
  compactor->Stop();
  writer->Report(run);
  run.EndMeasured();

  uint64_t replies = 0;
  run.windowed_tail = true;
  run.window_latency_ms.resize(windows);
  for (const Client& client : clients) {
    run.result.attempted += client.submitted;
    run.result.failed += client.failed;
    replies += client.ok + client.failed;
    run.unattributed_s += (run.measured_s - client.submit_s) / kQueryClients;
    for (size_t w = 0; w < windows; ++w) {
      run.window_latency_ms[w].insert(run.window_latency_ms[w].end(),
                                      client.latency_ms[w].begin(),
                                      client.latency_ms[w].end());
    }
    run.similar_us.insert(run.similar_us.end(), client.similar_us.begin(),
                          client.similar_us.end());
  }
  for (const auto& latency_ms : run.window_latency_ms) {
    run.window_rates.push_back(static_cast<double>(latency_ms.size()) * 1e9 /
                               static_cast<double>(window_ns));
    for (double ms : latency_ms) run.client_us.push_back(ms * 1e3);
  }
  run.Check(run.after.CounterValue("wsie.serve.admission.enqueued") -
                    run.before.CounterValue("wsie.serve.admission.enqueued") ==
                replies,
            "admission enqueued differs from the replies clients received");

  // Quiesce: fold what the writer appended, then verify.
  run.Op(setup->store->Compact(), "compact");
  run.store_bytes_per_kb =
      Ratio(static_cast<double>(setup->store->total_bytes()), setup->kb);
  VerifyServing(run, *setup);
}

// ---------------------------------------------------------------- metrics

const char* OperatorGroup(std::string_view op) {
  auto ends_with = [&](std::string_view suffix) {
    return op.size() >= suffix.size() &&
           op.substr(op.size() - suffix.size()) == suffix;
  };
  if (op == "annotate_sentences") return "text.busy_s";
  if (op == "annotate_pos") return "nlp.pos.busy_s";
  if (op.rfind("find_", 0) == 0) return "nlp.ling.busy_s";
  if (op.rfind("annotate_", 0) == 0 && ends_with("_dict")) return "ie.dict.busy_s";
  if (op.rfind("annotate_", 0) == 0 && ends_with("_ml")) return "ie.ml.busy_s";
  return "dataflow.other.busy_s";
}

/// The spans recorded in the measured phase, reported as self seconds.
constexpr const char* kSpanNames[] = {
    "crawler.Crawl", "core.BuildAnalysisFlow", "dataflow.RunFlow",
    "store.Open",    "store.FlushTo",          "store.drain",
    "store.Compact", "store.BuildVectorIndex", "serve.Submit",
};

void EmitMetrics(Run& run) {
  const obs::MetricsSnapshot& b = run.before;
  const obs::MetricsSnapshot& a = run.after;
  auto counter = [&](std::string_view name) {
    return static_cast<double>(a.CounterValue(name) - b.CounterValue(name));
  };

  // End to end.
  run.Set("setup_s", Median(run.setup_s), "s", run.setup_s.size());
  run.Set("peak_rss_mb", std::max(run.setup_peak_rss_mb, run.measured_peak_rss_mb),
          "MB");
  run.Set("ops_per_s", Median(run.window_rates), "1/s", run.window_rates.size());
  std::vector<double> pooled, means, tails;
  double window_level = 0.99;
  for (const auto& latency_ms : run.window_latency_ms) {
    double sum = 0.0;
    for (const double ms : latency_ms) sum += ms;
    means.push_back(Ratio(sum, static_cast<double>(latency_ms.size())));
    const Timing window = Summarize(latency_ms);
    tails.push_back(window.tail);
    window_level = std::min(window_level, window.tail_level);
    pooled.insert(pooled.end(), latency_ms.begin(), latency_ms.end());
  }
  const Timing all = Summarize(pooled);
  run.Set("latency_mean_ms", Median(means), "ms", pooled.size());
  run.Set("latency_tail_ms", run.windowed_tail ? Median(tails) : all.tail, "ms",
          pooled.size());
  run.Set("store_bytes_per_kb", run.store_bytes_per_kb, "B/KB");

  // Run ledger.
  run.Set("run.latency_p50_ms", all.p50, "ms", all.n);
  run.Set("run.latency_tail_level", run.windowed_tail ? window_level : all.tail_level,
          "quantile");
  run.Set("run.windows", static_cast<double>(run.window_latency_ms.size()), "count");
  run.Set("run.measured_s", run.measured_s, "s");
  run.Set("run.unattributed_s", run.unattributed_s, "s");
  run.Set("run.ops_failed_ratio",
          Ratio(static_cast<double>(run.result.failed),
                static_cast<double>(run.result.attempted)),
          "ratio", run.result.attempted);
  run.Set("run.measured_peak_rss_mb", run.measured_peak_rss_mb, "MB");
  if (!run.peak_reset) {
    run.result.notes.push_back(
        "run.measured_peak_rss_mb includes set-up: VmHWM could not be reset");
  }

  // core, web, crawler.
  run.Set("core.context_s", Median(run.context_s), "s", run.context_s.size());
  run.Set("web.build_s", Median(run.web_build_s), "s", run.web_build_s.size());
  run.Set("web.fetch_attempts", counter("wsie.web.fetch.attempts"), "count");
  run.Set("crawler.crawl_s", run.crawl_s, "s");
  run.Set("crawler.classifier_train_s", Median(run.classifier_train_s), "s",
          run.classifier_train_s.size());
  run.Set("crawler.pages_fetched", counter("wsie.crawler.fetch.pages"), "count");
  run.Set("crawler.fetch_errors", counter("wsie.crawler.fetch.errors"), "count");
  const double relevant = counter("wsie.crawler.classified.relevant");
  run.Set("crawler.harvest_rate",
          Ratio(relevant, relevant + counter("wsie.crawler.classified.irrelevant")),
          "ratio");

  // dataflow and the operator groups.
  const double run_wall_s = HistogramDelta(b, a, "wsie.dataflow.run.wall_ns").sum / 1e9;
  std::map<std::string, double> groups = {
      {"text.busy_s", 0.0},   {"nlp.pos.busy_s", 0.0}, {"nlp.ling.busy_s", 0.0},
      {"ie.dict.busy_s", 0.0}, {"ie.ml.busy_s", 0.0},  {"dataflow.other.busy_s", 0.0}};
  double busy_s = 0.0;
  const std::string prefix = "wsie.dataflow.operator.process_ns{op=\"";
  for (const auto& c : a.counters) {
    if (c.name.rfind(prefix, 0) != 0) continue;
    const std::string op = c.name.substr(prefix.size(), c.name.size() - prefix.size() - 2);
    const double seconds = static_cast<double>(c.value - b.CounterValue(c.name)) / 1e9;
    groups[OperatorGroup(op)] += seconds;
    busy_s += seconds;
  }
  for (const auto& [name, seconds] : groups) run.Set(name, seconds, "s");
  run.Set("dataflow.run_s", run.flow_s, "s");
  run.Set("dataflow.runs", counter("wsie.dataflow.runs"), "count");
  run.Set("dataflow.busy_share",
          Ratio(busy_s, run_wall_s * static_cast<double>(run.options.dop)), "ratio");
  run.Set("dataflow.open_cold", counter("wsie.dataflow.open.cold"), "count");
  run.Set("dataflow.bytes_materialized", static_cast<double>(run.bytes_materialized),
          "B");

  // store.
  const Timing append = Summarize(run.append_ms);
  double append_s = 0.0;
  for (const double ms : run.append_ms) append_s += ms / 1e3;
  run.Set("store.append_s", append_s, "s");
  run.Set("store.appends", static_cast<double>(run.append_ms.size()), "count");
  run.Set("store.append_p50_ms", append.p50, "ms", append.n);
  run.Set("store.append_tail_ms", append.tail, "ms", append.n);
  run.Set("store.drain_wait_s", run.drain_s, "s");
  run.Set("store.compact_s", HistogramDelta(b, a, "wsie.store.merge.wall_ns").sum / 1e9,
          "s");
  run.Set("store.segment_write_s",
          HistogramDelta(b, a, "wsie.store.segment.write_ns").sum / 1e9, "s");
  run.Set("store.compactions", counter("wsie.store.compactions"), "count");
  run.Set("store.segments_max", static_cast<double>(run.segments_max), "count");
  run.Set("store.epoch_unreclaimed",
          a.GaugeValue("wsie.store.epoch.retired") -
              a.GaugeValue("wsie.store.epoch.reclaimed"),
          "count");

  // vec.
  const double vec_total_s = HistogramDelta(b, a, "wsie.vec.build.wall_ns").sum / 1e9;
  const obs::HistogramSnapshot hops = HistogramDelta(b, a, "wsie.vec.query.hops");
  const double vec_queries = counter("wsie.vec.queries");
  run.Set("vec.build_s", run.vec_build_s, "s");
  run.Set("vec.rebuild_s", std::max(0.0, vec_total_s - run.vec_build_s), "s");
  run.Set("vec.vectors", a.GaugeValue("wsie.vec.index.vectors"), "count");
  run.Set("vec.hops_mean", Ratio(hops.sum, static_cast<double>(hops.count)), "count");
  run.Set("vec.delta_share", Ratio(counter("wsie.vec.queries_delta"), vec_queries),
          "ratio");
  run.Set("vec.query_p99_us",
          HistogramDelta(b, a, "wsie.vec.query.latency_ns").Quantile(0.99) / 1e3, "us");

  // serve: request = admission to reply (queue wait + execution), exec =
  // QueryEngine execution alone.
  const obs::HistogramSnapshot request =
      HistogramDelta(b, a, "wsie.serve.request.latency_ns");
  const obs::HistogramSnapshot exec = HistogramDelta(b, a, "wsie.serve.query.latency_ns");
  run.Set("serve.request_p50_us", request.Quantile(0.5) / 1e3, "us", request.count);
  run.Set("serve.request_p99_us", request.Quantile(0.99) / 1e3, "us", request.count);
  run.Set("serve.exec_p50_us", exec.Quantile(0.5) / 1e3, "us", exec.count);
  run.Set("serve.exec_p99_us", exec.Quantile(0.99) / 1e3, "us", exec.count);
  run.Set("serve.mean_batch",
          Ratio(counter("wsie.serve.admission.enqueued"),
                counter("wsie.serve.admission.batches")),
          "count");
  run.Set("serve.client_overhead_us",
          run.client_us.empty()
              ? 0.0
              : Quantile(run.client_us, 0.5) - request.Quantile(0.5) / 1e3,
          "us");
  run.Set("serve.similar_tail_us", Summarize(run.similar_us).tail, "us",
          run.similar_us.size());

  // Spans of the measured phase (traced runs only).
  const auto spans =
      SpanRecorder::Global().SelfTimes(run.measured_begin_ns, run.measured_end_ns);
  for (const char* name : kSpanNames) {
    const auto it = spans.find(name);
    run.Set(std::string("span.") + name + ".self_s",
            it == spans.end() ? 0.0 : it->second.self_s, "s",
            it == spans.end() ? 0 : it->second.count);
  }
  run.Set("span.dropped", static_cast<double>(SpanRecorder::Global().dropped()),
          "count");
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"web_ingest", "abstract_ingest",
                                                 "query_mix"};
  return names;
}

RunResult RunWorkload(const RunOptions& options) {
  Run run(options);
  if (!options.trace_path.empty()) SpanRecorder::Global().Enable(kSpanCapacity);
  std::filesystem::remove_all(options.work_dir);
  std::filesystem::create_directories(options.work_dir);
  if (options.workload == "web_ingest") {
    WebIngest(run);
  } else if (options.workload == "abstract_ingest") {
    AbstractIngest(run);
  } else if (options.workload == "query_mix") {
    QueryMixWorkload(run);
  } else {
    run.Check(false, "unknown workload '" + options.workload + "'");
    return run.result;
  }
  run.Check(run.result.failed == 0, "operations failed");
  EmitMetrics(run);
  if (!options.trace_path.empty() &&
      !SpanRecorder::Global().WriteChromeTrace(options.trace_path)) {
    run.Check(false, "could not write the trace to " + options.trace_path);
  }
  std::filesystem::remove_all(options.work_dir);
  return run.result;
}

}  // namespace wsie::e2e
