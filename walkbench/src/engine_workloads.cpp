/**
 * @file
 * The two engine workloads: out-of-core first-order corpus walks and
 * in-memory second-order node2vec walks, each a repeated
 * NosWalkerEngine::run over a graph file written at set-up.
 */
#include <cmath>
#include <cstdio>
#include <unordered_map>
#include <vector>

#include "apps/basic_rw.hpp"
#include "apps/node2vec.hpp"
#include "baselines/drunkardmob.hpp"
#include "baselines/graphwalker.hpp"
#include "core/noswalker_engine.hpp"
#include "graph/generators.hpp"
#include "oracle.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace walkbench {

namespace {

using noswalker::core::EngineConfig;
using noswalker::core::NosWalkerEngine;
using noswalker::engine::RunStats;
using noswalker::graph::CsrGraph;
using noswalker::graph::VertexId;
using noswalker::graph::VertexView;
using noswalker::util::Rng;

/** Walk length of both engine workloads. */
constexpr std::uint32_t kLength = 10;
/** One walker in this many records its path and latency.  Prime, so
 *  the sampled walkers' start vertices are not all multiples of a power
 *  of two, which on RMAT graphs are the high-degree ones. */
constexpr std::uint64_t kSampleStride = 61;
/** Two-sided z bound of the count checks. */
constexpr double kZBound = 5.0;
/** Level of the endpoint χ² test. */
constexpr double kChi2Alpha = 1e-4;
/** Walker latency tail, printed to stderr but not gated (see the
 *  README): a run pools about 10⁵ latencies of sampled walkers, so
 *  p99.9 has about 100 samples beyond it. */
constexpr double kTailQuantile = 0.999;

/**
 * Records shared by both recording apps: the path and generate-to-finish
 * latency of every kSampleStride-th walker; other walkers cost one
 * modulo per step.  Each walker writes only its own slots, so concurrent
 * step threads never share an element.
 */
class WalkRecords {
  public:
    explicit WalkRecords(std::uint64_t total)
        : sampled_((total + kSampleStride - 1) / kSampleStride),
          paths_(sampled_ * (kLength + 1)), path_steps_(sampled_, 0),
          t_gen_(sampled_, 0), t_done_(sampled_, 0)
    {
    }

    void
    on_generate(std::uint64_t id, VertexId start)
    {
        if (id % kSampleStride == 0) {
            const std::uint64_t s = id / kSampleStride;
            paths_[s * (kLength + 1)] = start;
            t_gen_[s] = now_ns();
        }
    }

    void
    on_step(std::uint64_t id, std::uint32_t step, VertexId at)
    {
        if (id % kSampleStride == 0) {
            const std::uint64_t s = id / kSampleStride;
            paths_[s * (kLength + 1) + step] = at;
            path_steps_[s] = step;
            if (step == kLength) {
                t_done_[s] = now_ns();
            }
        }
    }

    std::uint64_t sampled() const { return sampled_; }
    std::uint32_t steps_of(std::uint64_t s) const { return path_steps_[s]; }

    VertexId
    path_at(std::uint64_t s, std::uint32_t j) const
    {
        return paths_[s * (kLength + 1) + j];
    }

    /** Where sampled walker @p s stopped. */
    VertexId endpoint(std::uint64_t s) const { return path_at(s, steps_of(s)); }

    /** Generate-to-finish latency of sampled walkers that finished. */
    std::vector<double>
    latencies_ms() const
    {
        std::vector<double> out;
        for (std::uint64_t s = 0; s < sampled_; ++s) {
            if (t_done_[s] != 0) {
                out.push_back(static_cast<double>(t_done_[s] - t_gen_[s]) /
                              1e6);
            }
        }
        return out;
    }

  private:
    std::uint64_t sampled_;
    std::vector<VertexId> paths_;
    std::vector<std::uint32_t> path_steps_;
    std::vector<std::int64_t> t_gen_;
    std::vector<std::int64_t> t_done_;
};

/** DeepWalk corpus walks: walker n starts at n mod V and takes kLength
 *  uniform steps (apps::BasicRandomWalk), recorded in WalkRecords. */
class CorpusWalk {
  public:
    using WalkerT = noswalker::engine::Walker;

    CorpusWalk(VertexId num_vertices, std::uint64_t total)
        : inner_(kLength, num_vertices, false), records(total)
    {
    }

    WalkerT
    generate(std::uint64_t n)
    {
        WalkerT w = inner_.generate(n);
        records.on_generate(n, w.location);
        return w;
    }

    VertexId
    sample(const VertexView &view, Rng &rng)
    {
        return inner_.sample(view, rng);
    }

    unsigned
    gather(const WalkerT &w, const VertexView &view, Rng probe) const
    {
        return inner_.gather(w, view, probe);
    }

    bool active(const WalkerT &w) const { return inner_.active(w); }

    bool
    action(WalkerT &w, VertexId next, Rng &rng)
    {
        const bool used = inner_.action(w, next, rng);
        records.on_step(w.id, w.step, next);
        return used;
    }

  private:
    noswalker::apps::BasicRandomWalk inner_;

  public:
    WalkRecords records;
};

/** apps::Node2Vec with every accepted step recorded in WalkRecords. */
class RecordingNode2Vec {
  public:
    using WalkerT = noswalker::engine::SecondOrderWalker;

    RecordingNode2Vec(double p, double q, VertexId num_vertices,
                      std::uint32_t walks_per_vertex)
        : inner_(p, q, kLength, num_vertices, walks_per_vertex),
          records(inner_.total_walkers())
    {
    }

    std::uint64_t total_walkers() const { return inner_.total_walkers(); }

    WalkerT
    generate(std::uint64_t n)
    {
        WalkerT w = inner_.generate(n);
        records.on_generate(n, w.location);
        return w;
    }

    VertexId
    sample(const VertexView &view, Rng &rng)
    {
        return inner_.sample(view, rng);
    }

    unsigned
    gather(const WalkerT &w, const VertexView &view) const
    {
        return inner_.gather(w, view);
    }

    bool active(const WalkerT &w) const { return inner_.active(w); }

    bool
    action(WalkerT &w, VertexId next, Rng &rng)
    {
        return inner_.action(w, next, rng);
    }

    bool has_candidate(const WalkerT &w) const
    {
        return inner_.has_candidate(w);
    }

    VertexId candidate(const WalkerT &w) const { return inner_.candidate(w); }

    bool
    rejection(WalkerT &w, const VertexView &candidate_view, Rng &rng)
    {
        const bool accepted = inner_.rejection(w, candidate_view, rng);
        if (accepted) {
            records.on_step(w.id, w.step, w.location);
        }
        return accepted;
    }

  private:
    noswalker::apps::Node2Vec inner_;

  public:
    WalkRecords records;
};

static_assert(noswalker::engine::DrawHintApp<CorpusWalk>);
static_assert(noswalker::engine::SecondOrderApp<RecordingNode2Vec>);
static_assert(noswalker::engine::GatherHintApp<RecordingNode2Vec>);

/** One measured run() of the whole walker set. */
struct Round {
    RunStats stats;
    /** Wall seconds of run(), timed around the call. */
    double wall_s = 0.0;
    bool traced = false;
    /** Traced rounds: the timing device's totals for this round. */
    TimedDevice::Totals reads;
};

/** What an engine workload's measurement produced. */
template <typename App>
struct Measured {
    std::vector<Round> rounds;
    std::vector<double> latencies_ms;
    /** The last round's app, whose records the checks read. */
    std::unique_ptr<App> last_app;
    double window_s = 0.0;
    double window_cpu_s = 0.0;
};

/**
 * Run whole rounds until @p opts.seconds have passed.  A traced
 * invocation alternates untraced and traced rounds (at least one of
 * each), so the tracing overhead is measured in the same process.
 */
template <typename App, typename MakeEngine, typename MakeApp>
Measured<App>
measure(const Options &opts, std::unique_ptr<NosWalkerEngine<App>> first,
        MakeEngine make_engine, DiskGraph &disk, Tracer *tracer,
        std::uint64_t total, MakeApp make_app)
{
    Measured<App> m;
    const auto start = std::chrono::steady_clock::now();
    const double cpu0 = process_cpu_seconds();
    for (std::size_t i = 0;; ++i) {
        const bool use_traced = tracer != nullptr && i % 2 == 1;
        if (seconds_since(start) >= opts.seconds &&
            (tracer == nullptr ? i >= 1 : i >= 2)) {
            break;
        }
        // Every round is a fresh engine's first run(): a reused engine
        // walks differently on its second run (see CHANGES.md).
        auto engine = i == 0 ? std::move(first) : make_engine(use_traced);
        auto app = make_app();
        Round round;
        round.traced = use_traced;
        if (use_traced) {
            disk.timed->reset_totals();
            ScopedSpan span(tracer, "engine.run", "engine");
            disk.timed->set_parent(span.id());
            const auto t0 = std::chrono::steady_clock::now();
            round.stats = engine->run(*app, total);
            round.wall_s = seconds_since(t0);
            round.reads = disk.timed->totals();
        } else {
            const auto t0 = std::chrono::steady_clock::now();
            round.stats = engine->run(*app, total);
            round.wall_s = seconds_since(t0);
        }
        std::fprintf(stderr,
                     "round %zu%s: %llu steps, %llu B read, %.3f s\n", i,
                     use_traced ? " (traced)" : "",
                     static_cast<unsigned long long>(round.stats.steps),
                     static_cast<unsigned long long>(
                         round.stats.graph_bytes_read),
                     round.wall_s);
        const auto lat = app->records.latencies_ms();
        if (!use_traced) {
            m.latencies_ms.insert(m.latencies_ms.end(), lat.begin(),
                                  lat.end());
        }
        m.rounds.push_back(round);
        m.last_app = std::move(app);
    }
    m.window_s = seconds_since(start);
    m.window_cpu_s = process_cpu_seconds() - cpu0;
    return m;
}

/** Values over the (un)traced rounds. */
template <typename F>
std::vector<double>
over(const std::vector<Round> &rounds, bool traced, F f)
{
    std::vector<double> out;
    for (const Round &r : rounds) {
        if (r.traced == traced) {
            out.push_back(f(r));
        }
    }
    return out;
}

/** Checks every engine workload makes: rounds agree exactly, every
 *  walker retired, the budget held, sampled paths follow edges and
 *  stop early only at dead ends. */
void
check_common(Report &report, const std::vector<Round> &rounds,
             const WalkRecords &records, const CsrGraph &g,
             std::uint64_t total, std::uint64_t budget)
{
    bool same = true;
    bool retired = true;
    bool within = true;
    for (const Round &r : rounds) {
        same = same && r.stats.steps == rounds[0].stats.steps &&
               r.stats.graph_bytes_read == rounds[0].stats.graph_bytes_read;
        retired = retired && r.stats.walkers == total;
        within = within && r.stats.peak_memory <= budget;
    }
    report.check(same, "all " + std::to_string(rounds.size()) +
                           " rounds took the same steps and read the same "
                           "bytes");
    report.check(retired, "every round retired all " +
                              std::to_string(total) + " walkers");
    report.check(within, "peak budget " +
                             std::to_string(rounds[0].stats.peak_memory) +
                             " B <= budget " + std::to_string(budget) +
                             " B");

    std::uint64_t bad_edges = 0, bad_stops = 0, steps = 0;
    for (std::uint64_t s = 0; s < records.sampled(); ++s) {
        const std::uint32_t k = records.steps_of(s);
        for (std::uint32_t j = 0; j < k; ++j) {
            bad_edges += g.has_edge(records.path_at(s, j),
                                    records.path_at(s, j + 1))
                             ? 0
                             : 1;
        }
        steps += k;
        if (k < kLength && g.degree(records.path_at(s, k)) != 0) {
            ++bad_stops;
        }
    }
    report.check(bad_edges == 0,
                 "every one of " + std::to_string(steps) +
                     " sampled steps is an edge (" +
                     std::to_string(bad_edges) + " are not)");
    report.check(bad_stops == 0,
                 "sampled walks shorter than the walk length end at a dead "
                 "end (" + std::to_string(bad_stops) + " do not)");
}

/** The metrics both engine workloads print. */
void
engine_metrics(Report &report, const Options &opts, const DiskGraph &disk,
               double setup_s, const std::vector<Round> &rounds,
               const std::vector<double> &latencies_ms, double window_s,
               double window_cpu_s)
{
    const RunStats &first = rounds[0].stats;
    if (!opts.trace) {
        const auto wall = over(rounds, false, [](const Round &r) {
            return r.wall_s;
        });
        report.put("setup_s", setup_s, "s");
        report.put("walk_s", median(wall), "s");
        report.put("steps_per_s",
                   median(over(rounds, false,
                               [](const Round &r) {
                                   return static_cast<double>(r.stats.steps) /
                                          r.wall_s;
                               })),
                   "steps/s");
        report.put("modeled_s",
                   median(over(rounds, false,
                               [](const Round &r) {
                                   return r.stats.modeled_seconds();
                               })),
                   "s");
        report.put("io_bytes_per_step",
                   ratio(static_cast<double>(first.graph_bytes_read),
                         static_cast<double>(first.steps)),
                   "B/step");
        report.put("requests_per_s",
                   median(over(rounds, false,
                               [](const Round &r) {
                                   return static_cast<double>(
                                              r.stats.walkers) /
                                          r.wall_s;
                               })),
                   "req/s");
        report.put("latency_p50_ms", median(latencies_ms), "ms");
        std::fprintf(stderr,
                     "latency: %zu sampled walkers, p%.1f = %.1f ms\n",
                     latencies_ms.size(), kTailQuantile * 100.0,
                     quantile(latencies_ms, kTailQuantile));
        return;
    }

    const auto traced = [&](auto f) {
        return median(over(rounds, true, f));
    };
    const auto untraced_wall = median(over(rounds, false, [](const Round &r) {
        return r.wall_s;
    }));
    const Round *tr = nullptr;
    for (const Round &r : rounds) {
        if (r.traced) {
            tr = &r;
            break;
        }
    }
    report.put("graph.build_s", disk.build_s, "s");
    report.put("graph.write_s", disk.write_s, "s");
    report.put("graph.open_s", disk.open_s, "s");
    report.put("graph.partition_s", disk.partition_s, "s");

    report.put("storage.read_calls", static_cast<double>(tr->reads.calls),
               "count");
    report.put("storage.read_bytes", static_cast<double>(tr->reads.bytes),
               "B");
    report.put("storage.mean_read_bytes",
               ratio(static_cast<double>(tr->reads.bytes),
                     static_cast<double>(tr->reads.calls)),
               "B");
    report.put("storage.read_s",
               traced([](const Round &r) { return r.reads.seconds; }), "s");
    report.put("storage.blocking_read_s", traced([](const Round &r) {
                   return r.wall_s - r.stats.cpu_seconds;
               }),
               "s");
    report.put("storage.background_read_s", traced([](const Round &r) {
                   return r.reads.seconds - r.reads.caller_seconds;
               }),
               "s");
    std::fprintf(stderr, "storage: %llu of %llu reads on the run() thread\n",
                 static_cast<unsigned long long>(tr->reads.caller_calls),
                 static_cast<unsigned long long>(tr->reads.calls));

    put_run_stats(report, tr->stats);
    report.put("core.cpu_s",
               traced([](const Round &r) { return r.stats.cpu_seconds; }),
               "s");

    // No service in front of the engine: no queue, batches or cache.
    report.put("service.queue_wait_ms", 0.0, "ms");
    report.put("service.run_ms", 0.0, "ms");
    report.put("service.batches", 0.0, "count");
    report.put("service.mean_batch_size", 0.0, "1");
    report.put("service.cache_hit_ratio", 0.0, "1");
    report.put("service.budget_peak_bytes", 0.0, "B");

    report.put("process.rss_peak_bytes", process_rss_peak_bytes(), "B");
    report.put("process.cpu_s", window_cpu_s, "s");
    report.put("process.cpu_per_wall", ratio(window_cpu_s, window_s), "1");

    report.put("trace.overhead_s",
               traced([](const Round &r) { return r.wall_s; }) -
                   untraced_wall,
               "s");
}

/** Count of walkers per start vertex for the oracle. */
template <typename StartOf>
std::vector<double>
start_counts(const CsrGraph &g, std::uint64_t total, StartOf start_of)
{
    std::vector<double> counts(g.num_vertices(), 0.0);
    for (std::uint64_t n = 0; n < total; ++n) {
        counts[start_of(n)] += 1.0;
    }
    return counts;
}

/**
 * The oocore-deepwalk input: RMAT scale 18, edge factor 16, an 18.9 MB
 * file.  The budget is a quarter of the file, so blocks stream through
 * double buffers; 4 walks per vertex puts four times more walkers than
 * vertices.
 */
constexpr std::uint32_t kOocoreWalksPerVertex = 4;
constexpr std::uint64_t kOocoreBlockBytes = 256 << 10;

CsrGraph
oocore_graph(std::uint64_t seed, Tracer *tracer)
{
    noswalker::graph::RmatParams params;
    params.scale = 18;
    params.edge_factor = 16;
    params.seed = noswalker::util::derive_stream(seed, 1);
    ScopedSpan span(tracer, "graph.generate", "graph");
    return noswalker::graph::generate_rmat(params);
}

} // namespace

Report
run_oocore_deepwalk(const Options &opts)
{
    constexpr std::uint32_t kWalksPerVertex = kOocoreWalksPerVertex;
    constexpr std::uint64_t kBlockBytes = kOocoreBlockBytes;

    Report report;
    check_oracle(report);
    Tracer tracer;
    Tracer *tr = opts.trace ? &tracer : nullptr;

    const CsrGraph g = oocore_graph(opts.seed, tr);
    const VertexId V = g.num_vertices();
    const std::uint64_t total = std::uint64_t{V} * kWalksPerVertex;

    auto disk = put_on_disk(g, noswalker::util::derive_stream(opts.seed, 7),
                            opts, kBlockBytes, tr);
    check_conversion(report, *disk);
    const auto construct0 = std::chrono::steady_clock::now();
    const std::uint64_t budget = disk->file->file_bytes() / 4;
    EngineConfig cfg = EngineConfig::full(budget, kBlockBytes);
    cfg.step_threads = 1;
    cfg.seed = noswalker::util::derive_stream(opts.seed, 2);
    using Engine = NosWalkerEngine<CorpusWalk>;
    const auto make_engine = [&](bool traced) {
        return traced ? std::make_unique<Engine>(*disk->traced_file,
                                                 *disk->traced_partition, cfg)
                      : std::make_unique<Engine>(*disk->file,
                                                 *disk->partition, cfg);
    };
    std::unique_ptr<Engine> first;
    {
        ScopedSpan span(tr, "engine.construct", "engine");
        first = make_engine(false);
    }
    const double setup_s = disk->setup_s + seconds_since(construct0);
    log_setup(*disk, setup_s);
    if (tr != nullptr) {
        disk->timed->set_caller(std::this_thread::get_id());
    }
    std::fprintf(stderr,
                 "oocore-deepwalk: V=%u E=%llu file=%llu B budget=%llu B "
                 "blocks=%u walkers=%llu\n",
                 V, static_cast<unsigned long long>(g.num_edges()),
                 static_cast<unsigned long long>(disk->file->file_bytes()),
                 static_cast<unsigned long long>(budget),
                 disk->partition->num_blocks(),
                 static_cast<unsigned long long>(total));

    auto m = measure<CorpusWalk>(opts, std::move(first), make_engine, *disk,
                                 tr, total, [&] {
                                     return std::make_unique<CorpusWalk>(
                                         V, total);
                                 });
    report.attempted = m.rounds.size() * total;

    {
        ScopedSpan span(tr, "oracle.check", "check");
        const WalkRecords &rec = m.last_app->records;
        check_common(report, m.rounds, rec, g, total, budget);

        const auto counts = start_counts(
            g, total, [&](std::uint64_t n) { return n % V; });
        const oracle::WalkMoments mom = oracle::walk_moments(g, counts, kLength);
        const double steps = static_cast<double>(m.rounds[0].stats.steps);
        const double z =
            (steps - mom.steps) / std::sqrt(mom.steps_variance_bound());
        char buf[200];
        std::snprintf(buf, sizeof(buf),
                      "total steps %.0f vs exact expectation %.1f: z = %.2f "
                      "(bound %.0f); %.1f %% of walks stop early at a dead "
                      "end",
                      steps, mom.steps, z, kZBound,
                      100.0 * (1.0 - mom.full_length / mom.walkers));
        report.check(std::fabs(z) <= kZBound, buf);

        // Endpoint mass per block of the sampled walkers against the
        // absorbing k-step distribution from their starts; blocks
        // expecting fewer than 5 walkers merge into the next so χ²
        // stays valid.
        const auto &part = *disk->partition;
        const auto sampled_counts =
            start_counts(g, rec.sampled(), [&](std::uint64_t s) {
                return (s * kSampleStride) % V;
            });
        const auto sampled_end =
            oracle::walk_moments(g, sampled_counts, kLength).endpoints;
        std::vector<double> obs_block(part.num_blocks(), 0.0);
        std::vector<double> exp_block(part.num_blocks(), 0.0);
        for (std::uint64_t s = 0; s < rec.sampled(); ++s) {
            obs_block[part.block_of(rec.endpoint(s))] += 1.0;
        }
        for (VertexId v = 0; v < V; ++v) {
            exp_block[part.block_of(v)] += sampled_end[v];
        }
        double chi2 = 0.0, o = 0.0, e = 0.0;
        int bins = 0;
        for (std::uint32_t b = 0; b < part.num_blocks(); ++b) {
            o += obs_block[b];
            e += exp_block[b];
            if (e >= 5.0 || b + 1 == part.num_blocks()) {
                chi2 += (o - e) * (o - e) / e;
                ++bins;
                o = e = 0.0;
            }
        }
        const double crit = oracle::chi2_critical(bins - 1, kChi2Alpha);
        std::snprintf(buf, sizeof(buf),
                      "endpoint mass of %llu sampled walkers over %d "
                      "blocks: chi2 = %.1f, critical %.1f at alpha %.0e",
                      static_cast<unsigned long long>(rec.sampled()), bins,
                      chi2, crit, kChi2Alpha);
        report.check(chi2 <= crit, buf);
    }

    engine_metrics(report, opts, *disk, setup_s, m.rounds, m.latencies_ms,
                   m.window_s, m.window_cpu_s);
    if (tr != nullptr) {
        write_trace(tracer, opts);
    }
    return report;
}

Report
run_inmem_node2vec(const Options &opts)
{
    // Symmetrized RMAT scale 16 (node2vec's rule reads adjacency as
    // undirected), a budget twice the file, two stepping threads, and
    // p != q so rejection sampling is active.
    constexpr unsigned kScale = 16;
    constexpr std::uint32_t kWalksPerVertex = 8;
    constexpr std::uint64_t kBlockBytes = 256 << 10;
    constexpr double kP = 2.0, kQ = 0.5;

    Report report;
    check_oracle(report);
    Tracer tracer;
    Tracer *tr = opts.trace ? &tracer : nullptr;

    noswalker::graph::RmatParams params;
    params.scale = kScale;
    params.edge_factor = 16;
    params.symmetrize = true;
    params.seed = noswalker::util::derive_stream(opts.seed, 3);
    CsrGraph g;
    {
        ScopedSpan span(tr, "graph.generate", "graph");
        g = noswalker::graph::generate_rmat(params);
    }
    const VertexId V = g.num_vertices();
    const std::uint64_t total = std::uint64_t{V} * kWalksPerVertex;

    auto disk = put_on_disk(g, noswalker::util::derive_stream(opts.seed, 8),
                            opts, kBlockBytes, tr);
    check_conversion(report, *disk);
    const auto construct0 = std::chrono::steady_clock::now();
    const std::uint64_t budget = disk->file->file_bytes() * 2;
    EngineConfig cfg = EngineConfig::full(budget, kBlockBytes);
    cfg.step_threads = 2;
    cfg.seed = noswalker::util::derive_stream(opts.seed, 4);
    using Engine = NosWalkerEngine<RecordingNode2Vec>;
    const auto make_engine = [&](bool traced) {
        return traced ? std::make_unique<Engine>(*disk->traced_file,
                                                 *disk->traced_partition, cfg)
                      : std::make_unique<Engine>(*disk->file,
                                                 *disk->partition, cfg);
    };
    std::unique_ptr<Engine> first;
    {
        ScopedSpan span(tr, "engine.construct", "engine");
        first = make_engine(false);
    }
    const double setup_s = disk->setup_s + seconds_since(construct0);
    log_setup(*disk, setup_s);
    if (tr != nullptr) {
        disk->timed->set_caller(std::this_thread::get_id());
    }
    std::fprintf(stderr,
                 "inmem-node2vec: V=%u E=%llu file=%llu B budget=%llu B "
                 "blocks=%u walkers=%llu\n",
                 V, static_cast<unsigned long long>(g.num_edges()),
                 static_cast<unsigned long long>(disk->file->file_bytes()),
                 static_cast<unsigned long long>(budget),
                 disk->partition->num_blocks(),
                 static_cast<unsigned long long>(total));

    auto m = measure<RecordingNode2Vec>(
        opts, std::move(first), make_engine, *disk, tr, total, [&] {
            return std::make_unique<RecordingNode2Vec>(kP, kQ, V,
                                                       kWalksPerVertex);
        });
    report.attempted = m.rounds.size() * total;

    {
        ScopedSpan span(tr, "oracle.check", "check");
        const WalkRecords &rec = m.last_app->records;
        check_common(report, m.rounds, rec, g, total, budget);

        // On a symmetric graph only walkers starting on isolated
        // vertices stop early; every other walker takes kLength steps.
        std::uint64_t isolated = 0;
        for (std::uint64_t n = 0; n < total; ++n) {
            isolated += g.degree(static_cast<VertexId>(
                            (n / kWalksPerVertex) % V)) == 0
                            ? 1
                            : 0;
        }
        const std::uint64_t want = (total - isolated) * kLength;
        report.check(m.rounds[0].stats.steps == want,
                     "steps " + std::to_string(m.rounds[0].stats.steps) +
                         " == (walkers - isolated starts) x length = " +
                         std::to_string(want));

        // Returns to the previous vertex on the sampled walks against
        // the exact per-(previous, current) return probability.
        std::unordered_map<std::uint64_t, double> cache;
        double expect = 0.0, var = 0.0, seen = 0.0, triples = 0.0;
        for (std::uint64_t s = 0; s < rec.sampled(); ++s) {
            const std::uint32_t k = rec.steps_of(s);
            for (std::uint32_t j = 1; j < k; ++j) {
                const VertexId u = rec.path_at(s, j - 1);
                const VertexId v = rec.path_at(s, j);
                const std::uint64_t key = (std::uint64_t{u} << 32) | v;
                auto it = cache.find(key);
                if (it == cache.end()) {
                    it = cache.emplace(key,
                                       oracle::node2vec_return_probability(
                                           g, u, v, kP, kQ))
                             .first;
                }
                const double p = it->second;
                expect += p;
                var += p * (1.0 - p);
                seen += rec.path_at(s, j + 1) == u ? 1.0 : 0.0;
                triples += 1.0;
            }
        }
        const double z = (seen - expect) / std::sqrt(var);
        char buf[200];
        std::snprintf(buf, sizeof(buf),
                      "returns to the previous vertex: %.0f of %.0f sampled "
                      "steps vs expected %.1f: z = %.2f (bound %.0f)",
                      seen, triples, expect, z, kZBound);
        report.check(std::fabs(z) <= kZBound, buf);
    }

    engine_metrics(report, opts, *disk, setup_s, m.rounds, m.latencies_ms,
                   m.window_s, m.window_cpu_s);
    if (tr != nullptr) {
        write_trace(tracer, opts);
    }
    return report;
}

Report
run_oocore_baselines(const Options &opts)
{
    using noswalker::apps::BasicRandomWalk;
    Report report;
    const CsrGraph g = oocore_graph(opts.seed, nullptr);
    auto disk =
        put_on_disk(g, noswalker::util::derive_stream(opts.seed, 7), opts,
                    kOocoreBlockBytes, nullptr);
    const std::uint64_t budget = disk->file->file_bytes() / 4;
    const std::uint64_t total =
        std::uint64_t{g.num_vertices()} * kOocoreWalksPerVertex;
    const auto per_step = [](const RunStats &s) {
        return ratio(static_cast<double>(s.total_io_bytes()),
                     static_cast<double>(s.steps));
    };

    BasicRandomWalk gw_app(kLength, g.num_vertices(), false);
    noswalker::baselines::GraphWalkerEngine<BasicRandomWalk> graphwalker(
        *disk->file, *disk->partition, budget);
    const RunStats gw = graphwalker.run(gw_app, total);
    report.put("graphwalker.io_bytes_per_step", per_step(gw), "B/step");
    report.put("graphwalker.graph_bytes_per_step",
               ratio(static_cast<double>(gw.graph_bytes_read),
                     static_cast<double>(gw.steps)),
               "B/step");

    // DrunkardMob keeps every walker state in memory, which the
    // oocore budget cannot hold; it runs with the walker array added.
    BasicRandomWalk dm_app(kLength, g.num_vertices(), false);
    const std::uint64_t dm_budget =
        budget + total * sizeof(BasicRandomWalk::WalkerT);
    noswalker::baselines::DrunkardMobEngine<BasicRandomWalk> drunkardmob(
        *disk->file, *disk->partition, dm_budget);
    const RunStats dm = drunkardmob.run(dm_app, total);
    report.put("drunkardmob.io_bytes_per_step", per_step(dm), "B/step");
    report.put("drunkardmob.budget_bytes", static_cast<double>(dm_budget),
               "B");
    report.attempted = 2;
    return report;
}

} // namespace walkbench
