/**
 * @file
 * The service workload: two closed-loop clients, each sending its next
 * single-source top-k visit-count query to a WalkService only after the
 * previous reply arrived.
 */
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "oracle.hpp"
#include "service/walk_service.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace walkbench {

namespace {

using noswalker::engine::RunStats;
using noswalker::graph::CsrGraph;
using noswalker::graph::VertexId;
using noswalker::service::ServiceConfig;
using noswalker::service::WalkKind;
using noswalker::service::WalkRequest;
using noswalker::service::WalkResult;
using noswalker::service::WalkService;

constexpr unsigned kClients = 2;
constexpr std::uint32_t kWalks = 2000;
constexpr std::uint32_t kLength = 10;
constexpr std::uint32_t kTopK = 16;
/** Replies per client checked against the oracle (each costs one
 *  exact propagation over the whole graph). */
constexpr std::size_t kCheckedPerClient = 8;
constexpr double kZBound = 5.0;
/** Request-latency tail, printed to stderr but not gated (see the
 *  README): a 30-second run collects 1 000-1 400 replies, so p99 has
 *  10-14 samples beyond it. */
constexpr double kTailQuantile = 0.99;

/** One reply as the client saw it. */
struct Reply {
    VertexId source = 0;
    double latency_s = 0.0;
    WalkResult result;
};

/** What one measured phase produced. */
struct Phase {
    std::vector<std::vector<Reply>> replies; ///< per client
    WalkService::Counters counters;
    RunStats aggregate;
    double window_s = 0.0;
    double window_cpu_s = 0.0;
    TimedDevice::Totals reads;
    double setup_s = 0.0;
};

ServiceConfig
service_config(std::uint64_t file_bytes, std::uint64_t block_bytes)
{
    ServiceConfig cfg;
    cfg.num_workers = 2;
    cfg.step_threads = 1;
    cfg.block_bytes = block_bytes;
    cfg.cache_bytes = file_bytes / 4;
    cfg.memory_budget = file_bytes;
    return cfg;
}

/**
 * Start a service over @p file, run the closed loop for @p seconds and
 * stop it.  Each client draws its sources from its own stream of
 * @p seed, uniformly over vertices with out-edges.
 */
Phase
serve(const noswalker::graph::GraphFile &file,
      const noswalker::graph::BlockPartition &partition, std::uint64_t seed,
      const std::vector<VertexId> &sources, double seconds, Tracer *tracer,
      TimedDevice *timed)
{
    Phase phase;
    const auto setup0 = std::chrono::steady_clock::now();
    std::unique_ptr<WalkService> service;
    {
        ScopedSpan span(tracer, "service.construct", "service");
        service = std::make_unique<WalkService>(
            file, partition,
            service_config(file.file_bytes(), partition.target_block_bytes()));
    }
    phase.setup_s = seconds_since(setup0);
    if (timed != nullptr) {
        timed->reset_totals();
    }

    phase.replies.resize(kClients);
    const auto start = std::chrono::steady_clock::now();
    const double cpu0 = process_cpu_seconds();
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            noswalker::util::Rng rng(noswalker::util::derive_stream(seed, c));
            std::uint64_t n = 0;
            while (seconds_since(start) < seconds) {
                WalkRequest req;
                req.kind = WalkKind::kVisitCounts;
                req.starts = {sources[rng.next_index(sources.size())]};
                req.walks_per_start = kWalks;
                req.length = kLength;
                req.top_k = kTopK;
                req.seed = noswalker::util::derive_stream(seed + c + 1, n++);
                req.tenant = c;
                Reply reply;
                reply.source = req.starts[0];
                ScopedSpan span(tracer, "service.request", "service");
                const auto t0 = std::chrono::steady_clock::now();
                auto ticket = service->submit(std::move(req));
                reply.result = ticket.get();
                reply.latency_s = seconds_since(t0);
                phase.replies[c].push_back(std::move(reply));
            }
        });
    }
    for (auto &t : clients) {
        t.join();
    }
    phase.window_s = seconds_since(start);
    phase.window_cpu_s = process_cpu_seconds() - cpu0;
    service->stop();
    phase.counters = service->counters();
    phase.aggregate = service->aggregate_stats();
    if (timed != nullptr) {
        phase.reads = timed->totals();
    }
    return phase;
}

/** Values of @p f over the replies that ended kOk. */
template <typename F>
std::vector<double>
over_ok(const Phase &phase, F f)
{
    std::vector<double> out;
    for (const auto &client : phase.replies) {
        for (const Reply &r : client) {
            if (r.result.ok()) {
                out.push_back(f(r));
            }
        }
    }
    return out;
}

/** Check every reply's status and the first kCheckedPerClient replies
 *  of each client against the oracle. */
void
check_replies(Report &report, const Phase &phase, const CsrGraph &g)
{
    std::uint64_t total = 0, ok = 0;
    for (const auto &client : phase.replies) {
        for (const Reply &r : client) {
            ++total;
            ok += r.result.ok() ? 1 : 0;
        }
    }
    report.attempted += total;
    report.failed += total - ok;
    report.check(ok == total && phase.counters.completed == ok &&
                     phase.counters.submitted == total,
                 std::to_string(ok) + " of " + std::to_string(total) +
                     " requests ended kOk (service counted " +
                     std::to_string(phase.counters.completed) + " of " +
                     std::to_string(phase.counters.submitted) + ")");

    std::uint64_t checked = 0, far = 0, off = 0, unordered = 0, entries = 0;
    double worst_z = 0.0;
    for (const auto &client : phase.replies) {
        for (std::size_t i = 0; i < client.size() && i < kCheckedPerClient;
             ++i) {
            const Reply &r = client[i];
            if (!r.result.ok()) {
                continue;
            }
            ++checked;
            const auto hops = oracle::hops_within(g, r.source, kLength);
            const auto visits = oracle::expected_visits(g, r.source, kLength);
            const auto &top = r.result.top_visits;
            for (std::size_t k = 0; k < top.size(); ++k) {
                const auto [v, count] = top[k];
                ++entries;
                far += hops[v] > kLength ? 1 : 0;
                unordered +=
                    k > 0 && top[k - 1].second < count ? 1 : 0;
                // Visits of one walk to v lie in [0, L], so their
                // variance is at most L times their mean.
                const double mean = kWalks * visits[v];
                const double sd = std::sqrt(kWalks * kLength * visits[v]);
                const double z =
                    (static_cast<double>(count) - mean) / std::max(sd, 1e-12);
                worst_z = std::max(worst_z, std::fabs(z));
                off += std::fabs(static_cast<double>(count) - mean) >
                               kZBound * sd + 1.0
                           ? 1
                           : 0;
            }
        }
    }
    report.check(far == 0, "every returned vertex of " +
                               std::to_string(checked) +
                               " checked replies lies within " +
                               std::to_string(kLength) + " hops of its start (" +
                               std::to_string(far) + " do not)");
    report.check(unordered == 0, "returned top-k lists are ordered by count");
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "%llu returned top-k counts match the oracle's expected "
                  "visits: worst |z| = %.2f, %llu beyond %.0f sd + 1",
                  static_cast<unsigned long long>(entries), worst_z,
                  static_cast<unsigned long long>(off), kZBound);
    report.check(entries > 0 && off == 0, buf);
}

} // namespace

Report
run_service_ppr(const Options &opts)
{
    // The same RMAT scale-18 regime as oocore-deepwalk: the shared
    // budget equals the file and the shared cache holds a quarter of it.
    constexpr unsigned kScale = 18;
    constexpr std::uint64_t kBlockBytes = 256 << 10;

    Report report;
    check_oracle(report);
    Tracer tracer;
    Tracer *tr = opts.trace ? &tracer : nullptr;

    noswalker::graph::RmatParams params;
    params.scale = kScale;
    params.edge_factor = 16;
    params.seed = noswalker::util::derive_stream(opts.seed, 5);
    CsrGraph g;
    {
        ScopedSpan span(tr, "graph.generate", "graph");
        g = noswalker::graph::generate_rmat(params);
    }
    std::vector<VertexId> sources;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
        if (g.degree(v) > 0) {
            sources.push_back(v);
        }
    }
    const std::uint64_t client_seed = noswalker::util::derive_stream(opts.seed, 6);

    auto disk = put_on_disk(g, noswalker::util::derive_stream(opts.seed, 9),
                            opts, kBlockBytes, tr);
    check_conversion(report, *disk);
    std::fprintf(stderr,
                 "service-ppr: V=%u E=%llu file=%llu B budget=%llu B "
                 "cache=%llu B blocks=%u\n",
                 g.num_vertices(),
                 static_cast<unsigned long long>(g.num_edges()),
                 static_cast<unsigned long long>(disk->file->file_bytes()),
                 static_cast<unsigned long long>(disk->file->file_bytes()),
                 static_cast<unsigned long long>(disk->file->file_bytes() / 4),
                 disk->partition->num_blocks());

    // A traced invocation serves half its time untraced and half
    // through the timing device, so the overhead is measured in the
    // same process; the per-layer figures come from the traced half.
    const double untraced_seconds = opts.trace ? opts.seconds / 2 : opts.seconds;
    Phase plain = serve(*disk->file, *disk->partition, client_seed, sources,
                        untraced_seconds, nullptr, nullptr);
    const double setup_s = disk->setup_s + plain.setup_s;
    log_setup(*disk, setup_s);
    check_replies(report, plain, g);

    const auto walk_s = [](const Phase &p) {
        return median(over_ok(p, [](const Reply &r) {
            return r.result.run_seconds;
        }));
    };

    if (!opts.trace) {
        const auto latency_ms =
            over_ok(plain, [](const Reply &r) { return r.latency_s * 1e3; });
        double steps = 0.0;
        for (const double s : over_ok(plain, [](const Reply &r) {
                 return static_cast<double>(r.result.stats.steps);
             })) {
            steps += s;
        }
        report.put("setup_s", setup_s, "s");
        report.put("walk_s", walk_s(plain), "s");
        report.put("steps_per_s", steps / plain.window_s, "steps/s");
        report.put("modeled_s", median(over_ok(plain, [](const Reply &r) {
                       return r.result.modeled_latency_seconds;
                   })),
                   "s");
        report.put("io_bytes_per_step",
                   ratio(static_cast<double>(plain.aggregate.graph_bytes_read),
                         static_cast<double>(plain.aggregate.steps)),
                   "B/step");
        report.put("requests_per_s",
                   static_cast<double>(latency_ms.size()) / plain.window_s,
                   "req/s");
        report.put("latency_p50_ms", median(latency_ms), "ms");
        std::fprintf(stderr, "latency: %zu replies, p%.0f = %.1f ms\n",
                     latency_ms.size(), kTailQuantile * 100.0,
                     quantile(latency_ms, kTailQuantile));
        return report;
    }

    Phase traced = serve(*disk->traced_file, *disk->traced_partition,
                         client_seed, sources, opts.seconds / 2, tr,
                         disk->timed.get());
    check_replies(report, traced, g);
    const RunStats &s = traced.aggregate;
    double batch_wall = 0.0;
    for (const double w : over_ok(traced, [](const Reply &r) {
             return r.result.run_seconds / r.result.batch_size;
         })) {
        batch_wall += w;
    }

    report.put("graph.build_s", disk->build_s, "s");
    report.put("graph.write_s", disk->write_s, "s");
    report.put("graph.open_s", disk->open_s, "s");
    report.put("graph.partition_s", disk->partition_s, "s");

    report.put("storage.read_calls", static_cast<double>(traced.reads.calls),
               "count");
    report.put("storage.read_bytes", static_cast<double>(traced.reads.bytes),
               "B");
    report.put("storage.mean_read_bytes",
               ratio(static_cast<double>(traced.reads.bytes),
                     static_cast<double>(traced.reads.calls)),
               "B");
    report.put("storage.read_s", traced.reads.seconds, "s");
    report.put("storage.blocking_read_s", batch_wall - s.cpu_seconds, "s");
    report.put("storage.background_read_s",
               traced.reads.seconds - traced.reads.caller_seconds, "s");
    put_run_stats(report, s);
    report.put("core.cpu_s", s.cpu_seconds, "s");

    const double completed = static_cast<double>(traced.counters.completed);
    report.put("service.queue_wait_ms",
               median(over_ok(traced, [](const Reply &r) {
                   return r.result.wait_seconds * 1e3;
               })),
               "ms");
    report.put("service.run_ms",
               median(over_ok(traced, [](const Reply &r) {
                   return r.result.run_seconds * 1e3;
               })),
               "ms");
    report.put("service.batches", static_cast<double>(traced.counters.batches),
               "count");
    report.put("service.mean_batch_size",
               ratio(completed, static_cast<double>(traced.counters.batches)),
               "1");
    report.put("service.cache_hit_ratio",
               ratio(static_cast<double>(traced.counters.cache_hits),
                     static_cast<double>(traced.counters.cache_hits +
                                         traced.counters.cache_misses)),
               "1");
    report.put("service.budget_peak_bytes",
               static_cast<double>(traced.counters.budget_peak), "B");

    report.put("process.rss_peak_bytes", process_rss_peak_bytes(), "B");
    report.put("process.cpu_s", traced.window_cpu_s, "s");
    report.put("process.cpu_per_wall",
               ratio(traced.window_cpu_s, traced.window_s), "1");
    report.put("trace.overhead_s", walk_s(traced) - walk_s(plain), "s");

    write_trace(tracer, opts);
    return report;
}

} // namespace walkbench
