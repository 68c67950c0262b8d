#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "graph/builder.hpp"
#include "oracle.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace walkbench {

using noswalker::graph::BlockPartition;
using noswalker::graph::CsrGraph;
using noswalker::graph::Edge;
using noswalker::graph::GraphFile;
using noswalker::storage::FileDevice;

DiskGraph::~DiskGraph()
{
    if (!path.empty()) {
        std::remove(path.c_str());
    }
}

std::unique_ptr<DiskGraph>
put_on_disk(const CsrGraph &g, std::uint64_t edge_seed, const Options &opts,
            std::uint64_t block_bytes, Tracer *tracer)
{
    std::filesystem::create_directories(opts.out_dir);
    auto disk = std::make_unique<DiskGraph>();
    // The pid keeps concurrent invocations off each other's files.
    disk->path = opts.out_dir + "/graph-" + opts.workload + "-" +
                 std::to_string(::getpid()) + ".bin";
    std::remove(disk->path.c_str());

    // The raw input: every edge of g in a seeded random order.
    std::vector<Edge> edges;
    edges.reserve(g.num_edges());
    for (noswalker::graph::VertexId v = 0; v < g.num_vertices(); ++v) {
        for (const auto t : g.neighbors(v)) {
            edges.push_back(Edge{v, t, 1.0f});
        }
    }
    noswalker::util::Rng rng(edge_seed);
    for (std::size_t i = edges.size(); i > 1; --i) {
        std::swap(edges[i - 1], edges[rng.next_index(i)]);
    }

    auto t0 = std::chrono::steady_clock::now();
    CsrGraph built;
    {
        ScopedSpan span(tracer, "graph.build", "graph");
        noswalker::graph::BuildOptions options;
        options.num_vertices = g.num_vertices();
        built = noswalker::graph::build_csr(std::move(edges), options);
    }
    disk->build_s = seconds_since(t0);

    t0 = std::chrono::steady_clock::now();
    {
        ScopedSpan span(tracer, "graph.write", "graph");
        disk->file_device = std::make_unique<FileDevice>(disk->path);
        GraphFile::write(built, *disk->file_device);
    }
    disk->write_s = seconds_since(t0);

    t0 = std::chrono::steady_clock::now();
    {
        ScopedSpan span(tracer, "graph.open", "graph");
        disk->file = std::make_unique<GraphFile>(*disk->file_device);
    }
    disk->open_s = seconds_since(t0);

    t0 = std::chrono::steady_clock::now();
    {
        ScopedSpan span(tracer, "graph.partition", "graph");
        disk->partition =
            std::make_unique<BlockPartition>(*disk->file, block_bytes);
    }
    disk->partition_s = seconds_since(t0);
    disk->setup_s =
        disk->build_s + disk->write_s + disk->open_s + disk->partition_s;
    disk->converted_ok =
        built.offsets() == g.offsets() && built.targets() == g.targets();

    if (tracer != nullptr) {
        disk->timed = std::make_unique<TimedDevice>(*disk->file_device, tracer);
        disk->traced_file = std::make_unique<GraphFile>(*disk->timed);
        disk->traced_partition =
            std::make_unique<BlockPartition>(*disk->traced_file, block_bytes);
    }
    return disk;
}

void
log_setup(const DiskGraph &disk, double setup_s)
{
    std::fprintf(stderr,
                 "setup: %.4f s (build %.4f, write %.4f, open %.4f, "
                 "partition %.4f, construct %.4f)\n",
                 setup_s, disk.build_s, disk.write_s, disk.open_s,
                 disk.partition_s, setup_s - disk.setup_s);
}

void
check_conversion(Report &report, const DiskGraph &disk)
{
    report.check(disk.converted_ok,
                 "the CSR converted from the shuffled edge list equals the "
                 "generated graph");
}

void
put_run_stats(Report &report, const noswalker::engine::RunStats &s)
{
    const double steps = static_cast<double>(s.steps);
    report.put("storage.modeled_busy_s", s.io_busy_seconds, "s");
    report.put("storage.modeled_wait_s", s.io_wait_seconds, "s");

    report.put("core.blocks_loaded", static_cast<double>(s.blocks_loaded),
               "count");
    report.put("core.fine_loads", static_cast<double>(s.fine_loads), "count");
    report.put("core.edges_per_step", s.edges_per_step(), "edges/step");
    report.put("core.stalls_per_step",
               ratio(static_cast<double>(s.stalls), steps), "1/step");
    report.put("core.presample_step_share",
               ratio(static_cast<double>(s.presample_steps),
                     static_cast<double>(s.presample_steps + s.block_steps)),
               "1");
    report.put("core.prefetch_useful_ratio",
               ratio(static_cast<double>(s.prefetch_hits),
                     static_cast<double>(s.prefetch_hits +
                                         s.prefetch_mispredicts)),
               "1");
    report.put("core.planned_loads", static_cast<double>(s.planned_loads),
               "count");
    report.put("core.kernel_cohorts", static_cast<double>(s.kernel_cohorts),
               "count");
    report.put("core.kernel_scalar_fallbacks",
               static_cast<double>(s.kernel_scalar_fallbacks), "count");

    report.put("apps.rejection_trials_per_step",
               ratio(static_cast<double>(s.rejection_trials), steps), "1/step");
    report.put("apps.rejection_ratio",
               ratio(static_cast<double>(s.rejection_rejected),
                     static_cast<double>(s.rejection_trials)),
               "1");

    report.put("engine.peak_budget_bytes", static_cast<double>(s.peak_memory),
               "B");
    report.put("engine.swap_bytes", static_cast<double>(s.swap_bytes), "B");
}

void
check_oracle(Report &report)
{
    const std::string why = oracle::self_test();
    report.check(why.empty(), "oracle self-test on cycle, star, complete "
                              "and dead-end graphs" +
                                  (why.empty() ? "" : ": " + why));
}

void
write_trace(const Tracer &tracer, const Options &opts)
{
    const std::string path =
        opts.out_dir + "/trace-" + opts.workload + ".json";
    tracer.write_chrome(path);
    std::fprintf(stderr, "trace: %llu spans, written to %s\n",
                 static_cast<unsigned long long>(tracer.recorded()),
                 path.c_str());
}

} // namespace walkbench
