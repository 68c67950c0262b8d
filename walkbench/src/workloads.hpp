/**
 * @file
 * The three workloads and the set-up they share.
 */
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "engine/run_stats.hpp"
#include "graph/csr_graph.hpp"
#include "graph/graph_file.hpp"
#include "graph/partition.hpp"
#include "report.hpp"
#include "storage/file_device.hpp"
#include "trace.hpp"

namespace walkbench {

/** Command-line options of one invocation. */
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory for the graph file and the trace (created if absent). */
    std::string out_dir = ".bench_out";
};

Report run_oocore_deepwalk(const Options &opts);
Report run_inmem_node2vec(const Options &opts);
Report run_service_ppr(const Options &opts);
/** Reference only: GraphWalker and DrunkardMob on the oocore input. */
Report run_oocore_baselines(const Options &opts);

/** Seconds on a steady clock since @p t0. */
inline double
seconds_since(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/** Nanoseconds since an arbitrary fixed point (walker latency stamps). */
inline std::int64_t
now_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * A graph converted from an edge list to CSR, written to a real file
 * through storage::FileDevice, opened and partitioned, with the time of
 * each phase.  In a traced run it also
 * holds a second view of the same file whose reads go through a
 * TimedDevice.
 */
struct DiskGraph {
    std::string path;
    std::unique_ptr<noswalker::storage::FileDevice> file_device;
    std::unique_ptr<noswalker::graph::GraphFile> file;
    std::unique_ptr<noswalker::graph::BlockPartition> partition;
    double build_s = 0.0;
    double write_s = 0.0;
    double open_s = 0.0;
    double partition_s = 0.0;
    /** build_s + write_s + open_s + partition_s. */
    double setup_s = 0.0;
    /** The CSR built from the edge list equals the reference graph. */
    bool converted_ok = false;

    /** Traced view (null in untraced runs). */
    std::unique_ptr<TimedDevice> timed;
    std::unique_ptr<noswalker::graph::GraphFile> traced_file;
    std::unique_ptr<noswalker::graph::BlockPartition> traced_partition;

    DiskGraph() = default;
    DiskGraph(const DiskGraph &) = delete;
    DiskGraph &operator=(const DiskGraph &) = delete;
    /** Removes the graph file. */
    ~DiskGraph();
};

/**
 * Set up @p g on disk as an out-of-core system would from a raw input:
 * its edges, shuffled by @p edge_seed (untimed), are converted to CSR
 * by graph::build_csr and written to a fresh file under opts.out_dir,
 * which is then opened and partitioned.  Each phase is timed (a span
 * each when @p tracer is set, which also adds the traced view).
 */
std::unique_ptr<DiskGraph> put_on_disk(const noswalker::graph::CsrGraph &g,
                                       std::uint64_t edge_seed,
                                       const Options &opts,
                                       std::uint64_t block_bytes,
                                       Tracer *tracer);

/** Print @p setup_s and its graph phases to standard error. */
void log_setup(const DiskGraph &disk, double setup_s);

/** Process CPU seconds (user + system) so far. */
inline double
process_cpu_seconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
               1e6;
}

/** Peak resident set of the process in bytes. */
inline double
process_rss_peak_bytes()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) * 1024.0;
}

/** @p num / @p den, or 0 when @p den is not positive. */
inline double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * The per-layer metrics that come straight from one RunStats: the
 * modeled storage times and the core, apps and engine counters.  Both
 * the engine workloads (one traced round) and the service (the traced
 * half's aggregate) print them.
 */
void put_run_stats(Report &report, const noswalker::engine::RunStats &s);

/** Oracle self-test, recorded as a check. */
void check_oracle(Report &report);

/** Record that the on-disk conversion reproduced the reference graph. */
void check_conversion(Report &report, const DiskGraph &disk);

/** Write @p tracer's spans to opts.out_dir/trace-<workload>.json. */
void write_trace(const Tracer &tracer, const Options &opts);

} // namespace walkbench
