/**
 * @file
 * walkbench: one command that sets up a workload from a seed, measures
 * it for a fixed time, checks its outputs against the exact oracle and
 * prints every metric by name.  See walkbench/README.md.
 *
 *   walkbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--out <dir>]
 *
 * The last line of standard output is the JSON result; diagnostics go
 * to standard error.
 */
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "walkbench: %s\nusage: walkbench --workload "
                 "oocore-deepwalk|inmem-node2vec|service-ppr --seed <n> "
                 "--seconds <s> --trace <0|1> [--out <dir>]\n",
                 why);
    std::exit(2);
}

walkbench::Options
parse(int argc, char **argv)
{
    walkbench::Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            usage(("missing value for " + flag).c_str());
        }
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                opts.workload = value;
            } else if (flag == "--seed") {
                opts.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                opts.seconds = std::stod(value);
            } else if (flag == "--trace") {
                opts.trace = std::stoi(value) != 0;
            } else if (flag == "--out") {
                opts.out_dir = value;
            } else {
                usage(("unknown flag " + flag).c_str());
            }
        } catch (const std::logic_error &) {
            usage(("bad value for " + flag).c_str());
        }
    }
    if (opts.seconds <= 0.0) {
        usage("--seconds must be positive");
    }
    return opts;
}

} // namespace

int
main(int argc, char **argv)
{
    const walkbench::Options opts = parse(argc, argv);
    walkbench::Report report;
    try {
        if (opts.workload == "oocore-deepwalk") {
            report = walkbench::run_oocore_deepwalk(opts);
        } else if (opts.workload == "inmem-node2vec") {
            report = walkbench::run_inmem_node2vec(opts);
        } else if (opts.workload == "service-ppr") {
            report = walkbench::run_service_ppr(opts);
        } else if (opts.workload == "oocore-baselines") {
            report = walkbench::run_oocore_baselines(opts);
        } else {
            usage(("unknown workload '" + opts.workload + "'").c_str());
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "walkbench: %s\n", e.what());
        return 1;
    }
    std::printf("%s\n", report.json().c_str());
    return 0;
}
