/**
 * @file
 * The benchmark's result record and the order statistics it reports.
 */
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace walkbench {

/** What one invocation prints as its last line. */
struct Report {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** (name, value, unit) in print order. */
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;

    void
    put(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, {value, unit}});
    }

    /** Record an output check with its evidence on stderr; a failed
     *  one makes the run incorrect. */
    void
    check(bool ok, const std::string &what)
    {
        correct = correct && ok;
        std::fprintf(stderr, "%s: %s\n", ok ? "check ok" : "CHECK FAILED",
                     what.c_str());
    }

    std::string
    json() const
    {
        std::string out = "{\"correct\": ";
        out += correct ? "true" : "false";
        out += ", \"attempted\": " + std::to_string(attempted);
        out += ", \"failed\": " + std::to_string(failed);
        out += ", \"metrics\": {";
        bool first = true;
        char buf[64];
        for (const auto &[name, vu] : metrics) {
            out += first ? "" : ", ";
            first = false;
            // %.17g keeps every digit the double holds; non-finite
            // values are not JSON, so they print as null.
            if (std::isfinite(vu.first)) {
                std::snprintf(buf, sizeof(buf), "%.17g", vu.first);
            } else {
                std::snprintf(buf, sizeof(buf), "null");
            }
            out += "\"" + name + "\": {\"value\": " + buf +
                   ", \"unit\": \"" + vu.second + "\"}";
        }
        out += "}}";
        return out;
    }
};

/** Linear-interpolated quantile @p q in [0, 1] (0 for no samples). */
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

} // namespace walkbench
