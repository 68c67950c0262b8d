#include "oracle.hpp"

#include <cmath>
#include <cstdio>
#include <deque>

#include "graph/generators.hpp"

namespace walkbench::oracle {

std::vector<double>
step(const CsrGraph &g, const std::vector<double> &in)
{
    std::vector<double> out(g.num_vertices(), 0.0);
    for (VertexId x = 0; x < g.num_vertices(); ++x) {
        const std::uint32_t deg = g.degree(x);
        if (in[x] == 0.0 || deg == 0) {
            continue;
        }
        const double share = in[x] / deg;
        for (const VertexId y : g.neighbors(x)) {
            out[y] += share;
        }
    }
    return out;
}

WalkMoments
walk_moments(const CsrGraph &g, const std::vector<double> &start_counts,
             std::uint32_t length)
{
    WalkMoments m;
    m.endpoints.assign(g.num_vertices(), 0.0);
    std::vector<double> q = start_counts;
    for (const double c : q) {
        m.walkers += c;
    }
    // A walker takes step j + 1 exactly when it is still moving at
    // time j and stands on a vertex with out-edges.  Those events are
    // nested, so P(steps > j) = a_j and E[steps²] = Σ (2j + 1) a_j.
    for (std::uint32_t j = 0; j < length; ++j) {
        double moving = 0.0;
        for (VertexId v = 0; v < g.num_vertices(); ++v) {
            if (g.degree(v) > 0) {
                moving += q[v];
            } else {
                m.endpoints[v] += q[v];
            }
        }
        m.steps += moving;
        m.steps_sq += (2.0 * j + 1.0) * moving;
        m.full_length = moving;
        q = step(g, q);
    }
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
        m.endpoints[v] += q[v];
    }
    return m;
}

std::vector<double>
expected_visits(const CsrGraph &g, VertexId source, std::uint32_t length)
{
    std::vector<double> q(g.num_vertices(), 0.0);
    std::vector<double> visits(g.num_vertices(), 0.0);
    q[source] = 1.0;
    for (std::uint32_t j = 0; j < length; ++j) {
        q = step(g, q);
        for (VertexId v = 0; v < g.num_vertices(); ++v) {
            visits[v] += q[v];
        }
    }
    return visits;
}

std::vector<std::uint8_t>
hops_within(const CsrGraph &g, VertexId source, std::uint8_t max_hops)
{
    const auto unreached = static_cast<std::uint8_t>(max_hops + 1);
    std::vector<std::uint8_t> hops(g.num_vertices(), unreached);
    std::deque<VertexId> frontier{source};
    hops[source] = 0;
    while (!frontier.empty()) {
        const VertexId x = frontier.front();
        frontier.pop_front();
        if (hops[x] == max_hops) {
            continue;
        }
        for (const VertexId y : g.neighbors(x)) {
            if (hops[y] == unreached) {
                hops[y] = static_cast<std::uint8_t>(hops[x] + 1);
                frontier.push_back(y);
            }
        }
    }
    return hops;
}

double
node2vec_return_probability(const CsrGraph &g, VertexId u, VertexId v,
                            double p, double q)
{
    double back = 0.0;
    double total = 0.0;
    for (const VertexId x : g.neighbors(v)) {
        double w;
        if (x == u) {
            w = 1.0 / p;
            back += w;
        } else if (g.has_edge(x, u)) {
            w = 1.0;
        } else {
            w = 1.0 / q;
        }
        total += w;
    }
    return total > 0.0 ? back / total : 0.0;
}

double
chi2_critical(double df, double alpha)
{
    // Upper normal quantile by bisection on the tail probability.
    double lo = 0.0, hi = 40.0;
    for (int i = 0; i < 200; ++i) {
        const double mid = 0.5 * (lo + hi);
        if (0.5 * std::erfc(mid / std::sqrt(2.0)) > alpha) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    const double z = 0.5 * (lo + hi);
    const double c = 2.0 / (9.0 * df);
    return df * std::pow(1.0 - c + z * std::sqrt(c), 3.0);
}

namespace {

bool
near(double a, double b, double tol = 1e-9)
{
    return std::fabs(a - b) <= tol * std::max(1.0, std::fabs(b));
}

std::string
fail(const char *what, double got, double want)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s: got %.12g, want %.12g", what, got,
                  want);
    return buf;
}

std::vector<double>
point(const CsrGraph &g, VertexId v)
{
    std::vector<double> d(g.num_vertices(), 0.0);
    d[v] = 1.0;
    return d;
}

} // namespace

std::string
self_test()
{
    using noswalker::graph::generate_complete;
    using noswalker::graph::generate_cycle;
    using noswalker::graph::generate_star;

    // Directed 5-cycle: a walk of 7 steps from 0 ends at 2 and enters
    // 1 and 2 twice, 3, 4 and 0 once.
    const CsrGraph cycle = generate_cycle(5);
    WalkMoments m = walk_moments(cycle, point(cycle, 0), 7);
    if (!near(m.endpoints[2], 1.0)) {
        return fail("cycle endpoint", m.endpoints[2], 1.0);
    }
    if (!near(m.steps, 7.0) || !near(m.steps_sq, 49.0) ||
        !near(m.full_length, 1.0)) {
        return fail("cycle steps", m.steps, 7.0);
    }
    const std::vector<double> want_cycle{1, 2, 2, 1, 1};
    const auto cv = expected_visits(cycle, 0, 7);
    for (VertexId v = 0; v < 5; ++v) {
        if (!near(cv[v], want_cycle[v])) {
            return fail("cycle visits", cv[v], want_cycle[v]);
        }
    }
    if (hops_within(cycle, 0, 10)[3] != 3 || hops_within(cycle, 0, 2)[3] != 3) {
        return "cycle hops";
    }

    // Star on 6 vertices: from the hub, one step lands on each leaf
    // with 1/5, the second step returns to the hub.
    const CsrGraph star = generate_star(6);
    if (!near(step(star, point(star, 0))[3], 0.2)) {
        return fail("star step", step(star, point(star, 0))[3], 0.2);
    }
    m = walk_moments(star, point(star, 0), 2);
    if (!near(m.endpoints[0], 1.0)) {
        return fail("star endpoint", m.endpoints[0], 1.0);
    }
    const auto sv = expected_visits(star, 0, 3);
    if (!near(sv[0], 1.0) || !near(sv[4], 0.4)) {
        return fail("star visits", sv[4], 0.4);
    }

    // Complete graph K4: P(at start after k steps) =
    // (1 + 3 (-1/3)^k) / 4, which is 2/9 for k = 3.
    const CsrGraph k4 = generate_complete(4);
    m = walk_moments(k4, point(k4, 0), 3);
    if (!near(m.endpoints[0], 2.0 / 9.0) || !near(m.endpoints[1], 7.0 / 27.0)) {
        return fail("complete endpoint", m.endpoints[0], 2.0 / 9.0);
    }

    // Dead end: 0 -> 1 and 1 has no out-edges.  One walker from each
    // vertex: steps are 1 and 0, so the expectation is 1, E[Σ s²] = 1
    // and the variance bound is 1 - 1/2.
    const CsrGraph dead({0, 1, 1}, {1});
    m = walk_moments(dead, {1.0, 1.0}, 3);
    if (!near(m.steps, 1.0) || !near(m.steps_sq, 1.0) ||
        !near(m.steps_variance_bound(), 0.5) || !near(m.endpoints[1], 2.0) ||
        !near(m.full_length, 0.0)) {
        return fail("dead-end moments", m.steps_variance_bound(), 0.5);
    }
    if (!near(expected_visits(dead, 0, 3)[1], 1.0)) {
        return "dead-end visits";
    }

    // Node2vec return probability with p = 2, q = 0.5: from the star's
    // hub, having come from leaf 1, the other leaves are two hops from
    // 1, so P = (1/2) / (1/2 + 2 + 2) = 1/9; on K4 every other
    // neighbour is adjacent to 1, so P = (1/2) / (1/2 + 1 + 1) = 1/5.
    const CsrGraph star4 = generate_star(4);
    double r = node2vec_return_probability(star4, 1, 0, 2.0, 0.5);
    if (!near(r, 1.0 / 9.0)) {
        return fail("node2vec star", r, 1.0 / 9.0);
    }
    r = node2vec_return_probability(k4, 1, 0, 2.0, 0.5);
    if (!near(r, 0.2)) {
        return fail("node2vec complete", r, 0.2);
    }

    // Tabulated χ² quantiles: 3.841 (df 1, 5 %), 135.8 (df 100, 1 %).
    if (!near(chi2_critical(1, 0.05), 3.841, 0.03) ||
        !near(chi2_critical(100, 0.01), 135.8, 0.01)) {
        return fail("chi2 critical", chi2_critical(100, 0.01), 135.8);
    }
    return {};
}

} // namespace walkbench::oracle
