/**
 * @file
 * Exact-propagation oracle over the benchmark's in-memory copy of the
 * graph.  Every output check of the benchmark compares against it.
 *
 * Walk semantics match the engines: a walker picks a uniform out-edge
 * (parallel edges count separately) and stops at a vertex without
 * out-edges.  "Transient" mass is that of walkers still moving; a
 * stopped walker keeps its vertex, so the absorbing distribution is the
 * transient one plus every mass that stopped on the way.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/csr_graph.hpp"

namespace walkbench::oracle {

using noswalker::graph::CsrGraph;
using noswalker::graph::VertexId;

/** One transient step: walkers at dead ends drop out of @p in. */
std::vector<double> step(const CsrGraph &g, const std::vector<double> &in);

/** Exact k-step statistics of a population of walkers. */
struct WalkMoments {
    /** Expected total steps. */
    double steps = 0.0;
    /** Expected sum over walkers of steps². */
    double steps_sq = 0.0;
    /** Number of walkers. */
    double walkers = 0.0;
    /** Expected walkers that take all k steps. */
    double full_length = 0.0;
    /** Absorbing endpoint mass per vertex after k steps (sums to
     *  walkers). */
    std::vector<double> endpoints;

    /**
     * Upper bound on the variance of the total step count of
     * independent walkers: Σ Var_i = Σ E[s_i²] − Σ E[s_i]² and
     * Σ E[s_i]² ≥ (Σ E[s_i])² / N.
     */
    double
    steps_variance_bound() const
    {
        return steps_sq - steps * steps / walkers;
    }
};

/** Moments of walkers started at @p start_counts[v] walkers per vertex,
 *  each walking at most @p length steps. */
WalkMoments walk_moments(const CsrGraph &g,
                         const std::vector<double> &start_counts,
                         std::uint32_t length);

/** Expected visits per vertex of one walk of at most @p length steps
 *  from @p source, counting the vertex entered by each step. */
std::vector<double> expected_visits(const CsrGraph &g, VertexId source,
                                    std::uint32_t length);

/** Hop distance from @p source to each vertex, capped at @p max_hops
 *  (unreached vertices read max_hops + 1). */
std::vector<std::uint8_t> hops_within(const CsrGraph &g, VertexId source,
                                      std::uint8_t max_hops);

/**
 * Node2vec probability that an accepted step from @p v, having arrived
 * from @p u, returns to @p u: edges to u weigh 1/p, edges to common
 * neighbours of u weigh 1 and all others 1/q (the engine's rule,
 * evaluated on the candidate's adjacency).
 */
double node2vec_return_probability(const CsrGraph &g, VertexId u,
                                   VertexId v, double p, double q);

/** Upper @p alpha critical value of χ² with @p df degrees of freedom
 *  (Wilson–Hilferty). */
double chi2_critical(double df, double alpha);

/**
 * Check the oracle against hand-derived answers on cycle, star,
 * complete and dead-end graphs.
 * @return empty on success, else what disagreed.
 */
std::string self_test();

} // namespace walkbench::oracle
