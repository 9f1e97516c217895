/**
 * @file
 * The traced run: rebuilds one core::runExperiment run from each
 * layer's public constructors, the way core/experiment.cc does, and
 * records a span around every call into a layer, plus time and call
 * counts at the forwarding app, router and client-sink boundaries.
 *
 * Being a copy of the engine, it must reproduce runExperiment's
 * executedEvents, completions and p99 exactly for the same config;
 * main.cc fails the benchmark when it does not.
 */

#ifndef RPCVALET_PERFBENCH_TRACED_HH
#define RPCVALET_PERFBENCH_TRACED_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hh"

namespace rpcvalet::perfbench {

/** One named value with its unit, as printed in the result line. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** One timed call: name, host-time interval (s from trace start) and
 *  the index of the enclosing span (-1 at the root). */
struct Span
{
    const char *name = "";
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
};

/** In-memory span recorder. Single-threaded: spans are opened and
 *  closed only on the thread that drives the run. */
class Tracer
{
  public:
    Tracer();

    /** Open a span under the innermost open one; returns its index. */
    int open(const char *name);
    /** Close the innermost open span, which must be @p id. */
    void close(int id);

    /** Run @p fn inside a span named @p name. */
    template <typename F>
    decltype(auto)
    span(const char *name, F &&fn)
    {
        struct Closer
        {
            Tracer &t;
            int id;
            ~Closer() { t.close(id); }
        } closer{*this, open(name)};
        return fn();
    }

    /** Summed duration of every span named @p name, s. */
    double total(const std::string &name) const;
    /** Spans named @p name. */
    std::uint64_t count(const std::string &name) const;
    /** Summed duration of spans whose name starts with @p prefix. */
    double totalWithPrefix(const std::string &prefix) const;

    const std::vector<Span> &spans() const { return spans_; }

  private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point t0_;
    std::vector<Span> spans_;
    int current_ = -1;
};

/** Result of one traced run. */
struct TracedRun
{
    /** Identity with runExperiment (compared exactly). */
    std::uint64_t executedEvents = 0;
    std::uint64_t completions = 0;
    double p99Ns = 0.0;
    /** Host wall-clock of the whole run, s. */
    double wallS = 0.0;
    /** Per-layer metrics derived from the spans and counters. */
    std::vector<Metric> metrics;
    Tracer tracer;
};

/**
 * Execute @p cfg traced. Supports what the benchmark's workloads use:
 * single- and multi-node runs, sequential or parallel domains, packet
 * faults and retry policies. Connection populations are fatal, and so
 * are chained workloads (no nested-RPC issuer is wired; the node's
 * missing-issuer check fires).
 */
TracedRun runTraced(const core::ExperimentConfig &cfg);

/** Write @p spans as Chrome trace-event JSON (viewable in Perfetto). */
void writeSpans(const std::string &path, const std::vector<Span> &spans);

} // namespace rpcvalet::perfbench

#endif // RPCVALET_PERFBENCH_TRACED_HH
