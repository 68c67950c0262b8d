/**
 * @file
 * Benchmark-side tracing: spans recorded around each call into a layer,
 * and a timing IoDevice that records every graph read with the thread
 * that issued it.  Spans stay in memory and are written out as
 * Chrome-trace JSON when the run ends; nothing inside the library is
 * instrumented.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "storage/io_device.hpp"

namespace walkbench {

/** In-memory span store (thread safe). */
class Tracer {
  public:
    /** One completed span; @p name and @p cat are string literals. */
    struct Span {
        const char *name = "";
        const char *cat = "";
        std::uint64_t id = 0;
        /** Span that caused this one (0 = none). */
        std::uint64_t parent = 0;
        std::uint32_t tid = 0;
        std::int64_t begin_ns = 0;
        std::int64_t end_ns = 0;
        /** Bytes moved (read spans), otherwise 0. */
        std::uint64_t bytes = 0;
    };

    /** Spans kept for the trace file; later ones are counted only. */
    static constexpr std::size_t kMaxKept = 200000;

    Tracer() : epoch_(std::chrono::steady_clock::now()) {}

    std::int64_t
    now_ns() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - epoch_)
            .count();
    }

    /** A fresh span id, taken when the span opens so children can
     *  name it as their parent before it closes. */
    std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }

    void record(Span span);

    /** Spans recorded (kept or not). */
    std::uint64_t recorded() const;

    /** Write every kept span as Chrome-trace JSON to @p path. */
    void write_chrome(const std::string &path) const;

  private:
    std::chrono::steady_clock::time_point epoch_;
    std::atomic<std::uint64_t> next_id_{0};
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::uint64_t recorded_ = 0;
    /** Small sequential ids for the threads seen (guarded by mutex_). */
    std::unordered_map<std::thread::id, std::uint32_t> tids_;

    std::uint32_t tid_of(std::thread::id id);
};

/** Records one span from construction to destruction (no-op without a
 *  tracer). */
class ScopedSpan {
  public:
    ScopedSpan(Tracer *tracer, const char *name, const char *cat,
               std::uint64_t parent = 0)
        : tracer_(tracer)
    {
        if (tracer_ != nullptr) {
            span_.name = name;
            span_.cat = cat;
            span_.parent = parent;
            span_.id = tracer_->next_id();
            span_.begin_ns = tracer_->now_ns();
        }
    }

    ~ScopedSpan()
    {
        if (tracer_ != nullptr) {
            span_.end_ns = tracer_->now_ns();
            tracer_->record(span_);
        }
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint64_t id() const { return span_.id; }

  private:
    Tracer *tracer_;
    Tracer::Span span_;
};

/**
 * IoDevice over another device that times every read and attributes
 * it to the thread that issued it: the "caller" thread (the one that
 * calls the engine's run()) or any other (loader threads).  Accounting
 * and the cost model are this device's own, so engine I/O counters
 * read exactly as they would over the wrapped device.
 */
class TimedDevice final : public noswalker::storage::IoDevice {
  public:
    struct Totals {
        std::uint64_t calls = 0;
        std::uint64_t bytes = 0;
        double seconds = 0.0;
        std::uint64_t caller_calls = 0;
        double caller_seconds = 0.0;
    };

    /** @p tracer may be null: totals only, no spans. */
    TimedDevice(noswalker::storage::IoDevice &inner, Tracer *tracer)
        : IoDevice(inner.model()), inner_(&inner), tracer_(tracer)
    {
    }

    std::uint64_t size() const override { return inner_->size(); }

    /** Thread whose reads count as blocking the caller. */
    void set_caller(std::thread::id id) { caller_ = id; }

    /** Span that read spans name as their parent (the current run). */
    void set_parent(std::uint64_t span) { parent_.store(span); }

    Totals totals() const;
    void reset_totals();

  protected:
    void do_read(std::uint64_t offset, std::uint64_t len,
                 void *buffer) override;
    void do_write(std::uint64_t offset, std::uint64_t len,
                  const void *buffer) override;

  private:
    noswalker::storage::IoDevice *inner_;
    Tracer *tracer_;
    std::thread::id caller_;
    std::atomic<std::uint64_t> parent_{0};
    std::atomic<std::uint64_t> calls_{0};
    std::atomic<std::uint64_t> bytes_{0};
    std::atomic<std::uint64_t> nanos_{0};
    std::atomic<std::uint64_t> caller_calls_{0};
    std::atomic<std::uint64_t> caller_nanos_{0};
};

} // namespace walkbench
