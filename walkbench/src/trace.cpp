#include "trace.hpp"

#include <cstdio>
#include <stdexcept>

namespace walkbench {

std::uint32_t
Tracer::tid_of(std::thread::id id)
{
    const auto it = tids_.find(id);
    if (it != tids_.end()) {
        return it->second;
    }
    const auto tid = static_cast<std::uint32_t>(tids_.size() + 1);
    tids_.emplace(id, tid);
    return tid;
}

void
Tracer::record(Span span)
{
    const std::thread::id self = std::this_thread::get_id();
    std::lock_guard<std::mutex> lock(mutex_);
    ++recorded_;
    if (spans_.size() < kMaxKept) {
        span.tid = tid_of(self);
        spans_.push_back(span);
    }
}

std::uint64_t
Tracer::recorded() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return recorded_;
}

void
Tracer::write_chrome(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        throw std::runtime_error("cannot write trace file " + path);
    }
    std::lock_guard<std::mutex> lock(mutex_);
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                     "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %llu, \"parent\": %llu, "
                     "\"bytes\": %llu}}\n",
                     i == 0 ? "" : ",", s.name, s.cat, s.tid,
                     static_cast<double>(s.begin_ns) / 1e3,
                     static_cast<double>(s.end_ns - s.begin_ns) / 1e3,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.bytes));
    }
    std::fprintf(f, "]}\n");
    if (std::fclose(f) != 0) {
        throw std::runtime_error("cannot finish trace file " + path);
    }
}

TimedDevice::Totals
TimedDevice::totals() const
{
    Totals t;
    t.calls = calls_.load();
    t.bytes = bytes_.load();
    t.seconds = static_cast<double>(nanos_.load()) / 1e9;
    t.caller_calls = caller_calls_.load();
    t.caller_seconds = static_cast<double>(caller_nanos_.load()) / 1e9;
    return t;
}

void
TimedDevice::reset_totals()
{
    calls_.store(0);
    bytes_.store(0);
    nanos_.store(0);
    caller_calls_.store(0);
    caller_nanos_.store(0);
}

void
TimedDevice::do_read(std::uint64_t offset, std::uint64_t len, void *buffer)
{
    const auto t0 = std::chrono::steady_clock::now();
    inner_->peek(offset, len, buffer);
    const auto t1 = std::chrono::steady_clock::now();
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
    calls_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(len, std::memory_order_relaxed);
    nanos_.fetch_add(ns, std::memory_order_relaxed);
    if (std::this_thread::get_id() == caller_) {
        caller_calls_.fetch_add(1, std::memory_order_relaxed);
        caller_nanos_.fetch_add(ns, std::memory_order_relaxed);
    }
    if (tracer_ != nullptr) {
        Tracer::Span span;
        span.name = "storage.read";
        span.cat = "storage";
        span.id = tracer_->next_id();
        span.parent = parent_.load(std::memory_order_relaxed);
        span.end_ns = tracer_->now_ns();
        span.begin_ns = span.end_ns - static_cast<std::int64_t>(ns);
        span.bytes = len;
        tracer_->record(span);
    }
}

void
TimedDevice::do_write(std::uint64_t offset, std::uint64_t len,
                      const void *buffer)
{
    inner_->write(offset, len, buffer);
}

} // namespace walkbench
