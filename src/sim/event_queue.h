/**
 * @file
 * Discrete-event simulation core.
 *
 * The SSD model is driven by a single-threaded event queue: every hardware
 * latency (NAND program, bus transfer, buffer flush) is an event scheduled
 * at an absolute SimTime. Events at equal times fire in scheduling order
 * (stable FIFO tie-break) so runs are deterministic.
 *
 * Implementation: a binary min-heap of {when, seq, record} entries over
 * pooled typed event records.
 *
 *  - Events live in a free-list pool backed by chunked arrays; once the
 *    pool has warmed up, scheduling allocates nothing. The heap vector
 *    likewise only grows to the high-water mark of pending events.
 *  - The heap is keyed on (when, seq), a strict total order, so dequeue
 *    is O(log n) whatever the spread of pending times: a lone event
 *    milliseconds out costs the same as a same-timestamp batch. The
 *    key sits inline in the heap entry, so sifting never touches the
 *    pooled record.
 *  - `seq` increases on every schedule call, which makes equal-time
 *    dispatch FIFO and runs bit-identical.
 *
 * Typed events (EventKind + EventHandler target + POD payload) dispatch
 * via one virtual call with no heap traffic. Closure events
 * (EventKind::Generic, the legacy schedule(delay, fn) API) remain for
 * tests and cold paths; their std::function may allocate, which is why
 * the hot path does not use them.
 */

#ifndef CUBESSD_SIM_EVENT_QUEUE_H
#define CUBESSD_SIM_EVENT_QUEUE_H

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/types.h"
#include "src/sim/event.h"

namespace cubessd::sim {

/** Callback type invoked when a Generic (closure) event fires. */
using EventAction = std::function<void()>;

/** Callback type invoked at each sampling boundary (see setSampler). */
using SamplerFn = std::function<void(SimTime)>;

/**
 * A time-ordered queue of events with a simulated clock.
 *
 * Hot-path usage (alloc-free):
 * @code
 *   EventPayload p;
 *   p.driverTick.thread = 3;
 *   eq.schedule(500 * kNanosecond, EventKind::DriverTick, this, p);
 * @endcode
 *
 * Cold-path / test usage:
 * @code
 *   eq.schedule(500 * kNanosecond, [] { ... });
 *   eq.run();                  // drains all events
 * @endcode
 */
class EventQueue
{
  public:
    EventQueue() = default;
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** @return the current simulated time. */
    SimTime now() const { return now_; }

    /**
     * Schedule a typed event `delay` after the current time.
     * @return the absolute fire time.
     */
    SimTime
    schedule(SimTime delay, EventKind kind, EventHandler *target,
             const EventPayload &payload = EventPayload{})
    {
        const SimTime when = now_ + delay;
        scheduleAt(when, kind, target, payload);
        return when;
    }

    /** Schedule a typed event at an absolute time (must be >= now()). */
    void scheduleAt(SimTime when, EventKind kind, EventHandler *target,
                    const EventPayload &payload = EventPayload{});

    /**
     * Schedule a closure `delay` after the current time (Generic event;
     * may allocate for the capture — cold paths only).
     * @return the absolute fire time.
     */
    SimTime schedule(SimTime delay, EventAction action);

    /** Schedule a closure at an absolute time (must be >= now()). */
    void scheduleAt(SimTime when, EventAction action);

    /** @return true if no events remain. */
    bool empty() const { return heap_.empty(); }

    /** @return number of pending events. */
    std::size_t pending() const { return heap_.size(); }

    /** Total events fired over the queue's lifetime (perf metric). */
    std::uint64_t fired() const { return fired_; }

    /**
     * Fire the earliest event, advancing the clock to its time.
     * @return false if the queue was empty.
     */
    bool step();

    /**
     * Run until the queue is empty: repeated step().
     * @return number of events fired.
     */
    std::uint64_t run();

    /**
     * Install a periodic sampling hook: before each event fires, `fn`
     * is called once per elapsed `interval` boundary (clock set to the
     * boundary time), so counters are observed on a fixed simulated
     * cadence without keeping the queue alive with self-rescheduling
     * events — run() still terminates when real work runs out, and
     * sampling never fires past the last event. The hook must be
     * observation-only: it may not schedule events or mutate model
     * state, or runs would no longer be reproducible without it.
     * Boundaries coinciding with an event sample *before* the event.
     * An interval of 0 or an empty fn disables sampling.
     */
    void setSampler(SimTime interval, SamplerFn fn);

    /** Event records ever allocated (pool high-water; test/bench hook). */
    std::size_t poolCapacity() const { return poolCapacity_; }

  private:
    /** Pooled event record; `next` links the free list. */
    struct Event
    {
        Event *next = nullptr;
        EventHandler *target = nullptr;
        EventKind kind = EventKind::Generic;
        EventPayload payload;
        EventAction fn;          // Generic events only
    };

    /** Heap entry: the ordering key inline, the record out of line. */
    struct Entry
    {
        SimTime when;
        std::uint64_t seq;       // FIFO tie-break for equal times
        Event *event;

        bool
        operator<(const Entry &o) const
        {
            return when < o.when || (when == o.when && seq < o.seq);
        }
    };

    static constexpr std::size_t kPoolChunk = 256;

    Event *allocEvent();
    void releaseEvent(Event *e) { e->next = freeList_; freeList_ = e; }
    void addPoolChunk();

    /** Push a filled record at `when` (checked against the clock). */
    void push(SimTime when, Event *e);

    /** Remove and return the earliest entry (heap must be non-empty). */
    Entry popMin();

    /** Advance the sampler to `when` and set the clock (pre-dispatch). */
    void advanceClock(SimTime when);

    /** Dispatch one popped event and release its record. */
    void dispatch(Event *e);

    std::vector<Entry> heap_;   // binary min-heap on (when, seq)

    std::vector<std::unique_ptr<Event[]>> poolChunks_;
    Event *freeList_ = nullptr;
    std::size_t poolCapacity_ = 0;

    SimTime now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t fired_ = 0;
    SamplerFn sampler_;
    SimTime samplerInterval_ = 0;
    SimTime nextSample_ = 0;
};

}  // namespace cubessd::sim

#endif  // CUBESSD_SIM_EVENT_QUEUE_H
