#include "src/sim/event_queue.h"

#include <utility>

#include "src/common/logging.h"
#include "src/prof/prof.h"

namespace cubessd::sim {

// schedSlotFor() maps an EventKind to its dispatch slot by offset;
// pin the correspondence so reordering either enum breaks the build.
static_assert(prof::schedSlotFor(
                  static_cast<std::uint8_t>(EventKind::Generic)) ==
              prof::Slot::SchedGeneric);
static_assert(prof::schedSlotFor(static_cast<std::uint8_t>(
                  EventKind::ChipOpComplete)) == prof::Slot::SchedChipOp);
static_assert(prof::schedSlotFor(
                  static_cast<std::uint8_t>(EventKind::RequestComplete)) ==
              prof::Slot::SchedRequestComplete);
static_assert(prof::schedSlotFor(
                  static_cast<std::uint8_t>(EventKind::ReadPieceDone)) ==
              prof::Slot::SchedReadPiece);
static_assert(prof::schedSlotFor(
                  static_cast<std::uint8_t>(EventKind::HostAdmit)) ==
              prof::Slot::SchedHostAdmit);
static_assert(prof::schedSlotFor(
                  static_cast<std::uint8_t>(EventKind::DriverTick)) ==
              prof::Slot::SchedDriverTick);
static_assert(prof::schedSlotFor(
                  static_cast<std::uint8_t>(EventKind::TenantArrival)) ==
              prof::Slot::SchedTenantArrival);

EventQueue::~EventQueue() = default;

EventQueue::Event *
EventQueue::allocEvent()
{
    if (freeList_ == nullptr)
        addPoolChunk();
    Event *e = freeList_;
    freeList_ = e->next;
    return e;
}

void
EventQueue::addPoolChunk()
{
    auto chunk = std::make_unique<Event[]>(kPoolChunk);
    for (std::size_t i = 0; i < kPoolChunk; ++i) {
        chunk[i].next = freeList_;
        freeList_ = &chunk[i];
    }
    poolChunks_.push_back(std::move(chunk));
    poolCapacity_ += kPoolChunk;
}

void
EventQueue::push(SimTime when, Event *e)
{
    if (when < now_)
        panic("event scheduled in the past (when=%llu now=%llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(now_));
    // Sift up: move the hole from the new leaf toward the root while
    // the parent is later, then drop the entry into it.
    const Entry entry{when, nextSeq_++, e};
    std::size_t i = heap_.size();
    heap_.push_back(entry);
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!(entry < heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = entry;
}

EventQueue::Entry
EventQueue::popMin()
{
    const Entry top = heap_.front();
    const Entry last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0)
        return top;
    // Sift down: move the hole from the root toward the leaves along
    // the earlier child until `last` fits.
    std::size_t i = 0;
    for (;;) {
        std::size_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && heap_[child + 1] < heap_[child])
            ++child;
        if (!(heap_[child] < last))
            break;
        heap_[i] = heap_[child];
        i = child;
    }
    heap_[i] = last;
    return top;
}

void
EventQueue::scheduleAt(SimTime when, EventKind kind, EventHandler *target,
                       const EventPayload &payload)
{
    Event *e = allocEvent();
    e->kind = kind;
    e->target = target;
    e->payload = payload;
    push(when, e);
}

SimTime
EventQueue::schedule(SimTime delay, EventAction action)
{
    const SimTime when = now_ + delay;
    scheduleAt(when, std::move(action));
    return when;
}

void
EventQueue::scheduleAt(SimTime when, EventAction action)
{
    Event *e = allocEvent();
    e->kind = EventKind::Generic;
    e->target = nullptr;
    e->fn = std::move(action);
    push(when, e);
}

void
EventQueue::setSampler(SimTime interval, SamplerFn fn)
{
    if (interval == 0 || !fn) {
        sampler_ = nullptr;
        samplerInterval_ = 0;
        return;
    }
    sampler_ = std::move(fn);
    samplerInterval_ = interval;
    nextSample_ = now_ + interval;
}

void
EventQueue::advanceClock(SimTime when)
{
    if (sampler_) {
        // Catch up on all sampling boundaries up to (and including)
        // this event's time, sampling *before* the event fires.
        while (nextSample_ <= when) {
            now_ = nextSample_;
            sampler_(now_);
            nextSample_ += samplerInterval_;
        }
    }
    now_ = when;
}

void
EventQueue::dispatch(Event *e)
{
    PROF_SCOPE(prof::schedSlotFor(static_cast<std::uint8_t>(e->kind)));
    ++fired_;
    if (e->kind == EventKind::Generic) {
        // Move the closure out and release the record before invoking,
        // so the handler can schedule into a fully consistent queue
        // (and may even reuse this record).
        EventAction fn = std::move(e->fn);
        releaseEvent(e);
        fn();
    } else {
        const EventKind kind = e->kind;
        EventHandler *target = e->target;
        const EventPayload payload = e->payload;
        releaseEvent(e);
        target->onEvent(kind, payload);
    }
}

bool
EventQueue::step()
{
    // No SimLoop scope here: the workload drivers call step() once per
    // event, and an umbrella scope per event would cost as much as the
    // dispatch it wraps while its self time (one heap pop) is small.
    // run() keeps the umbrella — it is called once per drain.
    if (heap_.empty())
        return false;
    const Entry top = popMin();
    advanceClock(top.when);
    dispatch(top.event);
    return true;
}

std::uint64_t
EventQueue::run()
{
    PROF_SCOPE(prof::Slot::SimLoop);
    std::uint64_t fired = 0;
    while (step())
        ++fired;
    return fired;
}

}  // namespace cubessd::sim
