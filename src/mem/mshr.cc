#include "src/mem/mshr.hh"

#include <algorithm>
#include <bit>

#include "src/util/logging.hh"

namespace kilo::mem
{

MshrFile::MshrFile(uint32_t capacity, uint64_t sweep_period)
    : sweepPeriod(sweep_period ? sweep_period : 1)
{
    KILO_ASSERT(capacity > 0, "MSHR file needs at least one entry");
    // A file smaller than one full set narrows the ways instead of
    // silently rounding up, so deliberately tiny configurations
    // (capacity-sensitivity sweeps) really are that small.
    numWays = capacity < Ways ? capacity : Ways;
    uint32_t sets = std::bit_ceil((capacity + numWays - 1) / numWays);
    setMask = sets - 1;
    entries.resize(size_t(sets) * numWays);
    expiry.reserve(entries.size());
}

MshrFile::Entry *
MshrFile::setOf(uint64_t line)
{
    return &entries[size_t(uint32_t(line) & setMask) * numWays];
}

void
MshrFile::pushExpiry(uint64_t fill_done, uint32_t way)
{
    // Out of room: drop the consumed prefix and the stale records.
    // The caller has already emptied the way being filled, so at
    // most capacity - 1 live records remain and the push fits the
    // construction-time reserve.
    if (expiry.size() == entries.size())
        rebuildExpiry();
    expiry.push_back({fill_done, way});
    // Keep the queue sorted. Fills are allocated one memory latency
    // after a (nearly) monotone clock, so they arrive in completion
    // order and this walk almost never moves a record; any other
    // latency pattern only costs the walk, never exactness.
    for (size_t i = expiry.size() - 1;
         i > expiryHead && expiry[i - 1].fillDone > fill_done; --i)
        std::swap(expiry[i - 1], expiry[i]);
}

void
MshrFile::rebuildExpiry()
{
    expiry.clear();
    expiryHead = 0;
    for (uint32_t i = 0; i < entries.size(); ++i) {
        if (entries[i].fillDone != 0)
            expiry.push_back({entries[i].fillDone, i});
    }
    std::sort(expiry.begin(), expiry.end(),
              [](const Expiry &a, const Expiry &b) {
                  return a.fillDone < b.fillDone;
              });
}

void
MshrFile::sweepIfDue(uint64_t now)
{
    if (now < nextSweep)
        return;
    // Frees exactly {e : 0 < e.fillDone <= now}, like a full scan.
    // Each allocation queues its own record, and a record is consumed
    // only here, once its fillDone <= now, freeing its way if the way
    // still holds that fill. So every live way has an unconsumed
    // record, and every way freed here is one a full scan frees. A
    // record whose way holds another fill (or none) is stale: the way
    // was reclaimed lazily or displaced, and its new tenant has a
    // record of its own.
    for (; expiryHead < expiry.size() &&
           expiry[expiryHead].fillDone <= now;
         ++expiryHead) {
        Entry &e = entries[expiry[expiryHead].way];
        if (e.fillDone == expiry[expiryHead].fillDone)
            freeWay(e);
    }
    // Drop the consumed prefix once it outweighs the rest (amortised
    // O(1) per record), so the queue's footprint follows the fills in
    // flight rather than the capacity.
    if (2 * size_t(expiryHead) >= expiry.size()) {
        expiry.erase(expiry.begin(), expiry.begin() + expiryHead);
        expiryHead = 0;
    }
    nextSweep = now + sweepPeriod;
}

uint64_t
MshrFile::lookup(uint64_t line, uint64_t now)
{
    sweepIfDue(now);
    Entry *set = setOf(line);
    uint64_t fill_done = 0;
    for (uint32_t w = 0; w < numWays; ++w) {
        Entry &e = set[w];
        if (e.fillDone == 0)
            continue;
        if (e.fillDone <= now) {
            // Landed (for the probed line: the tag arrays own it
            // now); reclaim every expired way met along the walk so
            // occupancy tracks live fills, not stale residue.
            freeWay(e);
            continue;
        }
        if (e.line == line)
            fill_done = e.fillDone;
    }
    return fill_done;
}

bool
MshrFile::setFull(uint64_t line, uint64_t now)
{
    sweepIfDue(now);
    Entry *set = setOf(line);
    uint32_t live = 0;
    for (uint32_t w = 0; w < numWays; ++w) {
        Entry &e = set[w];
        if (e.fillDone != 0 && e.fillDone <= now)
            freeWay(e); // lazy expiry, same as lookup/allocate
        if (e.fillDone != 0)
            ++live;
    }
    return live == numWays;
}

void
MshrFile::allocate(uint64_t line, uint64_t fill_done, uint64_t now)
{
    KILO_ASSERT(fill_done > now,
                "fill completing at cycle %llu scheduled at %llu",
                (unsigned long long)fill_done,
                (unsigned long long)now);
    sweepIfDue(now);
    Entry *set = setOf(line);
    Entry *victim = nullptr;
    Entry *soonest = &set[0];
    uint32_t set_live = 0; // live ways after expiry (one set walk)
    for (uint32_t w = 0; w < numWays; ++w) {
        Entry &e = set[w];
        if (e.fillDone != 0 && e.fillDone <= now)
            freeWay(e); // lazy expiry on the probed set
        if (e.fillDone == 0) {
            victim = &e;
        } else {
            ++set_live;
            if (e.fillDone < soonest->fillDone ||
                soonest->fillDone == 0) {
                soonest = &e;
            }
        }
    }
    if (victim == nullptr) {
        // Set full of live fills: displace the one closest to landing
        // (its primary access already carries the correct latency; it
        // only loses the remainder of its merge window).
        ++nDisplaced;
        freeWay(*soonest);
        victim = soonest;
        --set_live;
    }
    pushExpiry(fill_done, uint32_t(victim - entries.data()));
    victim->line = line;
    victim->fillDone = fill_done;
    ++liveCount;
    if (liveCount > peak)
        peak = liveCount;

    // Sample this set's live-way count after insertion (1..numWays)
    // for the per-set occupancy distribution.
    setOccHist.sample(set_live + 1);
}

} // namespace kilo::mem
