/**
 * @file
 * Slab allocator for in-flight instructions.
 *
 * Every core model owns one InstArena; instruction records are
 * recycled at commit/squash instead of reference-counted, so the
 * per-cycle loop never touches the heap once the arena has grown to
 * the window's high-water mark. Slots are addressed by
 * generation-checked 32-bit InstRef handles: freeing a slot bumps its
 * generation, so a handle held across recycling dereferences to null
 * through tryGet() (and trips an assertion through get()), which is
 * exactly the "producer already left the pipeline" answer the
 * dataflow queries need.
 *
 * Each slot is split across two parallel slabs: the hot DynInst array
 * the per-cycle loops walk, and a DynInstCold array (timestamps past
 * fetch, branch state, producer links, scoreboard snapshots) reached
 * through cold() only at the pipeline events that need it. The arena
 * also owns the dependent-edge pool: producers record their waiting
 * consumers as intrusive chains of pooled DepNodes headed at
 * DynInst::depHead, replacing the per-instruction std::vector — edge
 * build-up and wakeup walk are allocation-free in steady state.
 *
 * Timing simulators with pooled instruction records (mcsim et al.)
 * use the same structure; the slab layout keeps record addresses
 * stable across growth so references held by the arena itself never
 * move.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/ckpt/serial.hh"
#include "src/core/dyn_inst.hh"
#include "src/util/free_list.hh"
#include "src/util/logging.hh"

namespace kilo::core
{

/** Growable pool of DynInst slots with generation-checked handles. */
class InstArena
{
  public:
    /** Slots added per growth step (power of two). */
    static constexpr uint32_t SlabSize = 1024;

    /** One dataflow edge: a waiting dependent plus the chain link. */
    struct DepNode
    {
        InstRef dep;
        uint32_t next = DynInst::NoDep;
    };

    explicit InstArena(uint32_t initial_slots = SlabSize);

    InstArena(const InstArena &) = delete;
    InstArena &operator=(const InstArena &) = delete;

    /**
     * Allocate a slot and construct its instruction (hot and cold
     * halves) in place in the value-initialised, fetched-fresh
     * state; only the slot generation survives from the previous
     * tenant. Grows by one slab when the pool is exhausted.
     */
    InstRef alloc();

    /** Recycle @p ref's slot, returning any dependent chain it still
     *  holds to the pool. The handle (and every copy of it) goes
     *  stale immediately. @pre isLive(ref) */
    void free(InstRef ref);

    /** Dereference a live handle. Panics on null or stale handles. */
    DynInst &
    get(InstRef ref)
    {
        DynInst *inst = tryGet(ref);
        KILO_ASSERT(inst != nullptr,
                    "stale or null InstRef (index %u gen %u)",
                    ref.index(), ref.gen());
        return *inst;
    }

    const DynInst &
    get(InstRef ref) const
    {
        return const_cast<InstArena *>(this)->get(ref);
    }

    /**
     * Dereference, tolerating staleness: returns null when @p ref is
     * null or its slot has been recycled since the handle was taken.
     */
    DynInst *
    tryGet(InstRef ref)
    {
        if (!ref.valid())
            return nullptr;
        uint32_t idx = ref.index();
        if (idx >= numSlots)
            return nullptr;
        DynInst &inst = slotAt(idx);
        return (inst.gen & InstRef::GenMask) == ref.gen() ? &inst
                                                          : nullptr;
    }

    const DynInst *
    tryGet(InstRef ref) const
    {
        return const_cast<InstArena *>(this)->tryGet(ref);
    }

    /** Cold half of a live slot. Panics on null or stale handles. */
    DynInstCold &
    cold(InstRef ref)
    {
        get(ref); // liveness check
        return coldAt(ref.index());
    }

    const DynInstCold &
    cold(InstRef ref) const
    {
        return const_cast<InstArena *>(this)->cold(ref);
    }

    /** Cold half of an instruction already obtained from get() —
     *  skips the redundant liveness check. */
    DynInstCold &
    coldOf(const DynInst &inst)
    {
        return coldAt(inst.self.index());
    }

    const DynInstCold &
    coldOf(const DynInst &inst) const
    {
        return const_cast<InstArena *>(this)->coldOf(inst);
    }

    /** True when @p ref names a live (allocated, same-gen) slot. */
    bool isLive(InstRef ref) const { return tryGet(ref) != nullptr; }

    /** Dependent-chain pool. @{ */

    /** Link @p dep onto @p producer's dependent chain. */
    void
    addDependent(DynInst &producer, InstRef dep)
    {
        uint32_t node = depAlloc();
        depNodes[node].dep = dep;
        depNodes[node].next = producer.depHead;
        producer.depHead = node;
    }

    /** Node by pool index (valid while the chain is held). */
    const DepNode &depNode(uint32_t idx) const { return depNodes[idx]; }

    /** Return one node to the pool (chain walkers freeing as they
     *  go); the caller owns relinking. */
    void
    depFree(uint32_t idx)
    {
        depNodes[idx].dep = InstRef();
        depNodes[idx].next = depFreeHead;
        depFreeHead = idx;
        --depsLive;
    }

    /** Return @p inst's whole chain to the pool. */
    void
    releaseDependents(DynInst &inst)
    {
        uint32_t node = inst.depHead;
        inst.depHead = DynInst::NoDep;
        while (node != DynInst::NoDep) {
            uint32_t next = depNodes[node].next;
            depFree(node);
            node = next;
        }
    }

    /** Dataflow edges currently held by live chains. */
    uint32_t depEdgesLive() const { return depsLive; }
    /** @} */

    /** Slots currently allocated. */
    uint32_t live() const { return slots.numAllocated(); }

    /** Total slots (allocated + free). */
    uint32_t capacity() const { return numSlots; }

    /** Lifetime allocation count (recycled slots count again). */
    uint64_t totalAllocs() const { return nAllocs; }

    /** Lifetime free count. */
    uint64_t totalFrees() const { return nFrees; }

    /**
     * Serialize / restore the whole pool: every slot (hot and cold
     * halves, free slots included so generations survive), the
     * dependent-edge pool and the free list. load() grows a smaller
     * arena to match and throws CheckpointError when the current
     * arena is already larger than the image (slots cannot shrink).
     * @{
     */
    void save(ckpt::Sink &s) const;
    void load(ckpt::Source &s);
    /** @} */

  private:
    DynInst &
    slotAt(uint32_t idx)
    {
        return slabs[idx / SlabSize][idx % SlabSize];
    }

    DynInstCold &
    coldAt(uint32_t idx)
    {
        return coldSlabs[idx / SlabSize][idx % SlabSize];
    }

    void addSlab();
    uint32_t depAlloc();

    std::vector<std::unique_ptr<DynInst[]>> slabs;
    std::vector<std::unique_ptr<DynInstCold[]>> coldSlabs;

    /** Dependent-edge pool: grown in slab-sized steps, recycled
     *  through an intrusive LIFO free list threaded via next. */
    std::vector<DepNode> depNodes;
    uint32_t depFreeHead = DynInst::NoDep;
    uint32_t depsLive = 0;

    /** FIFO recycling: a freed slot rests behind every other free
     *  slot, so the generation of any one slot advances as slowly as
     *  the pool allows (wrap needs ~pool-size x 4096 frees while a
     *  handle is held). */
    FreeList slots{0, FreeList::Order::Fifo};
    uint32_t numSlots = 0;
    uint64_t nAllocs = 0;
    uint64_t nFrees = 0;
};

} // namespace kilo::core

