/**
 * @file
 * Set-associative, write-allocate, writeback cache model with optional
 * banking. Tracks hit/miss/writeback counts; timing (hit latency, bank
 * conflict serialization, MSHR latency) is composed by MemoryHierarchy.
 */

#ifndef SIMR_MEM_CACHE_H
#define SIMR_MEM_CACHE_H

#include <cstdint>
#include <string>
#include <vector>

#include "mem/address_space.h"

namespace simr::mem
{

/** Geometry and banking of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    uint64_t sizeBytes = 64 * 1024;
    uint32_t assoc = 8;
    uint32_t lineBytes = 32;
    uint32_t banks = 1;
    uint32_t bankInterleave = 32;  ///< bytes per bank before rotating

    /**
     * Panic on an unusable geometry (non-power-of-two line size,
     * zero ways/banks, bank interleave finer than a line). Called at
     * Cache construction so a bad sweep config fails loudly instead of
     * silently misindexing sets.
     */
    void validate() const;

    bool operator==(const CacheConfig &) const = default;
};

/** Aggregate counters for one cache instance. */
struct CacheStats
{
    uint64_t accesses = 0;
    uint64_t misses = 0;
    uint64_t storeAccesses = 0;
    uint64_t writebacks = 0;

    double
    missRate() const
    {
        return accesses ? static_cast<double>(misses) /
            static_cast<double>(accesses) : 0.0;
    }
};

/** One cache level. */
class Cache
{
  public:
    explicit Cache(CacheConfig cfg);

    /**
     * Access one line; fills on miss (write-allocate).
     * @param paddr physical address (any byte in the line)
     * @param is_store marks the line dirty on hit/fill
     * @return true on hit
     */
    bool access(Addr paddr, bool is_store);

    /** Non-mutating lookup. */
    bool probe(Addr paddr) const;

    /** Invalidate everything (e.g. between independent runs). */
    void reset();

    /** Bank servicing this address. */
    uint32_t
    bankOf(Addr paddr) const
    {
        return static_cast<uint32_t>(
            (paddr / cfg_.bankInterleave) % cfg_.banks);
    }

    const CacheConfig &config() const { return cfg_; }
    const CacheStats &stats() const { return stats_; }
    CacheStats &stats() { return stats_; }

    uint32_t numSets() const { return numSets_; }

  private:
    struct Line
    {
        Addr tag = 0;
        uint64_t lru = 0;
        bool valid = false;
        bool dirty = false;
    };

    uint32_t setOf(Addr paddr) const;
    Addr tagOf(Addr paddr) const;

    CacheConfig cfg_;
    uint32_t numSets_;
    std::vector<Line> lines_;  ///< numSets_ x assoc, row-major
    std::vector<uint32_t> mruWay_;  ///< per-set MRU way hint
    uint64_t tick_ = 0;
    CacheStats stats_;
};

} // namespace simr::mem

#endif // SIMR_MEM_CACHE_H
