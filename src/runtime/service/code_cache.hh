/**
 * @file
 * Content address and byte-budgeted LRU behind the experiment
 * store's compile memo (runtime/jit.cc, docs/ARCHITECTURE.md).
 *
 * An entry is one compiled module (core::Compiled) keyed by a 64-bit
 * content address:
 *
 *   key = H(bytecode ‖ profile digest ‖ compiler config ‖
 *           pass fingerprint)
 *
 * where H is FNV-1a over a canonical serialization. Two requests
 * with the same key are guaranteed (by compileProgram's determinism)
 * to produce byte-identical IR, so the cache can hand the same
 * immutable CachedCode to every caller that asks. The pass
 * fingerprint folds opt::pipelinePassNames() plus a manually bumped
 * schema version into the key, so reordering the pass pipeline or
 * changing a pass's semantics (bump kPassSchemaVersion!) invalidates
 * every stale entry instead of serving wrong code.
 *
 * Eviction is strict LRU over a byte budget counted in
 * estimateCodeBytes (capacity model: docs/ARCHITECTURE.md). The
 * newest entry is never evicted — an entry larger than the whole
 * budget is still served to its requesters and only displaced by
 * the next insert.
 *
 * The header keeps its path and namespace because the benchmark
 * (perfbench/suite.cc) includes it for hashProgram and
 * hashCompilerConfig.
 *
 * Thread-safe: every CodeCache method takes the internal mutex.
 */

#ifndef AREGION_RUNTIME_SERVICE_CODE_CACHE_HH
#define AREGION_RUNTIME_SERVICE_CODE_CACHE_HH

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>

#include "core/compiler.hh"
#include "vm/profile.hh"
#include "vm/program.hh"

namespace aregion::runtime::service {

/**
 * One immutable cache entry. The compiled module's ir::Module holds
 * a raw pointer to its source program, so the entry keeps the
 * program alive alongside the code — callers may lower and run the
 * module for as long as they hold the shared_ptr, even after the
 * entry was evicted.
 */
struct CachedCode
{
    uint64_t key = 0;
    std::shared_ptr<const vm::Program> program;
    core::Compiled compiled;

    /** Estimated resident bytes (estimateCodeBytes). */
    size_t sizeBytes = 0;
};

/** Canonical serialization hashes for the content address. */
uint64_t hashProgram(const vm::Program &prog);
uint64_t hashProfile(const vm::Program &prog, const vm::Profile &profile);
uint64_t hashCompilerConfig(const core::CompilerConfig &config);

/** The pipeline identity folded into every key; bump
 *  kPassSchemaVersion whenever a pass changes behaviour without
 *  changing its name. */
uint64_t passFingerprint();
inline constexpr int kPassSchemaVersion = 2;

/** Full content address for a compile request. */
uint64_t cacheKey(const vm::Program &prog, const vm::Profile &profile,
                  const core::CompilerConfig &config);

/** Capacity-model size estimate for a compiled module. */
size_t estimateCodeBytes(const core::Compiled &compiled);

/** LRU, byte-budgeted, content-addressed cache. */
class CodeCache
{
  public:
    explicit CodeCache(size_t byte_budget) : budget(byte_budget) {}

    /** Hit: bump LRU recency and return the entry. Miss: nullptr. */
    std::shared_ptr<const CachedCode> lookup(uint64_t key);

    /**
     * Insert (or replace) the entry and evict least-recently-used
     * entries until the byte budget holds again. The entry just
     * inserted is exempt from its own eviction round.
     */
    void insert(const std::shared_ptr<const CachedCode> &code);

  private:
    struct Entry
    {
        std::shared_ptr<const CachedCode> code;
        std::list<uint64_t>::iterator lru;  ///< position in lruOrder
    };

    std::mutex mu;
    size_t budget;
    size_t bytesUsed = 0;
    std::list<uint64_t> lruOrder;           ///< front = most recent
    std::map<uint64_t, Entry> table;
};

} // namespace aregion::runtime::service

#endif // AREGION_RUNTIME_SERVICE_CODE_CACHE_HH
