/**
 * @file
 * Content address of the experiment store's compile memo
 * (runtime/jit.cc, docs/ARCHITECTURE.md).
 *
 * A compile request is keyed by a 64-bit content address:
 *
 *   key = H(bytecode ‖ profile digest ‖ compiler config ‖
 *           pass fingerprint)
 *
 * where H is FNV-1a over a canonical serialization. Two requests
 * with the same key are guaranteed (by compileProgram's determinism)
 * to produce byte-identical IR, so the store can hand the same
 * immutable compile to every caller that asks. The pass fingerprint
 * folds opt::pipelinePassNames() plus a manually bumped schema
 * version into the key, so reordering the pass pipeline or changing
 * a pass's semantics (bump kPassSchemaVersion!) invalidates every
 * stale entry instead of serving wrong code.
 *
 * The header keeps its path and namespace because the benchmark
 * (perfbench/suite.cc) includes it for hashProgram and
 * hashCompilerConfig.
 */

#ifndef AREGION_RUNTIME_SERVICE_CODE_CACHE_HH
#define AREGION_RUNTIME_SERVICE_CODE_CACHE_HH

#include <cstdint>

#include "core/compiler.hh"
#include "vm/profile.hh"
#include "vm/program.hh"

namespace aregion::runtime::service {

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

} // namespace aregion::runtime::service

#endif // AREGION_RUNTIME_SERVICE_CODE_CACHE_HH
