/**
 * @file
 * Content address of the experiment store's compile memo
 * (runtime/jit.cc, docs/ARCHITECTURE.md).
 *
 * A compile request is keyed by a 64-bit content address:
 *
 *   key = H(bytecode ‖ profile digest ‖ compiler config)
 *
 * where H is FNV-1a over a canonical serialization. Two requests
 * with the same key are guaranteed (by compileProgram's determinism)
 * to produce byte-identical IR, so the store can hand the same
 * immutable compile to every caller that asks. The store lives for
 * one process, so the key carries no pipeline version: a pass change
 * takes a rebuild, which starts with an empty store.
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

/** Full content address for a compile request. */
uint64_t cacheKey(const vm::Program &prog, const vm::Profile &profile,
                  const core::CompilerConfig &config);

} // namespace aregion::runtime::service

#endif // AREGION_RUNTIME_SERVICE_CODE_CACHE_HH
