//===- profile/CodeMap.h - Registry of published generated code -*- C++ -*-===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The CodeMap is the process-wide answer to "what generated code is live
/// right now, and where?". Every published code region — a v_end on any
/// target, a CodeCache insert or promotion, a DBT translation — registers
/// here with its name (the cache key when there is one: a cache region's
/// CodeMem carries it to v_end, so the entry is published once, under its
/// final name and tier), target, size, and for translations the guest-PC
/// range it was lifted from. The sampling profiler (profile/Profiler.h)
/// attributes PCs through it, the perf-map/jitdump writers
/// (profile/JitDump.h) stream entries from it, and --dump-code walks it
/// for annotated disassembly.
///
/// Concurrency: writers (publish/setGuestRange/remove) serialize on a
/// mutex and only mark the read snapshot dirty; readers look PCs up in an
/// immutable snapshot swapped through std::atomic<std::shared_ptr>, so a
/// lookup never blocks on a writer while the snapshot is current. The
/// snapshot is rebuilt on demand, never on the publish path: a dirty
/// lookup() answers from the truth map under the lock (O(log n), no
/// rebuild), and a dirty lookupHost() rebuilds. Attribution stays exact
/// (never a removed or replaced entry) and publication stays O(log n).
///
/// Like the telemetry layer it reports through, the whole registry
/// compiles out under -DVCODE_TELEMETRY=OFF: the class below becomes an
/// inline no-op shell and call sites vanish.
///
//===----------------------------------------------------------------------===//

#ifndef VCODE_PROFILE_CODEMAP_H
#define VCODE_PROFILE_CODEMAP_H

#include "core/Tier.h"
#include "support/Telemetry.h" // VCODE_TELEMETRY_ENABLED
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace vcode {
namespace profile {

/// Metadata for one published code region. Immutable after publication
/// except Samples (relaxed-atomic profiler heat); setGuestRange replaces
/// the entry copy-on-write so concurrent readers never observe a partial
/// update.
struct CodeEntry {
  uint64_t Addr = 0;  ///< region base, in its arena's simulated addresses
  uint64_t Bytes = 0; ///< published length
  uint64_t Entry = 0; ///< entry point (>= Addr when prologues right-align)
  uintptr_t Host = 0; ///< host address of byte 0 (0 when unknown)
  std::string Name;   ///< cache key or client name; synthesized if unset
  const char *Target = ""; ///< TargetInfo::Name (static storage)
  Tier GenTier = Tier::Tier0;
  uint64_t Generation = 0; ///< process-wide publish sequence number
  uint64_t GuestLo = 0, GuestHi = 0; ///< DBT: guest-PC source range
  std::vector<uint8_t> Code; ///< captured bytes (only when capture is on)
  mutable std::atomic<uint64_t> Samples{0}; ///< profiler heat

  CodeEntry() = default;
  /// Copy for the copy-on-write metadata updates; carries the heat over.
  CodeEntry(const CodeEntry &O)
      : Addr(O.Addr), Bytes(O.Bytes), Entry(O.Entry), Host(O.Host),
        Name(O.Name), Target(O.Target), GenTier(O.GenTier),
        Generation(O.Generation), GuestLo(O.GuestLo), GuestHi(O.GuestHi),
        Code(O.Code), Samples(O.Samples.load(std::memory_order_relaxed)) {}
  CodeEntry &operator=(const CodeEntry &) = delete;

  bool contains(uint64_t Pc) const { return Pc - Addr < Bytes; }
  bool containsHost(uintptr_t Pc) const {
    return Host && Pc - Host < Bytes;
  }
};

#if VCODE_TELEMETRY_ENABLED

/// Process-wide registry of published code regions. See the file comment
/// for the concurrency model.
class CodeMap {
public:
  static CodeMap &instance();

  struct Stats {
    uint64_t Published = 0; ///< publish() calls
    uint64_t Removed = 0;   ///< remove() plus overlap evictions
    uint64_t Live = 0;      ///< entries currently registered
  };

  /// Registers [Addr, Addr+Bytes) with entry point \p Entry. Any
  /// previously published region that overlaps is removed first (the
  /// cache's free pool reuses regions); its heat folds into the retired
  /// tally. An empty \p Name is synthesized as "fn@<addr>". Captures the
  /// code bytes from \p Host when capture is enabled. Returns the publish
  /// generation number.
  uint64_t publish(uint64_t Addr, uint64_t Bytes, uint64_t Entry,
                   uintptr_t Host, std::string Name, const char *Target,
                   Tier T);

  /// Records the guest-PC source range on the region containing
  /// \p AnyAddrInRegion (DBT translations). Returns false on no region.
  bool setGuestRange(uint64_t AnyAddrInRegion, uint64_t Lo, uint64_t Hi);

  /// Unregisters the region based at exactly \p Addr (eviction, promotion
  /// reclaim); its heat folds into the retired tally.
  void remove(uint64_t Addr);

  /// PC -> entry in the simulated address space of each region's arena.
  /// O(log n) against the read snapshot; never blocks on a publisher
  /// unless mutations are pending (then searches the truth map under the
  /// writer lock, so a stale entry is never returned). NOT
  /// async-signal-safe.
  std::shared_ptr<const CodeEntry> lookup(uint64_t Pc) const;
  /// Host-address -> entry (SIGPROF RIPs, DBT translated-function
  /// pointers). Same contract as lookup(), except that pending mutations
  /// rebuild the snapshot (the truth map is not indexed by host address).
  std::shared_ptr<const CodeEntry> lookupHost(uintptr_t Pc) const;

  /// Every live entry, in address order.
  std::vector<std::shared_ptr<const CodeEntry>> entries() const;
  /// First live entry whose Name equals \p Name (report-time joins).
  std::shared_ptr<const CodeEntry> findByName(const std::string &Name) const;

  Stats stats() const;

  /// When on, publish() snapshots the region's bytes into the entry so
  /// disassembly/jitdump survive arena teardown (set by --dump-code and
  /// the round-trip checker before any generation).
  void setCaptureBytes(bool On) {
    Capture.store(On, std::memory_order_relaxed);
  }
  bool captureBytes() const {
    return Capture.load(std::memory_order_relaxed);
  }

  /// Heat folded out of removed entries: (name, samples), unordered. At
  /// most kMaxRetired distinct names are kept; the rest aggregate under
  /// "<retired>".
  std::vector<std::pair<std::string, uint64_t>> retiredHeat() const;

  /// Appends the "codemap:" section of --telemetry-report.
  void appendReport(std::string &Out) const;

  /// Drops every entry and zeroes the stats. Tests only: the map is
  /// process-global, and suites that count entries need a clean slate.
  void resetForTest();

private:
  CodeMap();
  ~CodeMap() = delete; // leaked singleton: atexit readers outlive statics

  struct Snap {
    std::vector<std::shared_ptr<CodeEntry>> ByAddr; ///< sorted by Addr
    std::vector<std::shared_ptr<CodeEntry>> ByHost; ///< Host != 0, sorted
  };

  struct Impl;
  Impl *I;
  std::atomic<bool> Capture{false};
};

#else // !VCODE_TELEMETRY_ENABLED

/// Compiled-out shell: every member is an inline no-op, so call sites in
/// core/backends/dbt vanish entirely from VCODE_TELEMETRY=OFF builds.
class CodeMap {
public:
  static CodeMap &instance() {
    static CodeMap M;
    return M;
  }
  struct Stats {
    uint64_t Published = 0, Removed = 0, Live = 0;
  };
  uint64_t publish(uint64_t, uint64_t, uint64_t, uintptr_t, std::string,
                   const char *, Tier) {
    return 0;
  }
  bool setGuestRange(uint64_t, uint64_t, uint64_t) { return false; }
  void remove(uint64_t) {}
  std::shared_ptr<const CodeEntry> lookup(uint64_t) const { return {}; }
  std::shared_ptr<const CodeEntry> lookupHost(uintptr_t) const { return {}; }
  std::vector<std::shared_ptr<const CodeEntry>> entries() const { return {}; }
  std::shared_ptr<const CodeEntry> findByName(const std::string &) const {
    return {};
  }
  Stats stats() const { return {}; }
  void setCaptureBytes(bool) {}
  bool captureBytes() const { return false; }
  std::vector<std::pair<std::string, uint64_t>> retiredHeat() const {
    return {};
  }
  void appendReport(std::string &) const {}
  void resetForTest() {}
};

#endif // VCODE_TELEMETRY_ENABLED

} // namespace profile
} // namespace vcode

#endif // VCODE_PROFILE_CODEMAP_H
