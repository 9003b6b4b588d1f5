//===- dpf/Filter.h - Packet-filter language and workloads ------*- C++ -*-===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The packet-filter model shared by the three message-demultiplexing
/// engines of paper §4.2 (Table 3). A filter is a conjunction of atoms,
/// each comparing a masked message field against a constant — the
/// "predicates written in a small safe language" of the packet-filter
/// literature. Includes the synthetic TCP/IP workload: ten filters that
/// "look in messages at identical fixed offsets for port numbers" and
/// differ only in the destination port, plus the packet generator.
///
//===----------------------------------------------------------------------===//

#ifndef VCODE_DPF_FILTER_H
#define VCODE_DPF_FILTER_H

#include "sim/Memory.h"
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace vcode {
namespace dpf {

/// One predicate: (load Size bytes at Offset) & Mask == Value.
struct Atom {
  uint32_t Offset = 0;
  uint8_t Size = 4; ///< 1, 2, or 4 bytes
  uint32_t Mask = 0xffffffff;
  uint32_t Value = 0;

  friend bool operator==(const Atom &A, const Atom &B) {
    return A.Offset == B.Offset && A.Size == B.Size && A.Mask == B.Mask &&
           A.Value == B.Value;
  }
};

/// A filter: all atoms must hold; Id identifies the receiving endpoint.
struct Filter {
  std::vector<Atom> Atoms;
  int Id = -1;
};

/// Canonical textual key of a filter set, for compiled-filter caching:
/// two installs get the same key iff they would compile to the same
/// classifier from the same trie (filters listed in order with every
/// atom's offset/size/mask/value and the accepting id).
std::string filterSetKey(const std::vector<Filter> &Filters);

/// Appends the canonical key to \p Key: fixed-width base-64 fields over
/// the printable characters '?'..'~', sized once up front and written
/// without division — the install hot path builds "<prefix>|<key>" in one
/// buffer per installShared under churn.
void appendFilterSetKey(std::string &Key, const std::vector<Filter> &Filters);

/// Header layout of the simplified IP/TCP packets used by the workload
/// (fields stored little-endian in simulator memory; see DESIGN.md).
namespace pkt {
inline constexpr uint32_t VersionOff = 0;  // byte: 0x45
inline constexpr uint32_t ProtoOff = 9;    // byte: 6 = TCP
inline constexpr uint32_t SrcIpOff = 12;   // 4 bytes
inline constexpr uint32_t DstIpOff = 16;   // 4 bytes
inline constexpr uint32_t SrcPortOff = 20; // 2 bytes
inline constexpr uint32_t DstPortOff = 22; // 2 bytes
inline constexpr uint32_t HeaderBytes = 40;
} // namespace pkt

/// Builds \p N TCP/IP filters sharing protocol and destination-IP checks
/// and differing in destination port (BasePort + i) — the paper's ten
/// concurrently-active TCP/IP filters.
std::vector<Filter> makeTcpIpFilters(unsigned N, uint16_t BasePort = 1024,
                                     uint32_t DstIp = 0x0a000001);

/// Writes a TCP/IP header for destination port \p DstPort at \p At.
void writeTcpPacket(sim::Memory &M, SimAddr At, uint16_t DstPort,
                    uint32_t DstIp = 0x0a000001, uint16_t SrcPort = 999);

/// A decision trie merging a filter set: shared atom prefixes are tested
/// once (what PATHFINDER's patterns and DPF's compiled code both exploit).
struct Trie {
  struct Node {
    /// True once the node has a field to examine (leaf accept states
    /// do not).
    bool HasField = false;
    uint32_t Offset = 0;
    uint8_t Size = 4;
    uint32_t Mask = 0xffffffff;
    /// Outgoing edges (field value, child node index), sorted by value:
    /// one flat allocation per node rather than one per edge.
    std::vector<std::pair<uint32_t, int>> Edges;
    /// Filter accepted when a message reaches this state, -1 otherwise.
    int AcceptId = -1;
  };

  std::vector<Node> Nodes; ///< node 0 is the root

  /// Builds the trie. All filters must examine fields in the same order
  /// (true of the workload and typical protocol filters).
  static Trie build(const std::vector<Filter> &Filters);

  /// Reference interpreter over the trie, mirroring the compiled
  /// classifier's semantics exactly: a node with a field dispatches on it
  /// (miss -> -1) and a fieldless node accepts. The differential gates
  /// (ServiceTest, the service's sampled checker) compare compiled
  /// verdicts against this. \p Msg points at the message in \p M.
  int classify(const sim::Memory &M, SimAddr Msg) const;
};

} // namespace dpf
} // namespace vcode

#endif // VCODE_DPF_FILTER_H
