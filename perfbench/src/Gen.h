//===- perfbench/src/Gen.h - Seeded benchmark input generators --*- C++ -*-===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every input the benchmark feeds the libraries comes from here: filter
/// sets and packets, tcc-lite programs and their arguments, and message
/// contents. The generators use their own seeded RNG and build dpf::Filter
/// values directly, so no change to the libraries (support/Rng.h,
/// service::TrafficGen) can change the traffic. Each generator also
/// carries the oracle for its outputs, computed in plain host C++ without
/// the code generator under test.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_GEN_H
#define PERFBENCH_GEN_H

#include "dpf/Filter.h"
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: small, fast, and fixed here so streams never drift.
class Rng {
public:
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, N).
  uint32_t below(uint32_t N) {
    return uint32_t((uint64_t(uint32_t(next() >> 32)) * N) >> 32);
  }
  /// Uniform double in [0, 1).
  double real() { return double(next() >> 11) * 0x1.0p-53; }

private:
  uint64_t S;
};

/// Derives an independent sub-seed for stream \p Stream of run \p Seed.
uint64_t subSeed(uint64_t Seed, uint64_t Stream);

/// Zipf(s) over {0..N-1} by CDF inversion: rank r has weight 1/(r+1)^s.
class Zipf {
public:
  Zipf(unsigned N, double S);
  unsigned draw(Rng &R) const;

private:
  std::vector<double> Cdf;
};

/// FNV-1a, for stream digests.
inline uint64_t mix(uint64_t H, uint64_t V) {
  for (int I = 0; I < 8; ++I) {
    H ^= (V >> (8 * I)) & 0xff;
    H *= 0x100000001b3ull;
  }
  return H;
}
inline constexpr uint64_t DigestInit = 0xcbf29ce484222325ull;

// --- DPF ---------------------------------------------------------------------

/// Header fields of one generated packet (simplified IP/TCP layout of
/// dpf/Filter.h: proto @9, src IP @12, dst IP @16, src port @20, dst
/// port @22; 40 bytes, little-endian in guest memory).
struct Packet {
  uint8_t Proto = 6;
  uint32_t SrcIp = 0;
  uint32_t DstIp = 0;
  uint16_t SrcPort = 0;
  uint16_t DstPort = 0;
};
inline constexpr uint32_t PacketBytes = 40;

/// Lays \p P out as the 40 header bytes the filters inspect.
void packetBytes(const Packet &P, uint8_t Out[PacketBytes]);

/// A ten-filter set with the flows the traffic draws from: Flows[i] for
/// i < Filters.size() is a packet only filter i accepts; the trailing
/// flows match no filter (a port miss and a protocol miss).
struct FilterSet {
  std::vector<vcode::dpf::Filter> Filters;
  std::vector<Packet> Flows;
};

/// Ground truth: the id of the filter whose every atom holds on \p Bytes,
/// or -1. Filters in a generated set never overlap, so at most one holds.
int groundTruth(const std::vector<vcode::dpf::Filter> &Filters,
                const uint8_t Bytes[PacketBytes]);

/// \p N ten-filter sets. Sets mix trie shapes (one or two protocols, one
/// or two destination hosts, an optional masked source-network atom) and
/// port layouts (dense runs and scattered ports), so generated
/// classifiers use every DPF dispatch strategy: chains, binary search,
/// jump tables and perfect hashes.
std::vector<FilterSet> makeFilterSets(unsigned N, uint64_t Seed);

// --- tcc-lite ----------------------------------------------------------------

/// One generated leaf function: its source, arguments, and the result
/// the host evaluator computed for those arguments.
struct TccProgram {
  std::string Name;
  std::string Source;
  std::vector<int32_t> Args;
  int32_t Expected = 0;
};

/// \p N leaf tcc-lite functions named f0..f<N-1>, each with arithmetic,
/// `if`/`else` and bounded `while` loops. Results are computed by a host
/// evaluator over the same AST with int32 wraparound; divisors are
/// positive literals, so no division by zero or INT_MIN / -1 occurs.
std::vector<TccProgram> makeTccCorpus(unsigned N, uint64_t Seed);

} // namespace perfbench

#endif // PERFBENCH_GEN_H
