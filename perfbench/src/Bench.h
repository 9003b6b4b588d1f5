//===- perfbench/src/Bench.h - Benchmark runner infrastructure --*- C++ -*-===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload shares: the clock, bounded latency sample stores,
/// per-layer span accumulators, and the Run record a workload fills while
/// the runner loop (main.cpp) issues its requests one at a time.
///
/// Two kinds of numbers come out of a run. Timings cover the whole timed
/// window. Exact counts (code bytes, retired guest instructions, simulated
/// cycles, cache and CodeMap counters, the request-stream digest) cover
/// only the first PrefixRequests requests of the stream, so they repeat
/// to the digit at one seed however many requests the window completes.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "Gen.h"
#include <algorithm>
#include <cstdint>
#include <ctime>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t nowNs() {
  timespec T;
  clock_gettime(CLOCK_MONOTONIC, &T);
  return uint64_t(T.tv_sec) * 1000000000u + uint64_t(T.tv_nsec);
}

/// A bounded store of one latency series. Past Cap samples it keeps every
/// other stored sample and halves its intake rate, so it always holds an
/// evenly strided subsample of the whole series.
class Samples {
public:
  explicit Samples(size_t Cap) : Cap(Cap) {}
  void add(double V) {
    if (Seen++ % Stride)
      return;
    if (Kept.size() == Cap) {
      for (size_t I = 0; I < Cap / 2; ++I)
        Kept[I] = Kept[2 * I];
      Kept.resize(Cap / 2);
      Stride *= 2;
      if ((Seen - 1) % Stride)
        return;
    }
    Kept.push_back(V);
  }
  /// Samples offered (not just kept).
  uint64_t count() const { return Seen; }
  /// Quantile \p Q of the kept samples (see quantileOf).
  double quantile(double Q) const;

private:
  size_t Cap;
  std::vector<double> Kept;
  uint64_t Seen = 0, Stride = 1;
};

/// Quantile \p Q of \p V by linear interpolation between order statistics.
inline double quantileOf(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = size_t(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}
inline double Samples::quantile(double Q) const { return quantileOf(Kept, Q); }
inline double median(const std::vector<double> &V) {
  return quantileOf(V, 0.5);
}

/// Where in the spread of per-block values a timing is read: the most
/// loaded tenth of the window. Other tenants of a shared host slow
/// memory-bound code by 20-50% in bursts that come and go within a run;
/// reading the 90th percentile of block latencies (the 10th of block
/// rates) reports the loaded state the host keeps returning to, and is far
/// steadier from run to run than the median, which follows how much of
/// each run happened to be quiet.
inline constexpr double LoadedQuantile = 0.9;

/// A latency series measured block by block. The runner closes a block
/// every half second (and 64 requests) of the window and after each
/// set-up; a quantile is read across the per-block quantiles at
/// LoadedQuantile. Blocks with too few samples for a quantile do not
/// vote; with fewer than three voting blocks the quantile is taken over
/// the whole series.
class Series {
public:
  void add(double V) {
    All.add(V);
    Block.add(V);
  }
  void closeBlock() {
    if (Block.count() >= 50)
      P50.push_back(Block.quantile(0.50));
    if (Block.count() >= 1000) // at least ten samples beyond the p99
      P99.push_back(Block.quantile(0.99));
    Block = Samples(BlockCap);
  }
  double p50() const {
    return P50.size() >= 3 ? quantileOf(P50, LoadedQuantile)
                           : All.quantile(0.5);
  }
  double p99() const {
    return P99.size() >= 3 ? quantileOf(P99, LoadedQuantile)
                           : All.quantile(0.99);
  }
  uint64_t count() const { return All.count(); }

private:
  static constexpr size_t BlockCap = size_t(1) << 16;
  Samples All{size_t(1) << 18}, Block{BlockCap};
  std::vector<double> P50, P99;
};

/// Generation cost per emitted instruction word (the paper's section 5.1
/// measure): total generation time over total words per block, read at
/// LoadedQuantile over blocks with at least 50 generating calls.
class PerInsn {
public:
  void add(uint64_t Ns, uint64_t Words) {
    Block[0] += Ns;
    Block[1] += Words;
    ++Calls;
    All[0] += Ns;
    All[1] += Words;
  }
  void closeBlock() {
    if (Calls >= 50)
      Ratios.push_back(double(Block[0]) / double(Block[1]));
    Block[0] = Block[1] = Calls = 0;
  }
  double get() const {
    if (Ratios.size() >= 3)
      return quantileOf(Ratios, LoadedQuantile);
    return All[1] ? double(All[0]) / double(All[1]) : 0;
  }
  uint64_t count() const { return All[1]; }

private:
  uint64_t Block[2] = {0, 0}, All[2] = {0, 0}, Calls = 0;
  std::vector<double> Ratios;
};

/// Mean of a per-layer span (or any per-event value).
struct Mean {
  double Sum = 0;
  uint64_t N = 0;
  void add(double V) {
    Sum += V;
    ++N;
  }
  double get() const { return N ? Sum / double(N) : 0; }
};

/// Exact counts over the stream prefix (see the file comment).
struct Exact {
  uint64_t Digest = DigestInit;
  uint64_t GenFns = 0, GenBytes = 0;       ///< generated functions, bytes
  uint64_t Execs = 0, GuestInsns = 0;      ///< calls into generated code
  uint64_t SimExecs = 0, SimCycles = 0;    ///< calls with a cycle count
  std::map<std::string, double> Layer;     ///< exact per-layer counts
};

/// Everything one workload records during a run.
struct Run {
  bool Traced = false;  ///< the current request is traced
  Series Gen, Exec;     ///< generation-call and exec-call latency, us
  PerInsn GenPerInsn;   ///< generation ns per emitted instruction word
  std::map<std::string, Mean> Spans; ///< per-layer spans (traced only)
  Exact Ex;
  bool InPrefix = true; ///< the current request counts toward Ex
  uint64_t SetupFailures = 0;

  void span(const char *Name, uint64_t T0, uint64_t T1) {
    Spans[Name].add(double(T1 - T0) / 1000.0);
  }
  void gen(uint64_t Ns, uint64_t Bytes, bool Generated) {
    Gen.add(double(Ns) / 1000.0);
    if (Generated) {
      GenPerInsn.add(Ns, Bytes / 4);
      if (InPrefix) {
        ++Ex.GenFns;
        Ex.GenBytes += Bytes;
      }
    }
  }
};

/// One workload: constructing it is the set-up; request() issues one
/// closed-loop request and returns false when an output mismatched its
/// oracle.
class Workload {
public:
  virtual ~Workload() = default;
  virtual bool request(uint64_t I, Run &R) = 0;
  /// Called once, right after the last prefix request.
  virtual void endPrefix(Run &R) = 0;
  /// Derived per-layer metrics at the end of the run.
  virtual void finish(Run &R, std::map<std::string, double> &Layers) = 0;
  /// True when the workload generates code only while it is set up. The
  /// runner then repeats the set-up between blocks of the window, so its
  /// generation latency is sampled across the run, not in two bursts.
  virtual bool generatesAtSetup() const { return false; }
};

struct Options {
  uint64_t Seed = 1;
  bool Corrupt = false; ///< flip one expected output (negative self-check)
};

/// Builds workload \p Name (the set-up); Gen samples taken during set-up
/// go to \p R. Null for an unknown name.
std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       const Options &O, Run &R);
/// Requests whose exact counts the determinism self-check compares.
uint64_t prefixRequests(const std::string &Name);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
