//===- perfbench/src/main.cpp - Benchmark runner --------------------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload as a single-client closed loop and prints one JSON
/// line with its end-to-end metrics, per-layer metrics, exact counts and
/// build record. perfbench/run.py builds this runner, runs the
/// determinism self-check around it, and prints the benchmark's result.
///
///   perfbench --workload=dpf_churn --seed=1 --seconds=20 --trace=off
///
///   --trace=off        no spans; the end-to-end run
///   --trace=alternate  200 ms blocks alternate traced and untraced, for
///                      the per-layer metrics and the tracing overhead
///   --trace=on         every request traced
///   --seconds=0        run only the exact-count prefix (self-check pass)
///   --setups=N         set the workload up N times before the window and N
///                      times after it; setup_s is the median
///   --corrupt          flip one expected output (must be caught)
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sys/resource.h>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_TELEMETRY
#define PERFBENCH_TELEMETRY "unknown"
#endif

using namespace perfbench;

namespace {

enum class TraceMode { Off, On, Alternate };

/// Traced and untraced blocks alternate at this period (--trace=alternate).
constexpr uint64_t TraceBlockNs = 200'000'000;
/// Statistics block of the timed window (see Series): at least this long,
/// and at least MinBlockRequests requests, so that a block of tcc_dbt's
/// slow requests still covers a fair sample of its corpus.
constexpr uint64_t BlockNs = 500'000'000;
constexpr uint64_t MinBlockRequests = 64;
/// Blocks between the extra set-ups of generatesAtSetup() workloads.
constexpr unsigned ProbeEveryBlocks = 4;

/// Appends "name":value pairs of \p M to \p Out as a JSON object.
void appendObject(std::string &Out, const std::map<std::string, double> &M) {
  Out += "{";
  bool First = true;
  char Buf[64];
  for (const auto &[K, V] : M) {
    std::snprintf(Buf, sizeof Buf, "%.10g", V);
    Out += (First ? "\"" : ",\"") + K + "\":" + Buf;
    First = false;
  }
  Out += "}";
}

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr, "perfbench: %s\n", Msg);
  std::exit(2);
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Name;
  Options O;
  double Seconds = 10;
  unsigned Setups = 1;
  TraceMode Mode = TraceMode::Off;
  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    auto Val = [&](const char *Flag) -> const char * {
      size_t N = std::strlen(Flag);
      return std::strncmp(A, Flag, N) == 0 && A[N] == '=' ? A + N + 1
                                                          : nullptr;
    };
    if (const char *V = Val("--workload"))
      Name = V;
    else if (const char *V = Val("--seed"))
      O.Seed = std::strtoull(V, nullptr, 10);
    else if (const char *V = Val("--seconds"))
      Seconds = std::strtod(V, nullptr);
    else if (const char *V = Val("--setups"))
      Setups = unsigned(std::max(1L, std::strtol(V, nullptr, 10)));
    else if (const char *V = Val("--trace"))
      Mode = !std::strcmp(V, "on")          ? TraceMode::On
             : !std::strcmp(V, "alternate") ? TraceMode::Alternate
             : !std::strcmp(V, "off")       ? TraceMode::Off
                                            : (usage("bad --trace"), Mode);
    else if (!std::strcmp(A, "--corrupt"))
      O.Corrupt = true;
    else
      usage("unknown argument");
  }

  // Set-up, repeated; the last instance is the one measured. Each set-up
  // is one statistics block of the generation series (dpf_dispatch and
  // ash_msg generate only here).
  Run R;
  std::vector<double> SetupS;
  auto SetUp = [&] {
    uint64_t T0 = nowNs();
    std::unique_ptr<Workload> W = makeWorkload(Name, O, R);
    SetupS.push_back(double(nowNs() - T0) / 1e9);
    if (!W)
      usage("unknown --workload");
    R.Gen.closeBlock();
    R.GenPerInsn.closeBlock();
    return W;
  };
  std::unique_ptr<Workload> W;
  for (unsigned S = 0; S < Setups; ++S) {
    W.reset();
    W = SetUp();
  }

  // The closed loop: one request at a time, each issued when the last
  // completes. The prefix always completes, even past the deadline.
  const uint64_t Prefix = prefixRequests(Name);
  uint64_t Failed = 0, Reqs[2] = {0, 0};
  // Request rates of the traced (1) and untraced (0) 200 ms blocks.
  std::vector<double> ModeRates[2];
  uint64_t TraceBlock = 0, TraceReqs = 0;
  std::vector<double> BlockRates;
  uint64_t Start = nowNs(), TraceStart = Start;
  uint64_t Deadline = Start + uint64_t(Seconds * 1e9);
  uint64_t BlockStart = Start, BlockReqs = 0;
  auto CloseBlock = [&](uint64_t Now) {
    BlockRates.push_back(double(BlockReqs) / (double(Now - BlockStart) / 1e9));
    R.Gen.closeBlock();
    R.Exec.closeBlock();
    R.GenPerInsn.closeBlock();
    // Extra set-ups run between blocks, once the exact-count prefix is
    // done, and are not part of any block's time.
    if (W->generatesAtSetup() && !R.InPrefix &&
        BlockRates.size() % ProbeEveryBlocks == 0)
      SetUp();
    BlockStart = nowNs();
    BlockReqs = 0;
  };
  uint64_t I = 0;
  for (;; ++I) {
    uint64_t T0 = nowNs();
    if (T0 - BlockStart >= BlockNs && BlockReqs >= MinBlockRequests) {
      CloseBlock(T0);
      T0 = BlockStart;
    }
    if (I >= Prefix && T0 >= Deadline)
      break;
    uint64_t TB = (T0 - Start) / TraceBlockNs;
    if (TB != TraceBlock) {
      ModeRates[TraceBlock % 2 == 0].push_back(
          double(TraceReqs) / (double(T0 - TraceStart) / 1e9));
      TraceBlock = TB;
      TraceStart = T0;
      TraceReqs = 0;
    }
    R.InPrefix = I < Prefix;
    R.Traced = Mode == TraceMode::On ||
               (Mode == TraceMode::Alternate && TB % 2 == 0);
    if (!W->request(I, R))
      ++Failed;
    ++Reqs[R.Traced];
    ++TraceReqs;
    ++BlockReqs;
    if (I + 1 == Prefix)
      W->endPrefix(R);
  }
  uint64_t End = nowNs();
  double WindowS = double(End - Start) / 1e9;
  if (End - BlockStart >= BlockNs / 2 && BlockReqs >= MinBlockRequests / 2)
    CloseBlock(End);

  std::map<std::string, double> Layers;
  W->finish(R, Layers);
  if (Seconds > 0) {
    W.reset();
    for (unsigned S = 0; S < Setups; ++S)
      SetUp();
  }

  const Exact &Ex = R.Ex;
  std::map<std::string, double> E2E, Exacts;
  E2E["setup_s"] = median(SetupS);
  E2E["req_per_s"] = BlockRates.size() >= 3
                          ? quantileOf(BlockRates, 1 - LoadedQuantile)
                          : double(I) / WindowS;
  E2E["gen_p50_us"] = R.Gen.p50();
  E2E["gen_p99_us"] = R.Gen.p99();
  E2E["gen_ns_per_insn"] = R.GenPerInsn.get();
  E2E["exec_p50_us"] = R.Exec.p50();
  E2E["exec_p99_us"] = R.Exec.p99();
  Exacts["code_bytes"] = Ex.GenFns ? double(Ex.GenBytes) / Ex.GenFns : 0;
  Exacts["guest_insns_per_exec"] =
      Ex.Execs ? double(Ex.GuestInsns) / Ex.Execs : 0;
  Exacts["sim_cycles_per_exec"] =
      Ex.SimExecs ? double(Ex.SimCycles) / Ex.SimExecs : 0;
  for (const auto &[K, V] : Exacts)
    E2E[K] = V;
  rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  E2E["peak_rss_mb"] = double(RU.ru_maxrss) / 1024.0;

  for (const auto &[K, V] : Ex.Layer)
    Exacts[K] = Layers[K] = V;
  for (const auto &[K, M] : R.Spans)
    if (K.compare(0, 6, "bench.") != 0)
      Layers[K] = M.get();
  // Median block rates, so the few blocks of a phase change (tcc_dbt's
  // translating start) cannot tilt the comparison.
  if (Mode == TraceMode::Alternate && ModeRates[0].size() >= 3 &&
      ModeRates[1].size() >= 3)
    Layers["bench.trace_overhead"] =
        1.0 - median(ModeRates[1]) / median(ModeRates[0]);

  std::string Out = "{\"workload\":\"" + Name + "\"";
  char Buf[512];
  std::snprintf(Buf, sizeof Buf,
                ",\"seed\":%" PRIu64 ",\"requests\":%" PRIu64
                ",\"failed\":%" PRIu64 ",\"setup_failures\":%" PRIu64
                ",\"window_s\":%.6f,\"digest\":\"%016" PRIx64 "\""
                ",\"samples\":{\"gen\":%" PRIu64 ",\"exec\":%" PRIu64
                ",\"gen_words\":%" PRIu64 ",\"blocks\":%zu,\"setups\":%zu"
                ",\"traced_requests\":%" PRIu64 "}"
                ",\"build\":{\"build_type\":\"%s\",\"compiler\":\"%s\","
                "\"telemetry\":\"%s\"}",
                O.Seed, I, Failed, R.SetupFailures, WindowS, Ex.Digest,
                R.Gen.count(), R.Exec.count(), R.GenPerInsn.count(),
                BlockRates.size(), SetupS.size(),
                Reqs[1], PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
                PERFBENCH_TELEMETRY);
  Out += Buf;
  Out += ",\"block_req_per_s\":[";
  for (size_t B = 0; B < BlockRates.size(); ++B) {
    std::snprintf(Buf, sizeof Buf, "%s%.1f", B ? "," : "", BlockRates[B]);
    Out += Buf;
  }
  Out += "]";
  Out += ",\"exact\":";
  appendObject(Out, Exacts);
  Out += ",\"e2e\":";
  appendObject(Out, E2E);
  Out += ",\"layers\":";
  appendObject(Out, Layers);
  Out += "}";
  std::puts(Out.c_str());
  return 0;
}
