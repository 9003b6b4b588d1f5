//===- perfbench/src/Workloads.cpp - The four benchmark workloads ---------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// dpf_churn, dpf_dispatch, tcc_dbt and ash_msg. Each drives the libraries
/// only through their public functions, checks every output against an
/// oracle computed without the code generator, and, on traced requests,
/// records spans around each call it makes into a layer. Calls made only
/// for tracing run on separate simulator instances and scratch regions
/// (taken under Memory::mark() and dropped from the CodeMap before
/// release()), so a traced run leaves the arena, the cache counters and
/// the CodeMap exactly as an untraced run does.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "ash/Ash.h"
#include "core/CodeCache.h"
#include "dbt/MipsTranslatingCpu.h"
#include "dpf/Engines.h"
#include "mips/MipsTarget.h"
#include "profile/CodeMap.h"
#include "sim/MipsSim.h"
#include "tcc/Tcc.h"
#include <cstring>
#include <optional>

using namespace vcode;

namespace perfbench {

namespace {

/// Every period-th request also checks its verdict with Trie::classify.
constexpr uint64_t TrieCheckPeriod = 64;
/// Region size of replay emissions (the engines' default first attempt).
constexpr size_t ScratchBytes = 32768;

uint64_t codemapLive() { return profile::CodeMap::instance().stats().Live; }

/// Counts one simulated call into the prefix's exact counts.
void countSimCall(Exact &Ex, const sim::RunStats &St) {
  ++Ex.Execs;
  ++Ex.SimExecs;
  Ex.GuestInsns += St.Instrs;
  Ex.SimCycles += St.Cycles;
}

/// Folds every filter constant of \p Sets into the stream digest.
void digestSets(const std::vector<FilterSet> &Sets, uint64_t &Digest) {
  for (const FilterSet &S : Sets)
    for (const dpf::Filter &F : S.Filters)
      for (const dpf::Atom &A : F.Atoms)
        Digest = mix(Digest, A.Value);
}

/// Cache counters at the start of the prefix, to report prefix deltas.
struct CacheDelta {
  CodeCache::Stats Start;
  void begin(const CodeCache &C) { Start = C.stats(); }
  void report(const CodeCache &C, uint64_t Requests, Exact &Ex) const {
    CodeCache::Stats S = C.stats();
    uint64_t Lookups = (S.Hits - Start.Hits) + (S.Misses - Start.Misses);
    uint64_t Misses = S.Misses - Start.Misses;
    Ex.Layer["core.cache_hit_ratio"] =
        Lookups ? double(S.Hits - Start.Hits) / double(Lookups) : 0;
    Ex.Layer["core.cache_evictions_per_req"] =
        double(S.Evictions - Start.Evictions) / double(Requests);
    Ex.Layer["core.cache_region_reuse_ratio"] =
        Misses ? double(S.RegionsReused - Start.RegionsReused) / double(Misses)
               : 0;
  }
};

/// Shared by the two DPF workloads: a packet buffer in guest memory and
/// the oracles for one request's verdict.
struct DpfTraffic {
  sim::Memory &Mem;
  SimAddr Pkt;
  uint8_t Bytes[PacketBytes];

  explicit DpfTraffic(sim::Memory &M) : Mem(M), Pkt(M.alloc(64, 8)) {}

  /// Writes flow \p F of \p S into the packet buffer and returns the
  /// ground-truth verdict.
  int write(const FilterSet &S, unsigned F) {
    packetBytes(S.Flows[F], Bytes);
    std::memcpy(Mem.hostPtr(Pkt, PacketBytes), Bytes, PacketBytes);
    return groundTruth(S.Filters, Bytes);
  }
};

// --- dpf_churn ---------------------------------------------------------------

class DpfChurn final : public Workload {
public:
  static constexpr unsigned NumSets = 4096;

  DpfChurn(const Options &O)
      : Mem(128u << 20), Cpu(Mem), Cache(Mem, CodeCache::Options(8, 128)),
        Sets(makeFilterSets(NumSets, O.Seed)), Traffic(Mem), Replay(Tgt, Mem),
        Stream(subSeed(O.Seed, 10)), Corrupt(O.Corrupt) {
    Tries.reserve(NumSets);
    for (const FilterSet &S : Sets)
      Tries.push_back(dpf::Trie::build(S.Filters));
    Replay.setTier(Tier::Tier0);
    Delta.begin(Cache);
  }

  bool request(uint64_t I, Run &R) override {
    unsigned S = Stream.below(NumSets);
    const FilterSet &FS = Sets[S];
    unsigned F = Stream.below(unsigned(FS.Flows.size()));
    int Expect = Traffic.write(FS, F);
    if (Corrupt && I == 5)
      Expect = Expect == -1 ? 0 : -1;

    dpf::DpfEngine E(Tgt, Mem);
    E.setTier(Tier::Tier0);
    uint64_t T0 = nowNs();
    bool Hit = E.installShared(Cache, FS.Filters);
    uint64_t T1 = nowNs();
    R.gen(T1 - T0, E.codeBytes(), !Hit);
    bool Ok = true;
    if (R.Traced) {
      R.span(Hit ? "dpf.install_hit_us" : "dpf.install_miss_us", T0, T1);
      if (!Hit)
        Ok &= replay(FS, R);
    }

    uint64_t T2 = nowNs();
    int V = E.classify(Cpu, Traffic.Pkt);
    uint64_t T3 = nowNs();
    R.Exec.add(double(T3 - T2) / 1000.0);
    if (R.Traced)
      R.span("dpf.classify_us", T2, T3);
    Ok &= V == Expect;
    if (I % TrieCheckPeriod == 0) {
      uint64_t T4 = nowNs();
      Ok &= Tries[S].classify(Mem, Traffic.Pkt) == Expect;
      if (R.Traced)
        R.span("dpf.trie_classify_us", T4, nowNs());
    }
    if (R.InPrefix) {
      R.Ex.Digest = mix(mix(R.Ex.Digest, S), F);
      countSimCall(R.Ex, Cpu.lastStats());
      ++Requests;
    }
    return Ok;
  }

  void endPrefix(Run &R) override {
    Delta.report(Cache, Requests, R.Ex);
    R.Ex.Layer["profile.codemap_live"] = double(codemapLive());
    digestSets(Sets, R.Ex.Digest);
  }

  void finish(Run &R, std::map<std::string, double> &L) override {
    double Miss = R.Spans["dpf.install_miss_us"].get();
    double Parts = R.Spans["dpf.key_us"].get() +
                   R.Spans["dpf.trie_build_us"].get() +
                   R.Spans["core.vcode_setup_us"].get() +
                   R.Spans["dpf.emit_us"].get();
    L["dpf.install_residual_us"] = Miss - Parts;
    L["dpf.install_residual_share"] = Miss > 0 ? (Miss - Parts) / Miss : 0;
  }

private:
  /// Replays a miss layer by layer: key, trie, VCode set-up and emission
  /// into a scratch region, each timed on its own.
  bool replay(const FilterSet &FS, Run &R) {
    uint64_t T0 = nowNs();
    std::string Key = dpf::DpfEngine::sharedCacheKey(
        Tgt, dpf::DpfEngine::Dispatch::Auto, FS.Filters);
    uint64_t T1 = nowNs();
    dpf::Trie T = dpf::Trie::build(FS.Filters);
    uint64_t T2 = nowNs();
    std::optional<VCode> V;
    V.emplace(Tgt);
    uint64_t T3 = nowNs();
    SimAddr Mark = Mem.mark();
    CodeMem CM = Mem.allocCode(ScratchBytes);
    uint64_t T4 = nowNs();
    CodePtr C = Replay.emitInto(*V, T, CM, Tier::Tier0);
    uint64_t T5 = nowNs();
    profile::CodeMap::instance().remove(CM.Guest);
    Mem.release(Mark);
    uint64_t T6 = nowNs();
    V.reset();
    uint64_t T7 = nowNs();
    R.span("dpf.key_us", T0, T1);
    R.span("dpf.trie_build_us", T1, T2);
    R.Spans["core.vcode_setup_us"].add(double((T3 - T2) + (T7 - T6)) / 1000.0);
    R.span("dpf.emit_us", T4, T5);
    return !Key.empty() && C.isValid();
  }

  sim::Memory Mem;
  mips::MipsTarget Tgt;
  sim::MipsSim Cpu;
  CodeCache Cache;
  std::vector<FilterSet> Sets;
  std::vector<dpf::Trie> Tries;
  DpfTraffic Traffic;
  dpf::DpfEngine Replay;
  Rng Stream;
  bool Corrupt;
  CacheDelta Delta;
  uint64_t Requests = 0;
};

// --- dpf_dispatch ------------------------------------------------------------

class DpfDispatch final : public Workload {
public:
  static constexpr unsigned NumSets = 256;

  DpfDispatch(const Options &O, Run &R)
      : Mem(32u << 20), Cpu(Mem), Probe(Mem),
        Cache(Mem, CodeCache::Options(1, 2 * NumSets)),
        Sets(makeFilterSets(NumSets, O.Seed)), Traffic(Mem), Skew(NumSets, 1.1),
        Stream(subSeed(O.Seed, 11)), Corrupt(O.Corrupt) {
    for (const FilterSet &S : Sets) {
      auto E = std::make_unique<dpf::DpfEngine>(Tgt, Mem);
      E->setTier(Tier::Tier0);
      E->setHotThreshold(0); // promotion off: nothing generates in the window
      uint64_t T0 = nowNs();
      bool Hit = E->installShared(Cache, S.Filters);
      R.gen(nowNs() - T0, E->codeBytes(), !Hit);
      Engines.push_back(std::move(E));
      Tries.push_back(dpf::Trie::build(S.Filters));
    }
    Delta.begin(Cache);
  }

  bool request(uint64_t I, Run &R) override {
    unsigned S = Skew.draw(Stream);
    const FilterSet &FS = Sets[S];
    unsigned F = Stream.below(unsigned(FS.Flows.size()));
    int Expect = Traffic.write(FS, F);
    if (Corrupt && I == 5)
      Expect = Expect == -1 ? 0 : -1;

    uint64_t T0 = nowNs();
    int V = Engines[S]->classify(Cpu, Traffic.Pkt);
    uint64_t T1 = nowNs();
    R.Exec.add(double(T1 - T0) / 1000.0);
    bool Ok = V == Expect;
    if (R.Traced) {
      R.span("dpf.classify_us", T0, T1);
      Ok &= probe(Engines[S]->entry(), Expect, R);
    }
    if (R.Traced || I % TrieCheckPeriod == 0) {
      uint64_t T2 = nowNs();
      Ok &= Tries[S].classify(Mem, Traffic.Pkt) == Expect;
      if (R.Traced)
        R.span("dpf.trie_classify_us", T2, nowNs());
    }
    if (R.InPrefix) {
      R.Ex.Digest = mix(mix(R.Ex.Digest, S), F);
      countSimCall(R.Ex, Cpu.lastStats());
      ++Requests;
    }
    return Ok;
  }

  void endPrefix(Run &R) override {
    Delta.report(Cache, Requests, R.Ex);
    R.Ex.Layer["profile.codemap_live"] = double(codemapLive());
    digestSets(Sets, R.Ex.Digest);
  }

  void finish(Run &R, std::map<std::string, double> &L) override {
    L["dpf.dispatch_overhead_us"] =
        R.Spans["dpf.classify_us"].get() - R.Spans["sim.call_span_us"].get();
  }
  bool generatesAtSetup() const override { return true; }

private:
  /// The bare simulator call on the same entry, in both call forms, on a
  /// separate Cpu so the measured Cpu's cache state is untouched.
  bool probe(SimAddr Entry, int Expect, Run &R) {
    sim::TypedValue Arg = sim::TypedValue::fromPtr(Traffic.Pkt);
    std::vector<sim::TypedValue> Args{Arg};
    bool Ok = true;
    auto Span = [&] {
      uint64_t T0 = nowNs();
      Ok &= Probe.callWithConvSpan(Probe.defaultConv(), Entry, &Arg, 1,
                                   Type::I)
                .asInt32() == Expect;
      R.span("sim.call_span_us", T0, nowNs());
    };
    auto Vector = [&] {
      uint64_t T0 = nowNs();
      Ok &= Probe.call(Entry, Args, Type::I).asInt32() == Expect;
      R.span("sim.call_vector_us", T0, nowNs());
    };
    // Alternate the order so neither form always runs on a warmer host.
    if ((Flip = !Flip)) {
      Span();
      Vector();
    } else {
      Vector();
      Span();
    }
    return Ok;
  }

  sim::Memory Mem;
  mips::MipsTarget Tgt;
  sim::MipsSim Cpu, Probe;
  CodeCache Cache;
  std::vector<FilterSet> Sets;
  std::vector<std::unique_ptr<dpf::DpfEngine>> Engines;
  std::vector<dpf::Trie> Tries;
  DpfTraffic Traffic;
  Zipf Skew;
  Rng Stream;
  bool Corrupt;
  CacheDelta Delta;
  uint64_t Requests = 0;
  bool Flip = false;
};

// --- tcc_dbt -----------------------------------------------------------------

class TccDbt final : public Workload {
public:
  static constexpr unsigned NumFns = 512;
  static constexpr unsigned CallsPerReq = 3;

  TccDbt(const Options &O, Run &R)
      : Mem(64u << 20), Cache(Mem, CodeCache::Options(1, 128)), Dbt(Mem),
        Probe(Mem), Corpus(makeTccCorpus(NumFns, O.Seed)),
        Corrupt(O.Corrupt) {
    // Fixed cyclic request order: a seeded permutation of the corpus.
    Rng P(subSeed(O.Seed, 12));
    for (unsigned I = 0; I < NumFns; ++I)
      Order.push_back(I);
    for (unsigned I = NumFns - 1; I > 0; --I)
      std::swap(Order[I], Order[P.below(I + 1)]);
    // Interpreter reference profile of every function (instructions and
    // DEC5000 cycles per call), compiled into scratch regions. Its result
    // must already match the host evaluator.
    sim::MipsSim Ref(Mem);
    for (const TccProgram &Prog : Corpus) {
      SimAddr Mark = Mem.mark();
      tcc::Tcc T(Tgt, Mem);
      T.setTier(Tier::Tier0);
      CodeMem CM = Mem.allocCode(ScratchBytes);
      CodePtr C = T.compileInto(Prog.Source, CM);
      Profile P;
      for (unsigned K = 0; K < CallsPerReq; ++K) {
        if (T.run(Ref, Prog.Name, Prog.Args) != Prog.Expected)
          ++R.SetupFailures;
        P.Insns = Ref.lastStats().Instrs;
        P.Cycles += Ref.lastStats().Cycles;
      }
      P.Bytes = C.SizeBytes;
      Profiles.push_back(P);
      profile::CodeMap::instance().remove(CM.Guest);
      Mem.release(Mark);
    }
    Delta.begin(Cache);
  }

  bool request(uint64_t I, Run &R) override {
    unsigned Idx = Order[I % NumFns];
    const TccProgram &Prog = Corpus[Idx];
    int32_t Expect = Prog.Expected;
    if (Corrupt && I == 5)
      Expect ^= 1;

    tcc::Tcc T(Tgt, Mem);
    T.setTier(Tier::Tier0);
    uint64_t T0 = nowNs();
    CodePtr C = T.compileShared(Cache, Prog.Source);
    uint64_t T1 = nowNs();
    R.gen(T1 - T0, C.SizeBytes, true);
    bool Ok = C.SizeBytes == Profiles[Idx].Bytes;
    if (R.Traced)
      Ok &= replayCompile(Prog, T1 - T0, R);

    CodeCache::Stats Trans0 = Dbt.engine().cache()->stats();
    for (unsigned K = 0; K < CallsPerReq; ++K) {
      uint64_t T2 = nowNs();
      int32_t V = T.run(Dbt, Prog.Name, Prog.Args);
      uint64_t T3 = nowNs();
      R.Exec.add(double(T3 - T2) / 1000.0);
      Ok &= V == Expect && Dbt.lastStats().Instrs == Profiles[Idx].Insns;
      if (R.Traced)
        R.span(K == 0 ? "dbt.first_call_us" : "dbt.warm_call_us", T2, T3);
      if (R.InPrefix) {
        ++R.Ex.Execs;
        R.Ex.GuestInsns += Dbt.lastStats().Instrs;
      }
    }
    if (R.Traced)
      Ok &= crossCheck(Prog, C.Entry, Expect, R);
    CodeCache::Stats Trans1 = Dbt.engine().cache()->stats();
    TransFailures += Trans1.Failures - Trans0.Failures;
    Calls += CallsPerReq;
    if (R.InPrefix) {
      Exact &Ex = R.Ex;
      Ex.Digest = mix(Ex.Digest, Idx);
      Ex.SimExecs += CallsPerReq;
      Ex.SimCycles += Profiles[Idx].Cycles;
      ++Requests;
      TransBlocks += Trans1.Generations - Trans0.Generations;
    }
    return Ok;
  }

  void endPrefix(Run &R) override {
    Delta.report(Cache, Requests, R.Ex);
    R.Ex.Layer["dbt.blocks_per_program"] =
        double(TransBlocks) / double(Requests);
    R.Ex.Layer["profile.codemap_live"] = double(codemapLive());
    for (const TccProgram &P : Corpus)
      R.Ex.Digest = mix(R.Ex.Digest, std::hash<std::string>{}(P.Source));
  }

  void finish(Run &R, std::map<std::string, double> &L) override {
    L["tcc.shared_residual_us"] = R.Spans["bench.tcc_shared_us"].get() -
                                  R.Spans["tcc.compile_into_us"].get();
    L["dbt.translate_failures_per_call"] =
        double(TransFailures) / double(Calls);
    double Warm = R.Spans["dbt.warm_call_us"].get();
    L["dbt.speedup_vs_interp"] =
        Warm > 0 ? R.Spans["bench.interp_call_us"].get() / Warm : 0;
  }

private:
  struct Profile {
    uint64_t Insns = 0, Cycles = 0, Bytes = 0;
  };

  /// Times Tcc::compileInto of the same source into a fresh scratch
  /// region, next to the compileShared call it is compared with.
  bool replayCompile(const TccProgram &Prog, uint64_t SharedNs, Run &R) {
    SimAddr Mark = Mem.mark();
    tcc::Tcc T(Tgt, Mem);
    T.setTier(Tier::Tier0);
    CodeMem CM = Mem.allocCode(ScratchBytes);
    uint64_t T0 = nowNs();
    CodePtr C = T.compileInto(Prog.Source, CM);
    uint64_t T1 = nowNs();
    profile::CodeMap::instance().remove(CM.Guest);
    Mem.release(Mark);
    R.span("tcc.compile_into_us", T0, T1);
    R.Spans["bench.tcc_shared_us"].add(double(SharedNs) / 1000.0);
    return C.isValid();
  }

  /// Runs the same code and arguments on the interpreter: same result,
  /// same retired-instruction count as the DBT.
  bool crossCheck(const TccProgram &Prog, SimAddr Entry, int32_t Expect,
                  Run &R) {
    std::vector<sim::TypedValue> Args;
    for (int32_t A : Prog.Args)
      Args.push_back(sim::TypedValue::fromInt(A));
    uint64_t T0 = nowNs();
    int32_t V = Probe.call(Entry, Args, Type::I).asInt32();
    uint64_t T1 = nowNs();
    R.span("bench.interp_call_us", T0, T1);
    return V == Expect && Probe.lastStats().Instrs == Dbt.lastStats().Instrs;
  }

  sim::Memory Mem;
  mips::MipsTarget Tgt;
  CodeCache Cache;
  dbt::MipsTranslatingCpu Dbt;
  sim::MipsSim Probe;
  std::vector<TccProgram> Corpus;
  std::vector<unsigned> Order;
  std::vector<Profile> Profiles;
  bool Corrupt;
  CacheDelta Delta;
  uint64_t Requests = 0, TransBlocks = 0, TransFailures = 0, Calls = 0;
};

// --- ash_msg -----------------------------------------------------------------

class AshMsg final : public Workload {
public:
  static constexpr unsigned NumMsgs = 16;
  static constexpr uint32_t MaxBytes = 4096;
  static constexpr uint32_t Sizes[4] = {64, 576, 1500, 4096};
  /// Compiles of each composition per set-up: enough samples for a p99
  /// per set-up; the last one is the one run.
  static constexpr unsigned CompileReps = 500;

  AshMsg(const Options &O, Run &R)
      : Mem(32u << 20), Cpu(Mem), Stream(subSeed(O.Seed, 13)),
        Corrupt(O.Corrupt) {
    const std::vector<ash::Step> Steps[2] = {
        {ash::Step::Copy, ash::Step::Checksum},
        {ash::Step::ByteSwap, ash::Step::Copy, ash::Step::Checksum}};
    for (unsigned C = 0; C < 2; ++C) {
      // Size of the emitted routine (Pipeline does not expose it): one
      // emission of the same loop into a scratch region.
      SimAddr Mark = Mem.mark();
      CodeMem CM = Mem.allocCode(ScratchBytes);
      {
        VCode V(Tgt);
        Bytes[C] = ash::emitLoopInto(V, CM, Steps[C], 4, true,
                                     ash::DefaultXorKey, Tier::Tier0)
                       .SizeBytes;
      }
      profile::CodeMap::instance().remove(CM.Guest);
      Mem.release(Mark);

      Pipes[C] = std::make_unique<ash::Pipeline>(Tgt, Mem);
      Pipes[C]->setTier(Tier::Tier0);
      for (ash::Step S : Steps[C])
        Pipes[C]->addStep(S);
    }
    for (unsigned K = 0; K < CompileReps; ++K)
      for (unsigned C = 0; C < 2; ++C) {
        uint64_t T0 = nowNs();
        Pipes[C]->compile(4);
        uint64_t T1 = nowNs();
        R.gen(T1 - T0, Bytes[C], true);
        R.span("ash.compile_us", T0, T1);
      }

    // Messages and their expected outputs (ash::refRun, plain host code).
    Rng M(subSeed(O.Seed, 14));
    Dst = Mem.alloc(MaxBytes, 16);
    SimAddr RefDst = Mem.alloc(MaxBytes, 16);
    for (unsigned I = 0; I < NumMsgs; ++I) {
      Src[I] = Mem.alloc(MaxBytes, 16);
      for (uint32_t B = 0; B < MaxBytes; B += 8)
        Mem.write<uint64_t>(Src[I] + B, M.next());
      for (unsigned C = 0; C < 2; ++C) {
        for (unsigned Z = 0; Z < 4; ++Z)
          Sum[I][C][Z] = ash::refRun(Steps[C], Mem, RefDst, Src[I], Sizes[Z]);
        const uint8_t *P = Mem.hostPtr(RefDst, MaxBytes);
        Out[I][C].assign(P, P + MaxBytes);
      }
    }
  }

  bool request(uint64_t I, Run &R) override {
    // Sizes weighted 4:3:2:1, small messages commonest. No p50 or p99
    // falls on the boundary between two size classes, where it would jump
    // between them from block to block.
    static constexpr unsigned SizeOf[10] = {0, 0, 0, 0, 1, 1, 1, 2, 2, 3};
    unsigned C = Stream.below(2), Z = SizeOf[Stream.below(10)];
    unsigned Msg = Stream.below(NumMsgs);
    uint32_t N = Sizes[Z];
    uint32_t Expect = Sum[Msg][C][Z];
    if (Corrupt && I == 5)
      Expect ^= 1;
    std::memset(Mem.hostPtr(Dst, N), 0xa5, N);

    uint64_t T0 = nowNs();
    uint32_t V = Pipes[C]->run(Cpu, Dst, Src[Msg], N);
    uint64_t T1 = nowNs();
    R.Exec.add(double(T1 - T0) / 1000.0);
    bool Ok = V == Expect &&
              std::memcmp(Mem.hostPtr(Dst, N), Out[Msg][C].data(), N) == 0;
    const sim::RunStats &St = Cpu.lastStats();
    if (R.Traced) {
      R.span("bench.ash_run_us", T0, T1);
      R.Spans["bench.ash_run_kb"].add(double(N) / 1024.0);
      R.Spans["bench.ash_run_insns"].add(double(St.Instrs));
    }
    if (R.InPrefix) {
      R.Ex.Digest = mix(mix(mix(R.Ex.Digest, C), Z), Msg);
      countSimCall(R.Ex, St);
      DMisses += St.DCacheMisses;
      Stalls += St.LoadStalls;
    }
    return Ok;
  }

  void endPrefix(Run &R) override {
    double Execs = double(R.Ex.Execs);
    R.Ex.Layer["sim.dcache_misses_per_exec"] = double(DMisses) / Execs;
    R.Ex.Layer["sim.load_stalls_per_exec"] = double(Stalls) / Execs;
    R.Ex.Layer["profile.codemap_live"] = double(codemapLive());
    for (unsigned I = 0; I < NumMsgs; ++I)
      for (unsigned C = 0; C < 2; ++C)
        for (unsigned Z = 0; Z < 4; ++Z)
          R.Ex.Digest = mix(R.Ex.Digest, Sum[I][C][Z]);
  }

  void finish(Run &R, std::map<std::string, double> &L) override {
    const Mean &Us = R.Spans["bench.ash_run_us"];
    if (Us.N) {
      L["ash.run_us_per_kb"] = Us.Sum / R.Spans["bench.ash_run_kb"].Sum;
      L["sim.guest_mips"] = R.Spans["bench.ash_run_insns"].Sum / Us.Sum;
    }
  }
  bool generatesAtSetup() const override { return true; }

private:
  sim::Memory Mem;
  mips::MipsTarget Tgt;
  sim::MipsSim Cpu;
  std::unique_ptr<ash::Pipeline> Pipes[2];
  size_t Bytes[2] = {0, 0};
  SimAddr Src[NumMsgs] = {}, Dst = 0;
  uint32_t Sum[NumMsgs][2][4] = {};
  std::vector<uint8_t> Out[NumMsgs][2];
  Rng Stream;
  bool Corrupt;
  uint64_t DMisses = 0, Stalls = 0;
};

} // namespace

uint64_t prefixRequests(const std::string &Name) {
  if (Name == "dpf_churn")
    return 8192;
  if (Name == "dpf_dispatch")
    return 20000;
  if (Name == "tcc_dbt")
    return 1024;
  return 16000;
}

std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       const Options &O, Run &R) {
  if (Name == "dpf_churn")
    return std::make_unique<DpfChurn>(O);
  if (Name == "dpf_dispatch")
    return std::make_unique<DpfDispatch>(O, R);
  if (Name == "tcc_dbt")
    return std::make_unique<TccDbt>(O, R);
  if (Name == "ash_msg")
    return std::make_unique<AshMsg>(O, R);
  return nullptr;
}

} // namespace perfbench
