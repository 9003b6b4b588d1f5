//===- core/Target.h - Backend interface ------------------------*- C++ -*-===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The retargeting interface. A backend ("port" in the paper's terms)
/// supplies a TargetInfo describing its register file and conventions plus
/// emitters that transliterate each VCODE instruction into machine words
/// in place. Porting VCODE to a new RISC machine means implementing this
/// interface (paper §3.3: "one to four days").
///
//===----------------------------------------------------------------------===//

#ifndef VCODE_CORE_TARGET_H
#define VCODE_CORE_TARGET_H

#include "core/CallConv.h"
#include "support/BitUtils.h"
#include "core/CodeBuffer.h"
#include "core/Ops.h"
#include "core/Reg.h"
#include "core/Types.h"
#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace vcode {

class RegAlloc;
class VCode;

/// Static description of a target machine.
struct TargetInfo {
  const char *Name = "?";
  unsigned WordBytes = 4;          ///< 4 (MIPS/SPARC) or 8 (Alpha/x64)
  bool HasBranchDelaySlot = false; ///< MIPS/SPARC: one branch delay slot
  unsigned LoadDelaySlots = 0;     ///< architectural load-use delay (MIPS I)
  /// Smallest instruction element the port emits: 4 on the fixed-width
  /// RISC ports, 1 on variable-length x86-64. This is the CodeBuffer
  /// unit; all fixup/word indices are in these units.
  unsigned CodeUnitBytes = 4;

  Reg Zero; ///< hardwired zero register
  Reg At;   ///< assembler temporary, reserved for synthesis sequences
  Reg Sp;   ///< stack pointer
  Reg Ra;   ///< return-address register

  /// Allocation candidates in priority order (paper §3.2: the client can
  /// re-declare the ordering; these are the defaults).
  std::vector<Reg> IntTemps; ///< caller-saved integer registers
  std::vector<Reg> IntSaves; ///< callee-saved integer registers
  std::vector<Reg> FpTemps;  ///< caller-saved FP registers
  std::vector<Reg> FpSaves;  ///< callee-saved FP registers

  CallConv DefaultCC;

  /// Fixed bytes reserved at the bottom of every non-leaf frame for
  /// outgoing arguments (the space-for-time trade of paper §5.2).
  uint32_t OutArgReserveBytes = 32;

  /// Worst-case register save area, reserved in every frame (paper §5.2:
  /// "it simply allocates the space needed to save all machine registers
  /// ... in the worst case, the stack space required to save 32 integer
  /// and floating point registers"). One slot per register number so that
  /// dynamically reclassified registers (paper §5.3 interrupt-handler mode)
  /// have a home too: link slot + 32 integer slots + 32 FP slots.
  uint32_t saveAreaBytes() const {
    return uint32_t(alignTo(33 * WordBytes, 8)) + 32 * 8;
  }

  /// SP offset of the save slot for integer register \p N (slot 32 within
  /// the integer area is the link register's).
  uint32_t intSaveSlot(unsigned N) const {
    return OutArgReserveBytes + N * WordBytes;
  }
  /// SP offset of the link register's save slot.
  uint32_t linkSaveSlot() const { return OutArgReserveBytes + 32 * WordBytes; }
  /// SP offset of the save slot for FP register \p N.
  uint32_t fpSaveSlot(unsigned N) const {
    return uint32_t(alignTo(OutArgReserveBytes + 33 * WordBytes, 8)) + N * 8;
  }

  /// SP offset where locals start (above out-args and the save area).
  uint32_t localAreaBase() const {
    return OutArgReserveBytes + saveAreaBytes();
  }
};

/// Operand of a client-defined extension instruction (paper §5.4).
struct Operand {
  enum KindType : uint8_t { RegOp, ImmOp, FpImmOp, LabelOp } Kind = ImmOp;
  Reg R;
  int64_t Imm = 0;
  double FpImm = 0;
  Label L;
};

/// Makes a register operand.
inline Operand opReg(Reg R) {
  Operand O;
  O.Kind = Operand::RegOp;
  O.R = R;
  return O;
}
/// Makes an immediate operand.
inline Operand opImm(int64_t V) {
  Operand O;
  O.Kind = Operand::ImmOp;
  O.Imm = V;
  return O;
}
/// Makes a floating-point immediate operand.
inline Operand opFpImm(double V) {
  Operand O;
  O.Kind = Operand::FpImmOp;
  O.FpImm = V;
  return O;
}
/// Makes a label operand.
inline Operand opLabel(Label L) {
  Operand O;
  O.Kind = Operand::LabelOp;
  O.L = L;
  return O;
}

/// Body of an extension instruction: emits code through the VCode state.
using ExtensionFn =
    std::function<void(VCode &, const Operand *Ops, unsigned NumOps)>;

/// Interned identity of an extension instruction on one Target
/// (paper §5.4). The string name is looked up once — at defineInstruction
/// or findInstruction time — and emission indexes a flat vector, so the
/// per-emission cost of an extension instruction is one bounds check and
/// an indirect call. Ids are only meaningful on the Target that issued
/// them; a redefined instruction keeps its id (the body is replaced in
/// place), so captured ids always see the latest override.
struct ExtId {
  uint32_t Idx = ~0u;

  constexpr bool isValid() const { return Idx != ~0u; }
};

/// Abstract backend. All emit methods write machine words into
/// VCode::buf() immediately — there is no intermediate representation.
class Target {
public:
  virtual ~Target();

  virtual const TargetInfo &info() const = 0;

  // --- Instruction transliteration (paper Table 2) -----------------------
  virtual void emitBinop(VCode &VC, BinOp Op, Type Ty, Reg Rd, Reg Rs1,
                         Reg Rs2) = 0;
  virtual void emitBinopImm(VCode &VC, BinOp Op, Type Ty, Reg Rd, Reg Rs1,
                            int64_t Imm) = 0;
  virtual void emitUnop(VCode &VC, UnOp Op, Type Ty, Reg Rd, Reg Rs) = 0;
  virtual void emitSetInt(VCode &VC, Type Ty, Reg Rd, uint64_t Imm) = 0;
  virtual void emitSetFp(VCode &VC, Type Ty, Reg Rd, double Val) = 0;
  virtual void emitCvt(VCode &VC, Type From, Type To, Reg Rd, Reg Rs) = 0;
  virtual void emitLoad(VCode &VC, Type Ty, Reg Rd, Reg Base, Reg Off) = 0;
  virtual void emitLoadImm(VCode &VC, Type Ty, Reg Rd, Reg Base,
                           int64_t Off) = 0;
  virtual void emitStore(VCode &VC, Type Ty, Reg Val, Reg Base, Reg Off) = 0;
  virtual void emitStoreImm(VCode &VC, Type Ty, Reg Val, Reg Base,
                            int64_t Off) = 0;
  virtual void emitBranch(VCode &VC, Cond C, Type Ty, Reg Rs1, Reg Rs2,
                          Label L) = 0;
  virtual void emitBranchImm(VCode &VC, Cond C, Type Ty, Reg Rs1, int64_t Imm,
                             Label L) = 0;
  virtual void emitJump(VCode &VC, Label L) = 0;
  virtual void emitJumpReg(VCode &VC, Reg R) = 0;
  virtual void emitJumpAddr(VCode &VC, SimAddr A) = 0;
  virtual void emitCallAddr(VCode &VC, SimAddr A) = 0;
  virtual void emitCallLabel(VCode &VC, Label L) = 0;
  /// Return-through-link-register for local subroutines entered with
  /// callLabel/callReg (accounts for the machine's link semantics, e.g.
  /// SPARC linking to the call site rather than past it).
  virtual void emitLinkReturn(VCode &VC) = 0;
  virtual void emitCallReg(VCode &VC, Reg R) = 0;
  virtual void emitRet(VCode &VC, Type Ty, Reg Rs) = 0;
  /// Return an integer constant: materialize \p Imm into the result
  /// register and return, as one fused sequence. On delay-slot machines a
  /// small constant rides the return's slot (one instruction shorter than
  /// setInt + ret); machines without a slot skip the result move.
  virtual void emitRetImm(VCode &VC, Type Ty, int64_t Imm) = 0;
  virtual void emitNop(VCode &VC) = 0;

  // --- Function framing ---------------------------------------------------
  /// Called by v_lambda after argument locations are known: reserves
  /// prologue space in the instruction stream (paper §5.2).
  virtual void beginFunction(VCode &VC) = 0;
  /// Called by v_end: writes the real prologue into the reserved area,
  /// emits the epilogue (or rewrites returns when none is needed) and
  /// returns the entry address.
  virtual CodePtr endFunction(VCode &VC) = 0;
  /// Completes one patch site now that the label address is known.
  virtual void applyFixup(VCode &VC, const Fixup &F, SimAddr Target) = 0;

  // --- Debugging (paper §6.2) ----------------------------------------------
  /// Symbolic disassembly of one emitted instruction word; ports override
  /// (default prints a raw .word). This is the §6.2 "symbolic debugger"
  /// support the paper names as its most critical missing piece.
  virtual std::string disassemble(uint32_t Word, SimAddr Pc) const;

  // --- Extensibility (paper §5.4) -----------------------------------------
  //
  // Thread-safety / ordering guarantee of the registry: registration and
  // lookup (defineInstruction / findInstruction / hasInstruction) may be
  // called concurrently from any number of threads; each call is atomic.
  // Emission through a valid ExtId (emitExtension) takes no lock and may
  // run concurrently with registration of *other* instructions: the id
  // count is published with release/acquire ordering and the registry's
  // storage never reallocates, so an ExtId obtained from any thread is
  // immediately usable on every thread. The one operation requiring
  // external ordering is *redefinition*: replacing the body of a name
  // while another thread is emitting that same id is a race — redefine
  // only during setup, or synchronize with the emitting threads.

  /// Registers an extension instruction under \p Name and returns its
  /// interned id. Redefining an existing name replaces the body in place,
  /// so previously interned ids observe the override. Thread-safe against
  /// concurrent registration, lookup, and emission of other ids.
  ExtId defineInstruction(const std::string &Name, ExtensionFn Fn);
  /// Interns \p Name; returns an invalid ExtId if it was never defined.
  /// Thread-safe.
  ExtId findInstruction(const std::string &Name) const;
  /// True if \p Name names a registered extension.
  bool hasInstruction(const std::string &Name) const {
    return findInstruction(Name).isValid();
  }
  /// Name of a registered extension (diagnostics).
  const char *instructionName(ExtId Id) const;

  /// Emits a pre-interned extension instruction: the hot path — no string
  /// lookup and no lock, just an acquire-load of the published id count
  /// and an index into the (reallocation-free) registry.
  void emitExtension(VCode &VC, ExtId Id, const Operand *Ops,
                     unsigned NumOps) {
    if (!Id.isValid() || Id.Idx >= ExtCount.load(std::memory_order_acquire))
      fatal("unknown extension instruction id %u on target %s",
            unsigned(Id.Idx), info().Name);
    ExtFns[Id.Idx](VC, Ops, NumOps);
  }
  /// Emits extension \p Name; fatal error if it was never defined. The
  /// string-keyed facade over the interned registry (pays one map lookup
  /// under the registry lock).
  void emitExtension(VCode &VC, const std::string &Name, const Operand *Ops,
                     unsigned NumOps);

  /// Capacity bound of the extension registry. Fixed so the flat body
  /// vector never reallocates, which is what lets emitExtension index it
  /// without taking ExtMutex while another thread registers.
  static constexpr uint32_t MaxExtensions = 4096;

  /// The register allocator's initial state for info(): built once, on
  /// first use (thread-safe), then copied by every v_lambda instead of
  /// being rebuilt from the register lists per function.
  const RegAlloc &regAllocImage() const;

protected:
  Target();

private:
  mutable std::once_flag RegImageOnce;
  mutable std::unique_ptr<const RegAlloc> RegImage;

  /// Flat interned registry: bodies and names indexed by ExtId::Idx. The
  /// string map is consulted only at define/find time, never at emission.
  /// ExtMutex guards all mutation plus the string map; readers of ExtFns
  /// synchronize through the release-store of ExtCount in
  /// defineInstruction (the vector's capacity is reserved up front, so
  /// elements below ExtCount are never moved).
  mutable std::mutex ExtMutex;
  std::vector<ExtensionFn> ExtFns;
  std::atomic<uint32_t> ExtCount{0};
  std::deque<std::string> ExtNames; // deque: names stay pinned for c_str()
  std::map<std::string, uint32_t> ExtIndex;
};

} // namespace vcode

#endif // VCODE_CORE_TARGET_H
