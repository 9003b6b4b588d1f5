//===- core/Target.cpp - Backend interface --------------------------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//

#include "core/Target.h"
#include "core/RegAlloc.h"
#include <cstdio>

using namespace vcode;

Target::Target() { ExtFns.reserve(MaxExtensions); }

// Virtual method anchor.
Target::~Target() = default;

const RegAlloc &Target::regAllocImage() const {
  std::call_once(RegImageOnce, [this] {
    auto RA = std::make_unique<RegAlloc>();
    RA->init(info());
    RegImage = std::move(RA);
  });
  return *RegImage;
}

std::string Target::disassemble(uint32_t Word, SimAddr Pc) const {
  (void)Pc;
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), ".word   0x%08x", Word);
  return Buf;
}

ExtId Target::defineInstruction(const std::string &Name, ExtensionFn Fn) {
  std::lock_guard<std::mutex> Lock(ExtMutex);
  auto It = ExtIndex.find(Name);
  if (It != ExtIndex.end()) {
    // Override: replace the body in place so ids interned before the
    // redefinition keep resolving (and see the new body). Racy against
    // concurrent emission of this same id — see the ordering guarantee
    // in Target.h: redefinition happens-before the next emission.
    ExtFns[It->second] = std::move(Fn);
    return ExtId{It->second};
  }
  uint32_t Idx = ExtCount.load(std::memory_order_relaxed);
  if (Idx >= MaxExtensions)
    fatal("extension registry full (%u instructions) on target %s",
          unsigned(MaxExtensions), info().Name);
  ExtFns.push_back(std::move(Fn)); // capacity reserved: no reallocation
  ExtNames.push_back(Name);
  ExtIndex.emplace(Name, Idx);
  // Publish: emitExtension acquire-loads the count, so the body written
  // above is visible on any thread that sees the new id as in range.
  ExtCount.store(Idx + 1, std::memory_order_release);
  return ExtId{Idx};
}

ExtId Target::findInstruction(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(ExtMutex);
  auto It = ExtIndex.find(Name);
  return It == ExtIndex.end() ? ExtId{} : ExtId{It->second};
}

const char *Target::instructionName(ExtId Id) const {
  std::lock_guard<std::mutex> Lock(ExtMutex);
  if (!Id.isValid() || Id.Idx >= ExtNames.size())
    return "<invalid>";
  return ExtNames[Id.Idx].c_str();
}

void Target::emitExtension(VCode &VC, const std::string &Name,
                           const Operand *Ops, unsigned NumOps) {
  ExtId Id = findInstruction(Name);
  if (!Id.isValid())
    fatal("unknown extension instruction '%s' on target %s", Name.c_str(),
          info().Name);
  ExtFns[Id.Idx](VC, Ops, NumOps);
}
