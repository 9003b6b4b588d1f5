//===- dpf/Filter.cpp - Packet-filter language and workloads ----------------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//

#include "dpf/Filter.h"
#include "support/Error.h"
#include <algorithm>

using namespace vcode;
using namespace vcode::dpf;

std::vector<Filter> vcode::dpf::makeTcpIpFilters(unsigned N,
                                                 uint16_t BasePort,
                                                 uint32_t DstIp) {
  std::vector<Filter> Filters;
  Filters.reserve(N);
  for (unsigned I = 0; I < N; ++I) {
    Filter F;
    F.Id = int(I);
    // (1) IPv4 header, (2) protocol == TCP, (3) our address, (4) the
    // endpoint's port — the per-filter runtime constant.
    F.Atoms.push_back(Atom{pkt::VersionOff, 1, 0xff, 0x45});
    F.Atoms.push_back(Atom{pkt::ProtoOff, 1, 0xff, 6});
    F.Atoms.push_back(Atom{pkt::DstIpOff, 4, 0xffffffff, DstIp});
    F.Atoms.push_back(
        Atom{pkt::DstPortOff, 2, 0xffff, uint32_t(BasePort + I)});
    Filters.push_back(std::move(F));
  }
  return Filters;
}

namespace {

// The canonical key is rebuilt per installShared call, hits included, so
// it is a hot path under churn; it is also hashed, compared and stored
// per install, so its length matters as much as its formatting. Every
// field is written fixed-width in base 64 — a shift, mask and add per
// character, no division, and the length is plain arithmetic on atom
// counts — over the printable characters '?'..'~', which keeps the key
// short, injective without field separators (';' ends a filter and is
// not a digit) and printable on one line (it names the CodeMap entry and
// the perf-map symbol).

/// Writes \p V as \p Digits base-64 digits, most significant first.
template <unsigned Digits> char *putDigits(char *P, uint32_t V) {
  for (unsigned I = Digits; I-- > 0; V >>= 6)
    P[I] = char('?' + (V & 63));
  return P + Digits;
}

/// First edge of \p Edges (sorted by value) whose value is not below \p V.
template <typename EdgeVec> auto findEdge(EdgeVec &Edges, uint32_t V) {
  return std::lower_bound(
      Edges.begin(), Edges.end(), V,
      [](const std::pair<uint32_t, int> &E, uint32_t X) { return E.first < X; });
}

/// Key bytes per filter (32-bit id, then ';') and per atom (32-bit
/// offset, 8-bit size, 32-bit mask and value).
constexpr size_t FilterKeyBytes = 6 + 1, AtomKeyBytes = 6 + 2 + 6 + 6;

} // namespace

void vcode::dpf::appendFilterSetKey(std::string &Key,
                                    const std::vector<Filter> &Filters) {
  // Per filter: "<id><atom>...;" with the id as 32-bit two's complement
  // and each atom as <offset><size><mask><value>.
  size_t Len = 0;
  for (const Filter &F : Filters)
    Len += FilterKeyBytes + AtomKeyBytes * F.Atoms.size();
  size_t Base = Key.size();
  Key.resize(Base + Len);
  char *P = Key.data() + Base;
  for (const Filter &F : Filters) {
    P = putDigits<6>(P, uint32_t(F.Id));
    for (const Atom &A : F.Atoms) {
      P = putDigits<6>(P, A.Offset);
      P = putDigits<2>(P, A.Size);
      P = putDigits<6>(P, A.Mask);
      P = putDigits<6>(P, A.Value);
    }
    *P++ = ';';
  }
}

std::string vcode::dpf::filterSetKey(const std::vector<Filter> &Filters) {
  std::string Key;
  appendFilterSetKey(Key, Filters);
  return Key;
}

void vcode::dpf::writeTcpPacket(sim::Memory &M, SimAddr At, uint16_t DstPort,
                                uint32_t DstIp, uint16_t SrcPort) {
  for (uint32_t I = 0; I < pkt::HeaderBytes; ++I)
    M.write<uint8_t>(At + I, 0);
  M.write<uint8_t>(At + pkt::VersionOff, 0x45);
  M.write<uint8_t>(At + pkt::ProtoOff, 6);
  M.write<uint32_t>(At + pkt::SrcIpOff, 0xc0a80001);
  M.write<uint32_t>(At + pkt::DstIpOff, DstIp);
  M.write<uint16_t>(At + pkt::SrcPortOff, SrcPort);
  M.write<uint16_t>(At + pkt::DstPortOff, DstPort);
}

Trie Trie::build(const std::vector<Filter> &Filters) {
  Trie T;
  // Every atom adds at most one node: reserve once instead of moving the
  // nodes' edge maps on each reallocation.
  size_t MaxNodes = 1;
  for (const Filter &F : Filters)
    MaxNodes += F.Atoms.size();
  T.Nodes.reserve(MaxNodes);
  T.Nodes.emplace_back(); // root
  for (const Filter &F : Filters) {
    int Cur = 0;
    for (const Atom &A : F.Atoms) {
      Node &N = T.Nodes[Cur];
      if (!N.HasField) {
        N.HasField = true;
        N.Offset = A.Offset;
        N.Size = A.Size;
        N.Mask = A.Mask;
      } else if (N.Offset != A.Offset || N.Size != A.Size ||
                 N.Mask != A.Mask) {
        fatal("dpf trie: filters disagree on the field at step (offset %u "
              "vs %u); out-of-order atom lists are not supported",
              N.Offset, A.Offset);
      }
      auto &Edges = T.Nodes[Cur].Edges;
      auto It = findEdge(Edges, A.Value);
      if (It != Edges.end() && It->first == A.Value) {
        Cur = It->second;
      } else {
        int Next = int(T.Nodes.size());
        Edges.insert(It, {A.Value, Next});
        T.Nodes.emplace_back();
        Cur = Next;
      }
    }
    if (T.Nodes[Cur].AcceptId >= 0 && T.Nodes[Cur].AcceptId != F.Id)
      fatal("dpf trie: duplicate filter (ids %d and %d)",
            T.Nodes[Cur].AcceptId, F.Id);
    T.Nodes[Cur].AcceptId = F.Id;
  }
  return T;
}

int Trie::classify(const sim::Memory &M, SimAddr Msg) const {
  if (Nodes.empty())
    return -1;
  int Cur = 0;
  for (;;) {
    const Node &N = Nodes[Cur];
    // A node with a field dispatches on it; its AcceptId (a filter that
    // is a strict prefix of another) is ignored, because the compiled
    // classifier routes every dispatch miss to the shared reject exit.
    // Only fieldless leaves accept — mirror that exactly.
    if (!N.HasField)
      return N.AcceptId;
    uint32_t V;
    switch (N.Size) {
    case 1:
      V = M.read<uint8_t>(Msg + N.Offset);
      break;
    case 2:
      V = M.read<uint16_t>(Msg + N.Offset);
      break;
    default:
      V = M.read<uint32_t>(Msg + N.Offset);
      break;
    }
    V &= N.Mask;
    auto It = findEdge(N.Edges, V);
    if (It == N.Edges.end() || It->first != V)
      return -1; // dispatch miss rejects even at an interior accept state
    Cur = It->second;
  }
}
