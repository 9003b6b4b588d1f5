//===- perfbench/src/Gen.cpp - Seeded benchmark input generators ----------===//
//
// Part of the vcode reproduction of Engler, PLDI 1996.
//
//===----------------------------------------------------------------------===//

#include "Gen.h"
#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>

namespace perfbench {

uint64_t subSeed(uint64_t Seed, uint64_t Stream) {
  Rng R(Seed * 0x2545f4914f6cdd1dull + Stream * 0x9e3779b97f4a7c15ull + 1);
  return R.next();
}

Zipf::Zipf(unsigned N, double S) : Cdf(N) {
  double Sum = 0;
  for (unsigned R = 0; R < N; ++R)
    Cdf[R] = (Sum += 1.0 / std::pow(double(R + 1), S));
  for (double &C : Cdf)
    C /= Sum;
  Cdf.back() = 1.0;
}

unsigned Zipf::draw(Rng &R) const {
  double U = R.real();
  return unsigned(std::upper_bound(Cdf.begin(), Cdf.end(), U) - Cdf.begin());
}

// --- DPF ---------------------------------------------------------------------

using vcode::dpf::Atom;
using vcode::dpf::Filter;

void packetBytes(const Packet &P, uint8_t Out[PacketBytes]) {
  std::memset(Out, 0, PacketBytes);
  Out[0] = 0x45;
  Out[9] = P.Proto;
  std::memcpy(Out + 12, &P.SrcIp, 4);
  std::memcpy(Out + 16, &P.DstIp, 4);
  std::memcpy(Out + 20, &P.SrcPort, 2);
  std::memcpy(Out + 22, &P.DstPort, 2);
}

int groundTruth(const std::vector<Filter> &Filters,
                const uint8_t Bytes[PacketBytes]) {
  for (const Filter &F : Filters) {
    bool All = true;
    for (const Atom &A : F.Atoms) {
      uint32_t V = 0;
      std::memcpy(&V, Bytes + A.Offset, A.Size); // little-endian host
      if ((V & A.Mask) != A.Value) {
        All = false;
        break;
      }
    }
    if (All)
      return F.Id;
  }
  return -1;
}

namespace {

constexpr unsigned FiltersPerSet = 10;

/// Ports for one (protocol, host) group of \p K filters: a dense run
/// (jump-table dispatch) or scattered ports (hash, binary or chain).
std::vector<uint16_t> groupPorts(Rng &R, unsigned K, bool Dense) {
  std::vector<uint16_t> P;
  if (Dense) {
    uint16_t Base = uint16_t(1024 + R.below(60000));
    for (unsigned I = 0; I < K; ++I)
      P.push_back(uint16_t(Base + I));
  } else {
    std::set<uint16_t> Seen;
    while (P.size() < K) {
      uint16_t V = uint16_t(1 + R.below(65535));
      if (Seen.insert(V).second)
        P.push_back(V);
    }
  }
  return P;
}

} // namespace

std::vector<FilterSet> makeFilterSets(unsigned N, uint64_t Seed) {
  Rng R(subSeed(Seed, 1));
  std::vector<FilterSet> Sets(N);
  for (unsigned S = 0; S < N; ++S) {
    FilterSet &FS = Sets[S];
    // Shape: which (protocol, host) groups the ten filters fall into.
    unsigned Shape = R.below(4);
    bool TwoProtos = Shape & 1, TwoHosts = Shape & 2;
    bool SrcNet = R.below(10) < 3;
    uint32_t Hosts[2] = {0x0a000000u | R.below(1u << 24),
                         0xc0a80000u | R.below(1u << 16)};
    uint32_t Net = (0xac100000u | R.below(1u << 20)) & 0xffffff00u;
    unsigned Groups = (TwoProtos ? 2 : 1) * (TwoHosts ? 2 : 1);
    // Split the filters over the groups (each group gets at least one).
    std::vector<unsigned> Size(Groups, 1);
    for (unsigned I = Groups; I < FiltersPerSet; ++I)
      ++Size[R.below(Groups)];
    std::vector<Packet> Miss;
    for (unsigned G = 0; G < Groups; ++G) {
      uint8_t Proto = (TwoProtos && (G & 1)) ? 17 : 6;
      uint32_t Host = Hosts[TwoHosts ? (G >> (TwoProtos ? 1 : 0)) : 0];
      std::vector<uint16_t> Ports = groupPorts(R, Size[G], R.below(10) < 4);
      for (uint16_t Port : Ports) {
        Filter F;
        F.Id = int(S * FiltersPerSet + FS.Filters.size());
        F.Atoms.push_back(Atom{9, 1, 0xff, Proto});
        F.Atoms.push_back(Atom{16, 4, 0xffffffff, Host});
        if (SrcNet)
          F.Atoms.push_back(Atom{12, 4, 0xffffff00, Net});
        F.Atoms.push_back(Atom{22, 2, 0xffff, Port});
        FS.Filters.push_back(F);
        Packet P;
        P.Proto = Proto;
        P.DstIp = Host;
        P.SrcIp = Net | R.below(256);
        P.SrcPort = uint16_t(1024 + R.below(60000));
        P.DstPort = Port;
        FS.Flows.push_back(P);
      }
      if (G == 0) {
        // Port miss: the group's host and protocol, a port none of its
        // filters accepts.
        Packet P = FS.Flows.back();
        do
          P.DstPort = uint16_t(1 + R.below(65535));
        while (std::find(Ports.begin(), Ports.end(), P.DstPort) != Ports.end());
        Miss.push_back(P);
      }
    }
    // Protocol miss: ICMP to a filtered host.
    Packet P = FS.Flows.front();
    P.Proto = 1;
    Miss.push_back(P);
    FS.Flows.insert(FS.Flows.end(), Miss.begin(), Miss.end());
  }
  return Sets;
}

// --- tcc-lite ----------------------------------------------------------------

namespace {

struct Expr {
  enum Kind { Num, Var, Neg, Not, Bin } K = Num;
  char Op[3] = {0, 0, 0};
  int32_t Value = 0;
  unsigned VarId = 0;
  std::unique_ptr<Expr> L, R;
};

struct Stmt {
  enum Kind { Assign, If, While } K = Assign;
  unsigned VarId = 0; ///< assigned variable, or the loop counter
  int32_t Bound = 0;  ///< loop trip count
  std::unique_ptr<Expr> E;
  std::vector<std::unique_ptr<Stmt>> Then, Else;
};

/// Generates one function's AST, its source text, and evaluates it.
class ProgramGen {
public:
  ProgramGen(Rng &R) : R(R) {}

  TccProgram make(const std::string &Name) {
    unsigned Arity = 1 + R.below(3);
    unsigned NumLocals = 1 + R.below(4);
    for (unsigned I = 0; I < Arity; ++I)
      Names.push_back(std::string(1, char('a' + I)));
    for (unsigned I = 0; I < NumLocals; ++I)
      Names.push_back("x" + std::to_string(I));
    Assignable = unsigned(Names.size());
    for (unsigned I = 0; I < Assignable; ++I)
      Visible.push_back(I);
    // Size classes: mostly small functions, with a tail of large ones.
    unsigned Class = R.below(8);
    unsigned Budget = Class < 3 ? 1 + R.below(4)
                      : Class < 6 ? 5 + R.below(10)
                                  : 16 + R.below(24);
    std::vector<std::unique_ptr<Stmt>> Body = stmts(Budget, 0, 0);
    std::unique_ptr<Expr> Ret = expr(2);

    TccProgram P;
    P.Name = Name;
    std::string &S = P.Source;
    S = Name + "(";
    for (unsigned I = 0; I < Arity; ++I)
      S += (I ? ", " : "") + Names[I];
    S += ") {\n";
    std::vector<int32_t> Env(Names.size(), 0);
    for (unsigned I = Arity; I < Assignable; ++I) {
      Env[I] = int32_t(R.below(50));
      S += "  var " + Names[I] + " = " + std::to_string(Env[I]) + ";\n";
    }
    printStmts(S, Body, 1);
    S += "  return ";
    printExpr(S, *Ret);
    S += ";\n}\n";

    for (unsigned I = 0; I < Arity; ++I) {
      int32_t A = int32_t(R.below(2001)) - 1000;
      P.Args.push_back(A);
      Env[I] = A;
    }
    run(Body, Env);
    P.Expected = eval(*Ret, Env);
    return P;
  }

private:
  Rng &R;
  std::vector<std::string> Names;
  unsigned Assignable = 0;

  /// Variables an expression may read: parameters, locals, and the
  /// counters of the loops enclosing the expression.
  std::vector<unsigned> Visible;

  unsigned anyVar() { return Visible[R.below(unsigned(Visible.size()))]; }

  std::unique_ptr<Expr> leaf() {
    auto E = std::make_unique<Expr>();
    if (R.below(3) == 0) {
      E->K = Expr::Num;
      E->Value = int32_t(R.below(100));
    } else {
      E->K = Expr::Var;
      E->VarId = anyVar();
    }
    return E;
  }

  std::unique_ptr<Expr> bin(const char *Op, std::unique_ptr<Expr> L,
                            std::unique_ptr<Expr> Rt) {
    auto E = std::make_unique<Expr>();
    E->K = Expr::Bin;
    std::strncpy(E->Op, Op, 2);
    E->L = std::move(L);
    E->R = std::move(Rt);
    return E;
  }

  std::unique_ptr<Expr> expr(unsigned Depth) {
    if (Depth == 0 || R.below(4) == 0)
      return leaf();
    static const char *const Arith[] = {"+", "-", "*", "+", "-"};
    switch (R.below(10)) {
    case 0: {
      auto Lit = std::make_unique<Expr>();
      Lit->Value = int32_t(1 + R.below(13));
      return bin(R.below(2) ? "/" : "%", expr(Depth - 1), std::move(Lit));
    }
    case 1: {
      auto E = std::make_unique<Expr>();
      E->K = Expr::Neg;
      E->L = expr(Depth - 1);
      return E;
    }
    case 2:
      return cond(Depth);
    default:
      return bin(Arith[R.below(5)], expr(Depth - 1), expr(Depth - 1));
    }
  }

  std::unique_ptr<Expr> cond(unsigned Depth) {
    static const char *const Cmp[] = {"<", "<=", ">", ">=", "==", "!="};
    unsigned Sub = Depth > 1 ? Depth - 1 : 0;
    switch (R.below(6)) {
    case 0:
      if (Depth > 1)
        return bin(R.below(2) ? "&&" : "||", cond(Depth - 1), cond(Depth - 1));
      break;
    case 1:
      if (Depth > 1) {
        auto E = std::make_unique<Expr>();
        E->K = Expr::Not;
        E->L = cond(Depth - 1);
        return E;
      }
      break;
    default:
      break;
    }
    return bin(Cmp[R.below(6)], expr(Sub), expr(Sub));
  }

  std::vector<std::unique_ptr<Stmt>> stmts(unsigned Budget, unsigned Nest,
                                           unsigned Loops) {
    std::vector<std::unique_ptr<Stmt>> Out;
    while (Budget > 0) {
      auto S = std::make_unique<Stmt>();
      unsigned Pick = R.below(10);
      if (Pick < 2 && Nest < 3 && Budget >= 3) {
        S->K = Stmt::If;
        S->E = cond(2);
        unsigned Inner = 1 + R.below(std::min(Budget - 1, 6u));
        unsigned ThenN = R.below(2) ? Inner : (Inner + 1) / 2;
        S->Then = stmts(ThenN, Nest + 1, Loops);
        if (ThenN < Inner)
          S->Else = stmts(Inner - ThenN, Nest + 1, Loops);
        Budget -= 1 + Inner;
      } else if (Pick < 4 && Loops < 2 && Nest < 3 && Budget >= 3) {
        S->K = Stmt::While;
        S->VarId = unsigned(Names.size());
        Names.push_back("i" + std::to_string(S->VarId));
        S->Bound = int32_t(1 + R.below(Loops ? 4 : 8));
        unsigned Inner = 1 + R.below(std::min(Budget - 1, 5u));
        Visible.push_back(S->VarId);
        S->Then = stmts(Inner, Nest + 1, Loops + 1);
        Visible.pop_back();
        Budget -= 1 + Inner;
      } else {
        S->K = Stmt::Assign;
        S->VarId = R.below(Assignable);
        S->E = expr(1 + R.below(3));
        Budget -= 1;
      }
      Out.push_back(std::move(S));
    }
    return Out;
  }

  static void indent(std::string &S, unsigned N) { S.append(2 * N, ' '); }

  void printExpr(std::string &S, const Expr &E) {
    switch (E.K) {
    case Expr::Num:
      S += std::to_string(E.Value);
      return;
    case Expr::Var:
      S += Names[E.VarId];
      return;
    case Expr::Neg:
    case Expr::Not:
      S += E.K == Expr::Neg ? "-(" : "!(";
      printExpr(S, *E.L);
      S += ")";
      return;
    case Expr::Bin:
      S += "(";
      printExpr(S, *E.L);
      S += " ";
      S += E.Op;
      S += " ";
      printExpr(S, *E.R);
      S += ")";
      return;
    }
  }

  void printStmts(std::string &S, const std::vector<std::unique_ptr<Stmt>> &B,
                  unsigned Ind) {
    for (const auto &St : B) {
      switch (St->K) {
      case Stmt::Assign:
        indent(S, Ind);
        S += Names[St->VarId] + " = ";
        printExpr(S, *St->E);
        S += ";\n";
        break;
      case Stmt::If:
        indent(S, Ind);
        S += "if (";
        printExpr(S, *St->E);
        S += ") {\n";
        printStmts(S, St->Then, Ind + 1);
        indent(S, Ind);
        S += "}";
        if (!St->Else.empty()) {
          S += " else {\n";
          printStmts(S, St->Else, Ind + 1);
          indent(S, Ind);
          S += "}";
        }
        S += "\n";
        break;
      case Stmt::While: {
        const std::string &I = Names[St->VarId];
        indent(S, Ind);
        S += "var " + I + " = 0;\n";
        indent(S, Ind);
        S += "while (" + I + " < " + std::to_string(St->Bound) + ") {\n";
        printStmts(S, St->Then, Ind + 1);
        indent(S, Ind + 1);
        S += I + " = " + I + " + 1;\n";
        indent(S, Ind);
        S += "}\n";
        break;
      }
      }
    }
  }

  // Host evaluator: int32 wraparound via uint32 arithmetic.
  static int32_t wrap(uint32_t V) { return int32_t(V); }

  int32_t eval(const Expr &E, const std::vector<int32_t> &Env) {
    switch (E.K) {
    case Expr::Num:
      return E.Value;
    case Expr::Var:
      return Env[E.VarId];
    case Expr::Neg:
      return wrap(0u - uint32_t(eval(*E.L, Env)));
    case Expr::Not:
      return eval(*E.L, Env) == 0;
    case Expr::Bin:
      break;
    }
    std::string Op(E.Op);
    if (Op == "&&")
      return eval(*E.L, Env) != 0 && eval(*E.R, Env) != 0;
    if (Op == "||")
      return eval(*E.L, Env) != 0 || eval(*E.R, Env) != 0;
    int32_t A = eval(*E.L, Env), B = eval(*E.R, Env);
    if (Op == "+")
      return wrap(uint32_t(A) + uint32_t(B));
    if (Op == "-")
      return wrap(uint32_t(A) - uint32_t(B));
    if (Op == "*")
      return wrap(uint32_t(A) * uint32_t(B));
    if (Op == "/")
      return A / B; // B is a positive literal
    if (Op == "%")
      return A % B;
    if (Op == "<")
      return A < B;
    if (Op == "<=")
      return A <= B;
    if (Op == ">")
      return A > B;
    if (Op == ">=")
      return A >= B;
    if (Op == "==")
      return A == B;
    return A != B;
  }

  void run(const std::vector<std::unique_ptr<Stmt>> &B,
           std::vector<int32_t> &Env) {
    for (const auto &St : B) {
      switch (St->K) {
      case Stmt::Assign:
        Env[St->VarId] = eval(*St->E, Env);
        break;
      case Stmt::If:
        run(eval(*St->E, Env) ? St->Then : St->Else, Env);
        break;
      case Stmt::While:
        for (Env[St->VarId] = 0; Env[St->VarId] < St->Bound;
             ++Env[St->VarId])
          run(St->Then, Env);
        break;
      }
    }
  }
};

} // namespace

std::vector<TccProgram> makeTccCorpus(unsigned N, uint64_t Seed) {
  Rng R(subSeed(Seed, 2));
  std::vector<TccProgram> Out;
  Out.reserve(N);
  for (unsigned I = 0; I < N; ++I)
    Out.push_back(ProgramGen(R).make("f" + std::to_string(I)));
  return Out;
}

} // namespace perfbench
