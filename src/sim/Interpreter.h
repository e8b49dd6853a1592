//===----------------------------------------------------------------------===//
///
/// \file
/// The sequential driver of the decoded execution engine (src/exec/): a
/// thin wrapper that decodes its module once (through the process-wide
/// DecodeCache) and runs the shared dispatch loop over private memory. The
/// profiler, the trace collector feeding the CMP timing simulator, and the
/// differential-correctness tests all attach here as ExecObservers.
/// Wait/Signal/IterStart execute as (cheap) no-ops in sequential
/// interpretation, which is exactly the sequential-version semantics that
/// HELIX Step 9 relies on.
///
/// The original tree-walking implementation is retained as
/// sim/TreeWalkInterpreter.h — the reference the differential tests and
/// the BM_ExecEngineVsTreeWalk benchmark compare against.
///
//===----------------------------------------------------------------------===//

#ifndef HELIX_SIM_INTERPRETER_H
#define HELIX_SIM_INTERPRETER_H

#include "exec/ExecEngine.h"
#include "ir/Module.h"
#include "sim/Value.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace helix {

/// Interprets a module over the decoded program representation. Memory
/// layout: address 0 is reserved; globals get consecutive base addresses
/// from 1; the heap grows after the globals; stack (Alloca) addresses live
/// in a disjoint high range.
class Interpreter : public ExecState {
public:
  /// Decodes \p M (or reuses the process-wide decode cache). The module
  /// must not be mutated for the interpreter's lifetime.
  explicit Interpreter(Module &M);

  /// Caps run length (defence against accidental endless loops).
  void setMaxInstructions(uint64_t Max) { MaxInstructions = Max; }
  /// Every instruction run() executes reports to \p O (null detaches).
  void setObserver(ExecObserver *O) { Obs = O; }

  /// Runs function \p Name (default signature: no args) to completion.
  ExecResult run(const std::string &Name = "main",
                 const std::vector<Value> &Args = {});

  // --- Introspection for observers (ExecState) ---------------------------
  unsigned callDepth() const override { return unsigned(Ctx.Frames.size()); }
  const Function *currentFunction() const override;
  /// Value of an operand in the current (innermost) frame.
  Value operandValue(const Operand &O) const override;
  /// Base address of global \p Idx.
  uint64_t globalBase(unsigned Idx) const override {
    return Prog->globalBase(Idx);
  }

  /// The decoded program this interpreter runs.
  const ExecProgram &program() const { return *Prog; }

private:
  std::shared_ptr<const ExecProgram> Prog;
  PrivateExecMemory Mem;
  ExecContext Ctx;
  ExecObserver *Obs = nullptr;
  uint64_t MaxInstructions = ExecLimits::DefaultMaxSteps;
};

} // namespace helix

#endif // HELIX_SIM_INTERPRETER_H
