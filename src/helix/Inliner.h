//===----------------------------------------------------------------------===//
///
/// \file
/// Function inlining. Step 5 of the HELIX algorithm inlines calls that
/// participate in data dependences, so that a sequential segment covers
/// the callee's memory operations rather than the whole call.
///
//===----------------------------------------------------------------------===//

#ifndef HELIX_HELIX_INLINER_H
#define HELIX_HELIX_INLINER_H

#include "ir/Module.h"

namespace helix {

/// Inlines \p Call (which must be a Call instruction inside \p Caller whose
/// callee is non-recursive) into the caller.
///
/// The caller block is split after the call; the callee's blocks are cloned
/// with registers remapped; argument copies and return-value copies are
/// inserted. Alloca semantics are preserved because Alloca allocates fresh
/// slots on every execution.
///
/// \returns true on success; false if the call is not inlinable (recursive
/// callee).
bool inlineCall(Function *Caller, Instruction *Call);

} // namespace helix

#endif // HELIX_HELIX_INLINER_H
