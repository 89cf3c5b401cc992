//===- Workloads.h - the benchmark's workloads -------------------*- C++ -*-===//
///
/// \file
/// Entry points of the three workloads (README.md says why each exists):
///
///   bug-hunt    UNSAFE protocol cells, satisfiable search
///   safe-proof  SAFE fully fenced protocol cells, UNSAT proofs
///   serve-mix   random fuzz programs through an in-process vbmc-serve
///
/// plus the seeded determinism self-test.
///
//===----------------------------------------------------------------------===//

#ifndef VBMC_PERFBENCH_WORKLOADS_H
#define VBMC_PERFBENCH_WORKLOADS_H

#include "Common.h"

namespace perfbench {

/// bug-hunt and safe-proof.
bool isProtocolWorkload(const std::string &Name);
RunResult runProtocolWorkload(const Args &A);

RunResult runServeMix(const Args &A);

/// Fingerprint of a short run of a protocol workload: the seeded
/// counters (conflicts, propagations, AIG nodes, translated variables) of
/// its first two cells under the first two phase policies, in order.
std::string protocolFingerprint(const std::string &Workload, uint64_t Seed);

/// Fingerprint of the serve-mix inputs: the program pool and the request
/// schedule the seed generates.
std::string serveMixInputFingerprint(uint64_t Seed);

} // namespace perfbench

#endif // VBMC_PERFBENCH_WORKLOADS_H
