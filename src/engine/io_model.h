// Analytic I/O cost model: the closed forms of Table II and the MPU vs
// TurboGraph-like ratio of Fig. 6 (paper §III-B, §III-C).
#ifndef NXGRAPH_ENGINE_IO_MODEL_H_
#define NXGRAPH_ENGINE_IO_MODEL_H_

#include <cstdint>

namespace nxgraph {

struct Manifest;

/// \brief Inputs to the I/O model, in the paper's notation.
struct IoModelParams {
  double n = 0;    ///< number of vertices
  double m = 0;    ///< number of edges
  double Ba = 8;   ///< bytes per vertex attribute
  double Bv = 4;   ///< bytes per hub entry's destination (paper: a vertex id)
  double Be = 4;   ///< bytes per (compressed) edge
  double BM = 0;   ///< memory budget in bytes
  double d = 15;   ///< average in-degree of sub-shard destinations
  double P = 16;   ///< number of intervals

  /// Fraction of edge traffic an iteration actually touches. 1.0 models a
  /// fully-active iteration (the paper's Table II); selective scheduling
  /// (per-blob source summaries) makes tail iterations of frontier
  /// algorithms read only the blobs whose sources intersect the frontier,
  /// so sweeping this towards 0 models the late-iteration regime. Scales
  /// the m*Be edge terms and the hub terms — value-segment terms (n*Ba)
  /// stay, since interval reads/writes are skipped per column, not per
  /// edge. The TurboGraph-like baseline ignores it (no selective path).
  double active_fraction = 1.0;
};

/// Model parameters measured from a real prepared store instead of
/// assumed: Be is the ACTUAL encoded bytes per edge — total forward-blob
/// bytes from the manifest's segment table divided by m — so a compressed
/// sub-shard format (NXS2) flows straight into every m*Be term, and d is
/// the measured average in-degree of sub-shard destinations
/// (m / sum(num_dsts)). Bv is the measured destination-set bytes per hub
/// entry: the paper's Table II stores a 4-byte id per entry, while a
/// HubFile segment stores the smaller of a bitmap over its destination
/// interval and that id list (HubFile::DstSetBytes), so Bv is the sum of
/// that over every forward blob divided by sum(num_dsts) — under a byte
/// on dense sub-shards, and never above 4. `value_bytes` sets Ba;
/// `memory_budget_bytes` sets BM (0 = unlimited stays 0 — callers sweeping
/// budgets overwrite it).
IoModelParams MakeIoModelParams(const Manifest& manifest, uint32_t value_bytes,
                                uint64_t memory_budget_bytes);

/// \brief Bread/Bwrite per iteration for one strategy.
struct IoCost {
  double read_bytes = 0;
  double write_bytes = 0;
  double total() const { return read_bytes + write_bytes; }
};

/// SPU: Bread = max(0, m*Be + 2n*Ba - BM), Bwrite = 0 (Table II).
IoCost SpuIoCost(const IoModelParams& p);

/// DPU: Bread = m*Be + m*(Ba+Bv)/d + n*Ba, Bwrite = m*(Ba+Bv)/d + n*Ba.
IoCost DpuIoCost(const IoModelParams& p);

/// MPU with the best feasible Q for the given budget (Table II row 4).
IoCost MpuIoCost(const IoModelParams& p);

/// TurboGraph-like: Bread = m*Be + 2(n*Ba)^2/BM + n*Ba, Bwrite = n*Ba
/// (paper §III-C, with P chosen as 2nBa/BM).
IoCost TurboGraphLikeIoCost(const IoModelParams& p);

/// Number of memory-resident intervals Q = floor(BM / (2 n Ba) * P),
/// clamped to [0, P] (paper §III-B3).
uint32_t MpuResidentIntervals(const IoModelParams& p);

/// Fig. 6 series: ratio of MPU total I/O to TurboGraph-like total I/O.
double MpuToTurboGraphRatio(const IoModelParams& p);

}  // namespace nxgraph

#endif  // NXGRAPH_ENGINE_IO_MODEL_H_
