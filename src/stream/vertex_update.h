// The per-endpoint entry the shared ingestion plane (stream/ingest_plane.h)
// hands to a sketch's ApplyUpdateBatch.
//
// Because every sketch here is LINEAR, updates destined for the same
// vertex can be coalesced and applied in any order: the plane prepares each
// update once (codec rank, key fold, exponent reduction), buffers one
// compact VertexUpdate per endpoint in that endpoint's gutter, and replays
// a full gutter over the vertex's contiguous sketch block while it is
// cache resident.
#ifndef GMS_STREAM_VERTEX_UPDATE_H_
#define GMS_STREAM_VERTEX_UPDATE_H_

#include <cstdint>

#include "sketch/sparse_recovery.h"

namespace gms {

/// One buffered incidence update for one endpoint vertex: everything the
/// per-vertex apply needs, with the shape-independent preparation (codec
/// index, folded key halves, reduced exponent) done ONCE and shared by
/// every sketch the entry fans out to. The hyperedge itself does not
/// travel: the incidence coefficient (|e|-1 at the minimum endpoint, -1
/// elsewhere, times the stream delta) is the only endpoint-dependent part
/// of the update, and routing decisions that need the other endpoints (the
/// vertex-subsampled containers) are folded into `route` up front.
struct VertexUpdate {
  PreparedCoord pc;
  /// Container-defined routing bits, computed by PlaneRouteMask(e) before
  /// fan-out: bit i set means sub-sketch family i receives this update
  /// (kept-bitmap membership for the subsampled containers; plain sketches
  /// use the constant mask 1 and ignore it on apply).
  uint64_t route = 0;
  /// IncidenceCoefficient(e, v) * delta: the signed weight this endpoint's
  /// cells receive (Section 4.1 encoding).
  int64_t coeff = 0;
};

}  // namespace gms

#endif  // GMS_STREAM_VERTEX_UPDATE_H_
