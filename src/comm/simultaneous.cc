#include "comm/simultaneous.h"

#include <algorithm>
#include <vector>

#include "graph/traversal.h"
#include "util/check.h"

namespace gms {

CommReport RunSimultaneousConnectivity(const Hypergraph& g,
                                       uint64_t public_seed,
                                       const ForestSketchParams& params) {
  CommReport report;
  const size_t n = g.NumVertices();
  report.num_players = n;
  size_t max_rank = std::max<size_t>(g.Rank(), 2);

  // The public random string fixes the measurement; every player derives
  // the same shapes from `public_seed`, so a player's single-vertex sketch
  // and the referee's full sketch agree cell-for-cell on that vertex.
  SpanningForestSketch referee_state(n, max_rank, public_seed, params);

  std::vector<uint8_t> frame;
  for (VertexId v = 0; v < n; ++v) {
    // Player v: a sketch whose state is allocated for v alone, fed ONLY
    // v's incident edges.
    std::vector<bool> mine(n, false);
    mine[v] = true;
    SpanningForestSketch player(n, max_rank, public_seed, params, &mine);
    for (uint32_t idx : g.IncidentIndices(v)) {
      player.UpdateLocal(v, g.Edges()[idx], +1);
    }
    // The message is the serialized frame -- sizes below are measured from
    // the bytes actually produced, not estimated from in-memory state.
    frame.clear();
    player.Serialize(&frame);
    report.max_message_bytes = std::max(report.max_message_bytes, frame.size());
    report.total_bytes += frame.size();

    // Referee side: parse the frame back and fold it in. The deserialized
    // sketch is active at {v} only; MergeFrom's subset-active semantics add
    // its cells into the referee's full state.
    auto message = SpanningForestSketch::Deserialize(frame);
    GMS_CHECK_MSG(message.ok(), "referee failed to parse a player frame");
    Status merged = referee_state.MergeFrom(*message);
    GMS_CHECK_MSG(merged.ok(), "referee failed to merge a player frame");
  }

  QueryResult<Hypergraph> span = referee_state.Query();
  if (span.ok()) {
    report.referee_answer_connected = IsConnected(span.value());
    report.referee_components = NumComponents(span.value());
  }
  report.exact_connected = IsConnected(g);
  report.correct = span.ok() &&
                   report.referee_answer_connected == report.exact_connected;
  return report;
}

}  // namespace gms
