package core

import "repro/internal/graph"

// LogCostOf reports the §5.1 credit cell ln C(g) of the committed entry
// isomorphic to g, for the external tests that pin credits without reaching
// into the snapshot.
func (q *IGQ) LogCostOf(g *graph.Graph) (logCost float64, ok bool) {
	e := q.snap.Load().identical(g, graph.Fingerprint(g), &Outcome{})
	if e == nil {
		return 0, false
	}
	return e.loadLogCost(), true
}
