package core

import "repro/internal/graph"

// CreditsOf reports the §5.1 credit cells of the committed entry isomorphic
// to g, for the external tests that pin credits without reaching into the
// snapshot.
func (q *IGQ) CreditsOf(g *graph.Graph) (hits, removed int64, logCost float64, ok bool) {
	e := q.snap.Load().identical(g, graph.Fingerprint(g), &Outcome{})
	if e == nil {
		return 0, 0, 0, false
	}
	return e.hits.Load(), e.removed.Load(), e.loadLogCost(), true
}
