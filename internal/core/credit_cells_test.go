package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/index/ggsx"
)

// Differential tests for the per-entry atomic credit cells that replaced the
// single credit-commit mutex (§5.1 sharding). The reference implementation
// below is the old path: one mutex serialising every credit application onto
// a plain field. The atomic-cell path must match it exactly when replaying
// the same credit stream in the same order, and must keep a sane,
// order-independent-up-to-rounding cost fold under concurrent application.

// lockedEntry replays credits the way the pre-sharding code did: every
// update under one mutex, plain fields.
type lockedEntry struct {
	mu      sync.Mutex
	logCost float64
}

func (l *lockedEntry) applyCredit(logCostDelta float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.logCost = LogSumExp(l.logCost, logCostDelta)
}

type creditOp struct {
	removed int64
	delta   float64
}

func randomCredits(rng *rand.Rand, n int) []creditOp {
	ops := make([]creditOp, n)
	for i := range ops {
		ops[i] = creditOp{
			removed: int64(rng.Intn(40)),
			// log-domain costs in a realistic range, including -Inf
			// (a hit that pruned nothing still counts as a hit).
			delta: math.Inf(-1),
		}
		if ops[i].removed > 0 {
			ops[i].delta = LogIsoCost(3+rng.Intn(10), 5+rng.Intn(60), 8)
		}
	}
	return ops
}

// Sequential replay: same order, so the atomic path must be bit-identical
// to the mutex path — the fold itself is the same LogSumExp sequence.
func TestCreditCellsMatchLockedReferenceSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	ops := randomCredits(rng, 500)

	e := newEntry(1, tinyGraph(), nil, 0)
	ref := &lockedEntry{logCost: math.Inf(-1)}
	for _, op := range ops {
		e.applyCredit(op.delta)
		ref.applyCredit(op.delta)
	}

	if got := e.loadLogCost(); got != ref.logCost {
		t.Errorf("logCost = %v, reference %v (same-order fold must be bit-identical)", got, ref.logCost)
	}
}

// Concurrent replay under -race: the CAS-folded logCost is order-dependent
// only up to float rounding, so it is pinned within a small relative
// tolerance of the sequential fold (LogSumExp is commutative in exact
// arithmetic).
func TestCreditCellsConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	const workers, perWorker = 8, 300
	ops := randomCredits(rng, workers*perWorker)

	e := newEntry(1, tinyGraph(), nil, 0)
	ref := &lockedEntry{logCost: math.Inf(-1)}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		slice := ops[w*perWorker : (w+1)*perWorker]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, op := range slice {
				e.applyCredit(op.delta)
				ref.applyCredit(op.delta)
			}
		}()
	}
	wg.Wait()

	seq := math.Inf(-1)
	for _, op := range ops {
		seq = LogSumExp(seq, op.delta)
	}
	got := e.loadLogCost()
	if math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("logCost = %v after concurrent fold", got)
	}
	if diff := math.Abs(got - seq); diff > 1e-9*math.Abs(seq) {
		t.Errorf("logCost = %v, sequential fold %v (diff %v beyond rounding)", got, seq, diff)
	}
	if diff := math.Abs(ref.logCost - seq); diff > 1e-9*math.Abs(seq) {
		t.Errorf("reference logCost = %v, sequential fold %v", ref.logCost, seq)
	}
}

// End-to-end: with credits applied lock-free at commit, a full cached
// workload must leave every entry a coherent §5.1 credit.
func TestCreditCellsEndToEndCoherence(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	db := buildDB(rng, 16)
	m := ggsx.New(ggsx.DefaultOptions())
	m.Build(db)
	ig := New(m, db, Options{CacheSize: 8, Window: 3})
	queries := workload(rng, db, 120)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(queries); i += 4 {
				ig.Query(queries[i])
			}
		}(w)
	}
	wg.Wait()
	for _, e := range ig.snap.Load().entries {
		if math.IsNaN(e.loadLogCost()) {
			t.Fatalf("entry %d: NaN logCost", e.id)
		}
	}
}
