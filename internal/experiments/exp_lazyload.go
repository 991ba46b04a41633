package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"time"

	"repro/internal/dataset"
	"repro/internal/index/ggsx"
	"repro/internal/persistio"
	"repro/internal/stats"
	"repro/internal/trie"
	"repro/internal/workload"
)

// Extension experiment (perf): lazy loading. Coldstart showed that
// restoring a snapshot beats rebuilding; this experiment measures the next
// step — not decoding the snapshot at all until a query asks for it. Three
// claims are gated:
//
//   - Time-to-first-query: mapping the file, scanning the segments the first
//     query touches and decoding only the posting lists it probes must
//     answer in ≤ half the eager restore's load-everything-then-answer
//     time (and the margin grows with index size, since the eager leg is
//     O(index) and the lazy leg O(touched)).
//   - Bounded residency: under a byte budget of half the posting lists the
//     workload touches, a Zipf-skewed query stream must complete with
//     identical answers while resident posting bytes stay within the
//     budget — the eviction clock actually holds the line, it does not
//     just report it.
//   - A budget costs the cold tail, not every query: that same stream
//     under the half budget must take ≤ 2× the wall time it takes
//     unbudgeted.
func init() {
	register(Experiment{
		ID:    "lazyload",
		Title: "Lazy loading: time-to-first-query, bounded residency and replay cost under a half budget (perf, extension)",
		Run:   runLazyload,
	})
}

const (
	lazyTTFQRatioMax   = 0.5 // lazy TTFQ must be ≤ half the eager TTFQ
	lazyReplayRatioMax = 2.0 // half-budget skewed replay must take ≤ 2× the unbudgeted one
)

type lazyloadReport struct {
	Seed            int64   `json:"seed"`
	Scale           float64 `json:"scale"`
	NumGraphs       int     `json:"num_graphs"`
	Shards          int     `json:"shards"`
	SnapshotBytes   int64   `json:"snapshot_bytes"`
	IndexBytes      int64   `json:"index_bytes"`
	TTFQEagerNs     float64 `json:"ttfq_eager_ns"`
	TTFQLazyNs      float64 `json:"ttfq_lazy_ns"`
	TTFQRatio       float64 `json:"ttfq_ratio"`
	BudgetBytes     int64   `json:"budget_bytes"`
	ResidentBytes   int64   `json:"resident_bytes"`
	ResidentShards  int     `json:"resident_shards"`
	TotalShards     int     `json:"total_shards"`
	Faults          int64   `json:"faults"`
	Evictions       int64   `json:"evictions"`
	SkewedQueries   int     `json:"skewed_queries"`
	ReplayFullNs    float64 `json:"replay_unbudgeted_ns"`
	ReplayBudgetNs  float64 `json:"replay_half_budget_ns"`
	ReplayRatio     float64 `json:"replay_ratio"`
	AnswersIdentity bool    `json:"answers_identical"`
	Gates           struct {
		TTFQRatioMax   float64 `json:"ttfq_ratio_max"`
		ReplayRatioMax float64 `json:"replay_ratio_max"`
		Pass           bool    `json:"pass"`
	} `json:"gates"`
}

func runLazyload(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	spec := scaledAIDS(cfg)
	spec.NumGraphs *= 4 // the eager leg must have real decode work to lose
	db := dataset.Generate(spec)
	qs := workload.Generate(db, workload.Spec{
		NumQueries: cfg.scaled(60, 20),
		Sizes:      []int{4, 8},
		Seed:       cfg.Seed * 91,
	})
	const segments = 16
	fresh := func() *ggsx.Index {
		return ggsx.New(ggsx.Options{MaxPathLen: 4, Shards: segments, BuildWorkers: cfg.BuildWorkers})
	}

	built := fresh()
	built.Build(db)
	dir, err := os.MkdirTemp("", "igq-lazyload")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	snapPath := filepath.Join(dir, "ggsx.idx")
	if err := persistio.AtomicWriteFile(snapPath, built.SaveIndex); err != nil {
		return err
	}
	fi, err := os.Stat(snapPath)
	if err != nil {
		return err
	}

	// Oracle candidate sets, computed once up front. The index's own work is
	// the Filter: verification afterwards costs the same whether the index
	// was decoded eagerly or faulted in, so TTFQ times load + first Filter.
	want := make([][][]int32, len(qs))
	for i, q := range qs {
		want[i] = [][]int32{built.Filter(q.G)}
	}

	// Time-to-first-query, interleaved medians: each trial is the full cold
	// path a restarting process pays — open the snapshot, load, filter the
	// first query of the workload.
	firstQ := qs[0].G
	ttfqEager := func() (time.Duration, error) {
		x := fresh()
		f, err := os.Open(snapPath)
		if err != nil {
			return 0, err
		}
		defer f.Close()
		t0 := time.Now()
		if _, err := x.LoadIndex(f, db); err != nil {
			return 0, err
		}
		ans := x.Filter(firstQ)
		d := time.Since(t0)
		if !reflect.DeepEqual(ans, want[0][0]) {
			return 0, fmt.Errorf("eager first candidate set diverges")
		}
		return d, nil
	}
	ttfqLazy := func() (time.Duration, error) {
		x := fresh()
		t0 := time.Now()
		src, err := persistio.OpenMapped(snapPath)
		if err != nil {
			return 0, err
		}
		defer src.Close()
		if _, err := x.LoadIndexLazy(src, db, 0); err != nil {
			return 0, err
		}
		ans := x.Filter(firstQ)
		d := time.Since(t0)
		if !reflect.DeepEqual(ans, want[0][0]) {
			return 0, fmt.Errorf("lazy first candidate set diverges")
		}
		return d, nil
	}
	const trials = 5
	var eagerNs, lazyNs []float64
	for t := 0; t < trials; t++ {
		de, err := ttfqEager()
		if err != nil {
			return err
		}
		dl, err := ttfqLazy()
		if err != nil {
			return err
		}
		eagerNs = append(eagerNs, float64(de.Nanoseconds()))
		lazyNs = append(lazyNs, float64(dl.Nanoseconds()))
	}
	sort.Float64s(eagerNs)
	sort.Float64s(lazyNs)
	medEager, medLazy := eagerNs[trials/2], lazyNs[trials/2]

	// Bounded-residency leg: the posting bytes the workload touches are
	// measured on an unbudgeted load with every query run once; then a
	// Zipf-skewed stream (hot head, long tail — the access pattern eviction
	// is for) is replayed from cold on fresh loads, unbudgeted and under
	// half that budget, interleaved, timing both.
	openLazy := func(budget int64) (*ggsx.Index, func(), error) {
		x := fresh()
		src, err := persistio.OpenMapped(snapPath)
		if err != nil {
			return nil, nil, err
		}
		if _, err := x.LoadIndexLazy(src, db, budget); err != nil {
			src.Close()
			return nil, nil, err
		}
		return x, func() { src.Close() }, nil
	}
	probe, closeProbe, err := openLazy(0)
	if err != nil {
		return err
	}
	defer closeProbe()
	for _, q := range qs {
		probe.Filter(q.G)
	}
	indexBytes := probe.Residency().ResidentBytes
	budget := indexBytes / 2

	zrng := rand.New(rand.NewSource(cfg.Seed * 13))
	zipf := rand.NewZipf(zrng, 1.2, 1.0, uint64(len(qs)-1))
	skewed := make([]int, cfg.scaled(400, 150))
	for i := range skewed {
		skewed[i] = int(zipf.Uint64())
	}
	nSkewed := len(skewed)
	replay := func(budget int64) (time.Duration, trie.Residency, error) {
		x, done, err := openLazy(budget)
		if err != nil {
			return 0, trie.Residency{}, err
		}
		defer done()
		t0 := time.Now()
		for i, qi := range skewed {
			if got := x.Filter(qs[qi].G); !reflect.DeepEqual(got, want[qi][0]) {
				return 0, trie.Residency{}, fmt.Errorf("skewed query %d (workload %d) diverges under budget %d", i, qi, budget)
			}
		}
		return time.Since(t0), x.Residency(), nil
	}
	var fullNs, budgetNs []float64
	var res trie.Residency
	for t := 0; t < trials; t++ {
		df, _, err := replay(0)
		if err != nil {
			return err
		}
		var dh time.Duration
		if dh, res, err = replay(budget); err != nil {
			return err
		}
		fullNs = append(fullNs, float64(df.Nanoseconds()))
		budgetNs = append(budgetNs, float64(dh.Nanoseconds()))
	}
	sort.Float64s(fullNs)
	sort.Float64s(budgetNs)
	medFull, medBudget := fullNs[trials/2], budgetNs[trials/2]

	rep := lazyloadReport{
		Seed: cfg.Seed, Scale: cfg.Scale, NumGraphs: len(db), Shards: segments,
		SnapshotBytes: fi.Size(), IndexBytes: indexBytes,
		TTFQEagerNs: medEager, TTFQLazyNs: medLazy, TTFQRatio: medLazy / medEager,
		BudgetBytes: budget, ResidentBytes: res.ResidentBytes,
		ResidentShards: res.ResidentShards, TotalShards: res.TotalShards,
		Faults: res.Faults, Evictions: res.Evictions,
		SkewedQueries: nSkewed, AnswersIdentity: true,
		ReplayFullNs: medFull, ReplayBudgetNs: medBudget, ReplayRatio: medBudget / medFull,
	}
	rep.Gates.TTFQRatioMax = lazyTTFQRatioMax
	rep.Gates.ReplayRatioMax = lazyReplayRatioMax
	rep.Gates.Pass = true
	var gateErr error
	switch {
	case rep.TTFQRatio > lazyTTFQRatioMax:
		gateErr = fmt.Errorf("lazy TTFQ %.0fns is %.2fx eager %.0fns, above the %.2fx gate",
			medLazy, rep.TTFQRatio, medEager, lazyTTFQRatioMax)
	case res.ResidentBytes > budget:
		// The evictor lets a single list larger than the whole budget stand
		// alone; half the touched index is far above any one list, so here
		// the budget is a hard ceiling.
		gateErr = fmt.Errorf("resident %d bytes over the %d budget after the skewed stream",
			res.ResidentBytes, budget)
	case res.Evictions == 0:
		gateErr = fmt.Errorf("the half budget (%d bytes) never evicted: the bounded leg measured nothing", budget)
	case rep.ReplayRatio > lazyReplayRatioMax:
		gateErr = fmt.Errorf("skewed replay under the half budget took %.0fns, %.2fx the unbudgeted %.0fns, above the %.1fx gate",
			medBudget, rep.ReplayRatio, medFull, lazyReplayRatioMax)
	}
	if gateErr != nil {
		rep.Gates.Pass = false
	}

	tb := stats.NewTable("leg", "value")
	tb.AddRowf("snapshot", fmt.Sprintf("%d B (%d graphs, %d segments)", fi.Size(), len(db), segments))
	tb.AddRowf("TTFQ eager", time.Duration(medEager))
	tb.AddRowf("TTFQ lazy", time.Duration(medLazy))
	tb.AddRowf("TTFQ ratio", fmt.Sprintf("%.3fx (gate ≤ %.2fx)", rep.TTFQRatio, lazyTTFQRatioMax))
	tb.AddRowf("posting bytes", fmt.Sprintf("%d B (every list the workload probes, decoded)", indexBytes))
	tb.AddRowf("budget", fmt.Sprintf("%d B", budget))
	tb.AddRowf("resident", fmt.Sprintf("%d B of lists, %d/%d directories open, after %d skewed queries",
		res.ResidentBytes, res.ResidentShards, res.TotalShards, nSkewed))
	tb.AddRowf("list decodes/evictions", fmt.Sprintf("%d / %d", res.Faults, res.Evictions))
	tb.AddRowf("replay unbudgeted", time.Duration(medFull))
	tb.AddRowf("replay half budget", time.Duration(medBudget))
	tb.AddRowf("replay ratio", fmt.Sprintf("%.3fx (gate ≤ %.1fx)", rep.ReplayRatio, lazyReplayRatioMax))
	fmt.Fprintf(w, "Lazy loading vs eager restore (GGSX, interleaved medians of %d):\n%s", trials, tb)
	fmt.Fprintf(w, "\nExpected shape: the lazy leg answers its first query after reading only the header,\ndictionary and segment table, scanning the touched segments and decoding the probed\nlists, so TTFQ drops well below the eager restore and the gap widens with index size;\nunder a half budget the Zipf stream keeps the hot head's lists resident, re-decodes\nthe cold tail's, never diverges, and pays well under 2x for it.\n")

	if cfg.BenchJSONPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.BenchJSONPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nwrote %s\n", cfg.BenchJSONPath)
	}
	return gateErr
}
