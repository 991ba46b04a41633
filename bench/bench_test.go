package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	igq "repro"
	"repro/internal/server"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(100)
	for _, c := range []struct{ p, want float64 }{{0.50, 50}, {0.99, 99}, {0.999, 100}, {0.01, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %g, want 0", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %g, want 7", got)
	}
}

// A percentile is reported only while at least ten samples lie beyond it.
func TestHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 0.50}, {99, 0.50}, {100, 0.90}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {10000, 0.999}, {100000, 0.9999}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// The cut points are the ones Python's statistics.quantiles(xs, n=4) gives.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	q1, q2, q3 := quartiles(seq(10))
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6})
	if q1 != 1.25 || q2 != 3.5 || q3 != 5.75 {
		t.Errorf("quartiles = %g %g %g, want 1.25 3.5 5.75", q1, q2, q3)
	}
	if q1, q2, q3 = quartiles(seq(3)); q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles(1..3) = %g %g %g, want 1 2 3", q1, q2, q3)
	}
	if got := spread(seq(10)); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %g, want 1", got)
	}
}

func TestSelfTimeSubtractsCoveredInterval(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "request", Start: 0, End: 100, Parent: -1},
		{ID: 1, Name: "a.x", Start: 10, End: 30, Parent: 0},
		{ID: 2, Name: "b.x", Start: 20, End: 50, Parent: 0}, // overlaps span 1
		{ID: 3, Name: "c.x", Start: 60, End: 70, Parent: 0},
		{ID: 4, Name: "b.y", Start: 25, End: 35, Parent: 2},
		{ID: 5, Name: "d.x", Start: 90, End: 120, Parent: 0}, // runs past its parent
	}
	want := []int64{100 - (40 + 10 + 10), 20, 20, 10, 10, 30}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	// Without overlapping siblings, the layers' self times add up to the
	// requests' wall-clock.
	var share float64
	sequential := []span{
		{ID: 0, Name: "request", Start: 0, End: 100, Parent: -1},
		{ID: 1, Name: "a.x", Start: 10, End: 30, Parent: 0},
		{ID: 2, Name: "b.x", Start: 12, End: 20, Parent: 1},
		{ID: 3, Name: "c.x", Start: 60, End: 70, Parent: 0},
	}
	for _, r := range layerReport(sequential, nil) {
		share += r.Share
	}
	if math.Abs(share-1) > 1e-9 {
		t.Errorf("layer shares sum to %g, want 1", share)
	}
}

func TestStatsDeltaSumsEngines(t *testing.T) {
	before := server.StatsReply{
		Sub:    igq.EngineStats{Queries: 10, DatasetIsoTests: 100, CacheIsoTests: 5, Flushes: 1, ShardFaults: 2},
		Super:  &igq.EngineStats{Queries: 4, DatasetIsoTests: 7, CacheIsoTests: 1},
		Server: server.ServerStats{Rejected: 1},
	}
	after := server.StatsReply{
		Sub:    igq.EngineStats{Queries: 30, AnsweredByCache: 6, DatasetIsoTests: 400, CacheIsoTests: 25, Flushes: 3, ShardFaults: 9},
		Super:  &igq.EngineStats{Queries: 14, DatasetIsoTests: 17, CacheIsoTests: 4},
		Server: server.ServerStats{Rejected: 4},
	}
	want := engineDelta{Queries: 30, AnsweredByCache: 6, IsoTests: 300 + 20 + 10 + 3, Flushes: 2, ShardFaults: 7, Rejected429: 3}
	if got := statsDelta(before, after); got != want {
		t.Errorf("statsDelta = %+v, want %+v", got, want)
	}
}

func opKey(o op) string {
	if o.kind != opQuery {
		return jsonOf([]int{int(o.kind), o.batch})
	}
	return o.mode + jsonOf(server.EncodeGraph(o.query))
}

func jsonOf(v any) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// The same seed must give the same inputs; another seed replays the same
// population in another order.
func TestGenerateIsAFunctionOfTheSeed(t *testing.T) {
	s := smokeScale.scaled(specs[2]) // mixed modes and mutations
	a, b, c := generate(s, smokeScale, 7, 1000), generate(s, smokeScale, 7, 1000), generate(s, smokeScale, 8, 1000)
	keys := func(in inputs) []string {
		ks := make([]string, len(in.ops))
		for i, o := range in.ops {
			ks[i] = opKey(o)
		}
		return ks
	}
	ka, kb, kc := keys(a), keys(b), keys(c)
	if !slices.Equal(ka, kb) {
		t.Fatal("two generations from one seed differ")
	}
	for i := range a.batches {
		for k := range a.batches[i] {
			if a.batches[i][k].ID != b.batches[i][k].ID || jsonOf(server.EncodeGraph(a.batches[i][k])) != jsonOf(server.EncodeGraph(b.batches[i][k])) {
				t.Fatalf("mutation batch %d differs between two generations from one seed", i)
			}
		}
	}
	if slices.Equal(ka, kc) {
		t.Fatal("another seed gave the same operation order")
	}
	// The traced run replays a prefix of the live run's stream.
	if short := keys(generate(s, smokeScale, 7, 300)); !slices.Equal(short, ka[:300]) {
		t.Fatal("a shorter stream is not a prefix of a longer one")
	}
	graphs := func(in inputs) []string {
		var gs []string
		for _, o := range in.ops {
			if o.kind == opQuery {
				gs = append(gs, jsonOf(server.EncodeGraph(o.query)))
			}
		}
		sort.Strings(gs)
		return gs
	}
	plain := smokeScale.scaled(specs[0])
	if !slices.Equal(graphs(generate(plain, smokeScale, 7, 1000)), graphs(generate(plain, smokeScale, 8, 1000))) {
		t.Fatal("two seeds replay different query populations")
	}
}

func pathGraph(id int, labels ...igq.Label) *igq.Graph {
	g := igq.NewGraph(len(labels))
	for _, l := range labels {
		g.AddVertex(l)
	}
	for i := 1; i < len(labels); i++ {
		g.AddEdge(i-1, i)
	}
	g.ID = id
	return g
}

func TestModelAnswersBothModes(t *testing.T) {
	m := newModel([]*igq.Graph{pathGraph(0, 1, 2, 3), pathGraph(1, 1, 2), pathGraph(5, 2, 3, 3)})
	if got := m.answer(pathGraph(-1, 1, 2), server.ModeSub); !slices.Equal(got, []int32{0, 1}) {
		t.Errorf("graphs containing 1-2: %v, want [0 1]", got)
	}
	if got := m.answer(pathGraph(-1, 1, 2, 3, 3), server.ModeSuper); !slices.Equal(got, []int32{0, 1, 5}) {
		t.Errorf("graphs contained in 1-2-3-3: %v, want [0 1 5]", got)
	}
	if got := m.answer(pathGraph(-1, 4, 4), server.ModeSub); len(got) != 0 {
		t.Errorf("graphs containing 4-4: %v, want none", got)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		cand  []float64
		lower bool
		want  string
	}{
		{[]float64{103, 104, 103, 103, 103}, true, "within bound"},
		{[]float64{112, 111, 112, 113, 112}, true, "regressed"},
		{[]float64{88, 89, 88, 88, 88}, true, "within bound"},  // better
		{[]float64{88, 89, 88, 88, 88}, false, "regressed"},    // a throughput that fell
		{[]float64{80, 120, 100, 90, 130}, true, "unresolved"}, // runs disagree by more than the bound
	} {
		if _, got := verdict(base, c.cand, c.lower, 0.05); got != c.want {
			t.Errorf("verdict(%v, lower=%v) = %q, want %q", c.cand, c.lower, got, c.want)
		}
	}
}

func smokeConfig(t *testing.T) runConfig {
	t.Helper()
	root, err := findRoot("")
	if err != nil {
		t.Fatal(err)
	}
	cfg := runConfig{root: root, outDir: t.TempDir(), seed: 5, seconds: 1, clients: 1, sc: smokeScale}
	if cfg.serverBin, err = buildServer(root); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// manifestNames reads the metric names BENCHMARK.json promises.
func manifestNames(t *testing.T, root, key string) []string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var ms []struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(doc[key], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

// The smoke mode drives every workload end to end — real igqserve child,
// closed loop, answer check, traced replay — on a 200-graph dataset, and
// holds the output to what BENCHMARK.json declares.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("starts igqserve processes")
	}
	cfg := smokeConfig(t)
	wantLive := manifestNames(t, cfg.root, "end_to_end")
	wantLayers := manifestNames(t, cfg.root, "per_layer")
	var declared []string
	for _, s := range specs {
		declared = append(declared, s.name)
	}
	sort.Strings(declared)
	if got := manifestNames(t, cfg.root, "workloads"); !slices.Equal(got, declared) {
		t.Errorf("BENCHMARK.json workloads %v, harness has %v", got, declared)
	}
	for _, s := range specs {
		for _, traced := range []bool{false, true} {
			res, err := runOne(&cfg, s, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", s.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", s.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := wantLive
			if traced {
				want = wantLayers
			}
			if got := sortedKeys(res.Metrics); !slices.Equal(got, want) {
				t.Errorf("%s traced=%v reports %v, BENCHMARK.json declares %v", s.name, traced, got, want)
			}
			var line map[string]json.RawMessage
			if err := json.Unmarshal([]byte(res.contractLine()), &line); err != nil || len(line) != 4 {
				t.Errorf("%s: contract line %q: %v", s.name, res.contractLine(), err)
			}
			if !traced {
				for name, m := range res.Metrics {
					if m.Value <= 0 || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s: end-to-end metric %s = %g", s.name, name, m.Value)
					}
				}
			}
		}
	}
}

// One flipped answer must fail the run.
func TestFlippedAnswerFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("starts igqserve processes")
	}
	cfg := smokeConfig(t)
	cfg.flipAnswer = true
	res, err := runOne(&cfg, specs[0], false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 {
		t.Errorf("flipped answer: correct=%v failed=%d, want false and 1", res.Correct, res.Failed)
	}
}

// Counts of the traced run are functions of the seed: two runs agree exactly.
func TestTracedCountsRepeatExactly(t *testing.T) {
	cfg := runConfig{outDir: t.TempDir(), seed: 11, seconds: 1, clients: 1, sc: smokeScale}
	for _, s := range []spec{specs[0], specs[2]} {
		a, err := runOne(&cfg, s, true)
		if err != nil {
			t.Fatal(err)
		}
		b, err := runOne(&cfg, s, true)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for name, m := range a.Metrics {
			if m.Unit != "count" && m.Unit != "ratio" || strings.HasPrefix(name, "share.") || strings.HasPrefix(name, "trace.") || strings.HasSuffix(name, "_share") {
				continue
			}
			n++
			if m.Value != b.Metrics[name].Value {
				t.Errorf("%s: %s = %v then %v", s.name, name, m.Value, b.Metrics[name].Value)
			}
		}
		if n < 10 {
			t.Errorf("%s: only %d count metrics compared", s.name, n)
		}
	}
}
