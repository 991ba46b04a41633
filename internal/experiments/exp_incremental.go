package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/index/ggsx"
	"repro/internal/index/grapes"
	"repro/internal/persistio"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Extension experiment (incremental maintenance): appending graphs to a
// served dataset. The static pipeline pays O(dataset) twice — a full
// re-enumeration and a full re-save; the incremental pipeline pays
// O(delta) twice — AppendGraphs inserts only the new graphs' features and
// AppendDelta journals only them to disk. This experiment measures both
// pipelines on the same append and *gates* the expected shape: the
// incremental path must win by at least minIncrementalSpeedup, and the
// journaled snapshot must load back observationally identical to the
// from-scratch rebuild (answers, filter results, SizeBytes) — the run
// errors out on any divergence, so CI can gate on it exactly like the
// coldstart experiment.
func init() {
	register(Experiment{
		ID:    "incremental",
		Title: "Incremental maintenance: append + delta-save vs rebuild + full save (extension)",
		Run:   runIncremental,
	})
}

// minIncrementalSpeedup is the CI gate: (rebuild + full save) must cost at
// least this many times (append + delta save). At bench scale the real
// ratio is an order of magnitude beyond this; the margin absorbs CI noise.
const minIncrementalSpeedup = 5.0

func runIncremental(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	spec := scaledAIDS(cfg)
	spec.NumGraphs *= 2
	all := dataset.Generate(spec)
	// Delta: the trailing 1% of the dataset (at least 4 graphs) arrives
	// after the base snapshot was taken.
	delta := len(all) / 100
	if delta < 4 {
		delta = 4
	}
	base, extra := all[:len(all)-delta], all[len(all)-delta:]
	qs := workload.Generate(all, workload.Spec{
		NumQueries: cfg.scaled(60, 20),
		Sizes:      []int{4, 8},
		Seed:       cfg.Seed * 31,
	})

	snapDir, err := os.MkdirTemp("", "igq-incremental")
	if err != nil {
		return err
	}
	defer os.RemoveAll(snapDir)

	type method struct {
		name  string
		fresh func() index.Persistable
	}
	methods := []method{
		{"GGSX", func() index.Persistable {
			return ggsx.New(ggsx.Options{MaxPathLen: 4, BuildWorkers: cfg.BuildWorkers})
		}},
		{"Grapes", func() index.Persistable {
			return grapes.New(grapes.Options{MaxPathLen: 4, BuildWorkers: cfg.BuildWorkers})
		}},
	}

	tb := stats.NewTable("method", "rebuild+save", "append+delta", "speedup", "snapshot", "journal", "identity")
	for _, m := range methods {
		// Static pipeline: full rebuild over the final dataset + full save.
		rebuilt := m.fresh()
		t0 := time.Now()
		rebuilt.Build(all)
		fullPath := filepath.Join(snapDir, m.name+".full.idx")
		if err := persistio.AtomicWriteFile(fullPath, rebuilt.SaveIndex); err != nil {
			return fmt.Errorf("%s: full save: %w", m.name, err)
		}
		staticDur := time.Since(t0)
		fullInfo, err := os.Stat(fullPath)
		if err != nil {
			return err
		}

		// Incremental pipeline: the base index and its snapshot already
		// exist (that cost was paid long ago); the delta arrives now.
		served := m.fresh()
		served.Build(base)
		deltaPath := filepath.Join(snapDir, m.name+".delta.idx")
		if err := persistio.AtomicWriteFile(deltaPath, served.SaveIndex); err != nil {
			return fmt.Errorf("%s: base save: %w", m.name, err)
		}
		baseInfo, err := os.Stat(deltaPath)
		if err != nil {
			return err
		}

		mu, ok := served.(index.Mutable)
		if !ok {
			return fmt.Errorf("%s: method is not incrementally mutable", m.name)
		}
		t0 = time.Now()
		mutated, newDB, err := mu.AppendGraphs(extra)
		if err != nil {
			return fmt.Errorf("%s: AppendGraphs: %w", m.name, err)
		}
		// persistio.OpenFile hands AppendDelta a file with fsync and
		// atomic-rewrite capability, so the append is durable and a
		// threshold-triggered compaction is crash-safe.
		df, err := persistio.OpenFile(deltaPath)
		if err != nil {
			return err
		}
		err = mutated.(index.DeltaPersistable).AppendDelta(df)
		if cerr := df.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("%s: AppendDelta: %w", m.name, err)
		}
		incDur := time.Since(t0)
		deltaInfo, err := os.Stat(deltaPath)
		if err != nil {
			return err
		}
		if len(newDB) != len(all) {
			return fmt.Errorf("%s: mutated dataset has %d graphs, want %d", m.name, len(newDB), len(all))
		}

		// Differential identity, three ways: live-mutated index, journaled
		// snapshot reload, and the from-scratch rebuild must agree on every
		// query (candidates and answers) and on SizeBytes.
		loaded := m.fresh()
		lf, err := os.Open(deltaPath)
		if err != nil {
			return err
		}
		rep, err := loaded.LoadIndex(lf, newDB)
		lf.Close()
		if err != nil {
			return fmt.Errorf("%s: loading journaled snapshot: %w", m.name, err)
		}
		if rep.RecoveredTail != nil {
			return fmt.Errorf("%s: clean journaled snapshot reported a recovered tail: %+v", m.name, rep.RecoveredTail)
		}
		for i, q := range qs {
			want := rebuilt.Filter(q.G)
			if !reflect.DeepEqual(mutated.Filter(q.G), want) ||
				!reflect.DeepEqual(loaded.Filter(q.G), want) {
				return fmt.Errorf("%s: filter diverges on query %d", m.name, i)
			}
			wantAns := index.Answer(rebuilt, q.G)
			if !reflect.DeepEqual(index.Answer(mutated, q.G), wantAns) ||
				!reflect.DeepEqual(index.Answer(loaded, q.G), wantAns) {
				return fmt.Errorf("%s: answers diverge on query %d", m.name, i)
			}
		}
		if mutated.SizeBytes() != rebuilt.SizeBytes() || loaded.SizeBytes() != rebuilt.SizeBytes() {
			return fmt.Errorf("%s: footprint diverges: mutated %d, loaded %d, rebuilt %d",
				m.name, mutated.SizeBytes(), loaded.SizeBytes(), rebuilt.SizeBytes())
		}

		speedup := float64(staticDur) / float64(incDur)
		tb.AddRowf(m.name, staticDur, incDur, speedup,
			fmt.Sprintf("%d B", fullInfo.Size()),
			fmt.Sprintf("+%d B", deltaInfo.Size()-baseInfo.Size()),
			"identical")
		if speedup < minIncrementalSpeedup {
			return fmt.Errorf("%s: incremental pipeline only %.1f× faster than rebuild (gate: ≥ %.0f×)",
				m.name, speedup, minIncrementalSpeedup)
		}
		if cfg.Verbose {
			fmt.Fprintf(w, "  %s: rebuild+save=%v append+delta=%v (%d new graphs)\n",
				m.name, staticDur, incDur, len(extra))
		}
	}

	fmt.Fprintf(w, "Incremental append of %d graphs onto %s ×2 (%d base graphs, %d differential queries), buildworkers=%d:\n%s",
		len(extra), spec.Name, len(base), len(qs), cfg.BuildWorkers, tb)
	fmt.Fprintf(w, "\nExpected shape: the incremental pipeline (AppendGraphs + AppendDelta journal) beats the\nstatic one (full rebuild + full SaveIndex) by ≥ %.0f× — this run errors below that, and on any\ndivergence between the mutated index, the journaled snapshot and a from-scratch rebuild.\n", minIncrementalSpeedup)
	return nil
}
