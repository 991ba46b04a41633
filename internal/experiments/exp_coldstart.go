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

// Extension experiment (persistence): index cold start. The paper's premise
// is that index knowledge is expensive to earn and worth keeping; this
// experiment quantifies it for the dataset indexes by comparing a full
// rebuild (path enumeration over every graph) against restoring the same
// index from its on-disk segment snapshot. The restored index must be
// observationally identical — the run fails (non-nil error, so CI can gate
// on it) if any differential query diverges.
func init() {
	register(Experiment{
		ID:    "coldstart",
		Title: "Index cold start: snapshot load vs full rebuild (persistence, extension)",
		Run:   runColdstart,
	})
}

func runColdstart(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	// AIDS character (many small graphs) exercises a large vocabulary —
	// the dictionary-heavy case for the snapshot header.
	spec := scaledAIDS(cfg)
	spec.NumGraphs *= 2
	db := dataset.Generate(spec)
	qs := workload.Generate(db, workload.Spec{
		NumQueries: cfg.scaled(60, 20),
		Sizes:      []int{4, 8},
		Seed:       cfg.Seed * 77,
	})

	snapDir := cfg.SaveIndexPath
	if snapDir == "" {
		var err error
		snapDir, err = os.MkdirTemp("", "igq-coldstart")
		if err != nil {
			return err
		}
		defer os.RemoveAll(snapDir)
	} else if err := os.MkdirAll(snapDir, 0o755); err != nil {
		return err
	}

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

	tb := stats.NewTable("method", "rebuild", "save", "load", "speedup", "snapshot", "identity")
	for _, m := range methods {
		snapPath := filepath.Join(snapDir, m.name+".idx")

		// Rebuild leg: the O(dataset) path every process start pays today.
		built := m.fresh()
		t0 := time.Now()
		built.Build(db)
		buildDur := time.Since(t0)

		// Save leg (skipped when loading a pre-built snapshot).
		var saveDur time.Duration
		loadPath := snapPath
		if cfg.LoadIndexPath != "" {
			loadPath = filepath.Join(cfg.LoadIndexPath, m.name+".idx")
		} else {
			// Atomic write: a crash mid-save must not leave a torn snapshot
			// where a previous good one stood (temp + fsync + rename).
			t0 = time.Now()
			err := persistio.AtomicWriteFile(snapPath, built.SaveIndex)
			saveDur = time.Since(t0)
			if err != nil {
				return fmt.Errorf("%s: saving index: %w", m.name, err)
			}
		}
		fi, err := os.Stat(loadPath)
		if err != nil {
			return err
		}

		// Load leg: the O(read) path this snapshot format buys.
		loaded := m.fresh()
		f, err := os.Open(loadPath)
		if err != nil {
			return err
		}
		t0 = time.Now()
		rep, err := loaded.LoadIndex(f, db)
		loadDur := time.Since(t0)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: loading index: %w", m.name, err)
		}
		if rep.RecoveredTail != nil {
			return fmt.Errorf("%s: clean snapshot reported a recovered tail: %+v", m.name, rep.RecoveredTail)
		}

		// Differential identity check: answers (candidates and verified
		// matches, order included) must be byte-identical.
		identity := "identical"
		for i, q := range qs {
			if !reflect.DeepEqual(built.Filter(q.G), loaded.Filter(q.G)) ||
				!reflect.DeepEqual(index.Answer(built, q.G), index.Answer(loaded, q.G)) {
				return fmt.Errorf("%s: loaded index diverges from rebuilt index on query %d", m.name, i)
			}
		}
		if built.SizeBytes() != loaded.SizeBytes() {
			return fmt.Errorf("%s: loaded index footprint %d != rebuilt %d", m.name, loaded.SizeBytes(), built.SizeBytes())
		}

		tb.AddRowf(m.name, buildDur, saveDur, loadDur,
			float64(buildDur)/float64(loadDur), fmt.Sprintf("%d B", fi.Size()), identity)
		if cfg.Verbose {
			fmt.Fprintf(w, "  %s: build=%v load=%v snapshot=%dB\n", m.name, buildDur, loadDur, fi.Size())
		}
	}

	fmt.Fprintf(w, "Cold start over %s ×2 (%d graphs, %d differential queries), buildworkers=%d:\n%s",
		spec.Name, len(db), len(qs), cfg.BuildWorkers, tb)
	fmt.Fprintf(w, "\nExpected shape: loading the segment snapshot beats the full path re-enumeration\n(speedup > 1), growing with dataset scale; the identity column must read 'identical' —\nthe restored index is required to answer byte-identically to the rebuilt one.\n")
	return nil
}
