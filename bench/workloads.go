package main

import (
	"fmt"
	"math/rand"

	igq "repro"
	"repro/internal/dataset"
	"repro/internal/server"
	"repro/internal/workload"
)

// Engine configuration shared by every workload: the paper's defaults
// (C=500, W=100) over the Grapes method, served by two execution slots.
const (
	cacheSize     = 500
	windowSize    = 100
	serverWorkers = 2
	serverProcs   = 2 // GOMAXPROCS of the igqserve child
	lazyShards    = 16
	mutationBatch = 4          // graphs per /graphs/add
	freshIDBase   = 10_000_000 // far above any generated dataset ID
	checkSample   = 200        // queries re-issued for the answer check

	populationSeed = 20160315 // generator seed of every workload's query population
	shuffleBlock   = 8        // the run's seed reorders the population within blocks of this many
)

// spec is one named workload: what the server is started with, what the
// clients send, and how long the fixed-count phases are.
type spec struct {
	name string
	why  string

	graphDist, nodeDist workload.Dist
	mixedModes          bool // alternate mode=sub / mode=super per query
	mutateEvery         int  // every n-th operation is a mutation (0 = none)
	partitions          int  // igqserve -partitions (1 = single engine)
	lazy                bool // serve a lazily mapped snapshot under lazyBudget
	lazyBudget          int64

	warmup  int // operations before the timed phase (fixed count)
	rate    int // timed operations per second of -seconds (see timedOps)
	setups  int // server starts per run; setup_s is their median
	traceN  int // queries the traced replay measures after its warm-up
	traceWU int // traced replay warm-up (untraced) operations
}

// The four workloads. Names are fixed: later issues cite them. Each rate is
// the throughput measured at the seed commit on two vCPUs, rounded down.
var specs = []spec{
	{
		name:      "sub-zipf",
		why:       "zipf-zipf subgraph queries: about half short-circuit in the query cache, so core lookup and the wire path dominate and iso does little",
		graphDist: workload.Zipf, nodeDist: workload.Zipf, partitions: 1,
		warmup: 2000, rate: 700, setups: 3, traceN: 2000, traceWU: 2000,
	},
	{
		name:      "sub-uni",
		why:       "uniform subgraph queries: the cache rarely hits, so index filtering and iso verification dominate; the bypass workload for cache changes",
		graphDist: workload.Uniform, nodeDist: workload.Uniform, partitions: 1,
		warmup: 1000, rate: 370, setups: 3, traceN: 1500, traceWU: 1000,
	},
	{
		name:      "part-mixed-mutate",
		why:       "two partitions, zipf stream alternating sub/super with a mutation every 100th op: scatter/merge, the containment engine and the write path share the loop",
		graphDist: workload.Zipf, nodeDist: workload.Zipf, partitions: 2,
		mixedModes: true, mutateEvery: 100,
		warmup: 2000, rate: 480, setups: 3, traceN: 1500, traceWU: 1000,
	},
	{
		name:      "sub-uni-lazy",
		why:       "uniform queries over a lazily mapped snapshot with a resident-byte budget below the index size: shard fault/evict and mapped reads dominate",
		graphDist: workload.Uniform, nodeDist: workload.Uniform, partitions: 1,
		lazy: true, lazyBudget: 44_000_000,
		warmup: 100, rate: 25, setups: 5, traceN: 150, traceWU: 50,
	},
}

// timedOps is the length of the timed phase: a fixed operation count, sized
// so that it lasts about `seconds` at the seed commit. A count and not a
// clock, because the stream's cost is not stationary (iso tests per query
// over successive thousands of sub-zipf: 49, 22, 21, 23, 27, 24, 19, 18, 30,
// 14): under a clock a faster run reaches further into the stream, measures
// different queries, and machine-speed noise comes back amplified as a
// difference in every metric, counts included.
func (s spec) timedOps(seconds float64) int {
	return max(1, int(seconds*float64(s.rate)))
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// scale shrinks a run for the smoke mode: a 200-graph dataset and short
// fixed-count phases, so all four workloads finish in seconds.
type scale struct {
	countFrac float64 // dataset.AIDS().Scaled(countFrac, 1)
	div       int     // divides warm-up, trace and check counts
	smoke     bool
}

var (
	fullScale  = scale{countFrac: 0.1, div: 1}
	smokeScale = scale{countFrac: 0.005, div: 20, smoke: true}
)

func (sc scale) of(n int) int { return max(1, n/sc.div) }

// scaled applies the smoke divisor to a spec. The lazy budget keeps its
// ~90 % proportion of the fully resident postings (3.2 MB at 200 graphs).
func (sc scale) scaled(s spec) spec {
	if !sc.smoke {
		return s
	}
	s.warmup, s.traceN, s.traceWU = sc.of(s.warmup), sc.of(s.traceN), sc.of(s.traceWU)
	s.setups = 1
	if s.lazy {
		s.lazyBudget = 2_900_000
	}
	return s
}

type opKind int

const (
	opQuery opKind = iota
	opAdd
	opRemove
)

// op is one operation of the closed loop.
type op struct {
	kind  opKind
	mode  string     // server.ModeSub or server.ModeSuper (queries)
	query *igq.Graph // queries
	batch int        // mutations: index into inputs.batches
}

// inputs is everything a run feeds the system, generated from the seed
// alone: the server only ever sees the dataset file and the requests.
type inputs struct {
	db      []*igq.Graph
	ops     []op
	probe   *igq.Graph     // first query of every server start (setup_s)
	batches [][]*igq.Graph // mutation batches: clones under fresh IDs
}

// generate builds the first nOps operations of workload s. The dataset and the query
// population are the benchmark's own, fixed like the paper's dataset files
// and a recorded query log: dataset.Generate and workload.Generate under
// constant seeds, mutation batches included. The run's seed decides the order
// in which the log is replayed — a shuffle within consecutive blocks of
// shuffleBlock queries — and which executed queries the answer check samples.
//
// Why not a fresh sample per seed: query cost is heavy-tailed (a fifth of
// the queries are 4-edge patterns with ~600 candidates each, the median
// query has 1), so the mean over a fresh 4 000-query sample moves iso tests
// per query by ±15 % and throughput with it, and even a full permutation of a
// fixed log moves them by ±10 % through which heavy queries land in the
// warm-up. The block is small because the cache's admission dynamics
// bifurcate: replayed sequentially, sub-zipf settles at either 23.2 or 21.9
// iso tests per query, and blocks of 25 reach the second state in half the
// seeds, blocks of 8 in one of eight. Under a block shuffle any prefix of the stream holds the same
// queries whatever the seed, so what differs between seeds is the interleaving
// the cache, the admission window and the two connections see — and the
// spread between runs is the machine's, which is what the bounds in
// BENCHMARK.json have to be compared with. The traced run replays the live
// run's first operations.
func generate(s spec, sc scale, seed int64, nOps int) inputs {
	db := dataset.Generate(dataset.AIDS().Scaled(sc.countFrac, 1))
	for i, g := range db {
		if g.ID != i {
			// The answer check equates dataset positions and graph IDs.
			panic(fmt.Sprintf("bench: generated graph %d carries ID %d", i, g.ID))
		}
	}
	// The probe is the population's first query; the stream is the rest,
	// generated and shuffled in whole blocks so that a shorter stream is a
	// prefix of a longer one.
	padded := (nOps + shuffleBlock - 1) / shuffleBlock * shuffleBlock
	population := workload.Generate(db, workload.Spec{
		NumQueries: padded + 1, GraphDist: s.graphDist, NodeDist: s.nodeDist,
		Alpha: 1.4, Seed: populationSeed,
	})
	probe, population := population[0].G, population[1:]
	orderRNG := rand.New(rand.NewSource(seed))
	order := make([]int, padded)
	for i := range order {
		order[i] = i
	}
	for lo := 0; lo < padded; lo += shuffleBlock {
		block := order[lo : lo+shuffleBlock]
		orderRNG.Shuffle(shuffleBlock, func(a, b int) { block[a], block[b] = block[b], block[a] })
	}
	// Which graphs the mutations clone is part of the fixed log: a clone of a
	// popular graph adds candidates to every hot query until it is removed,
	// so seed-dependent choices moved iso tests per query by ±20 %.
	rng := rand.New(rand.NewSource(populationSeed))
	in := inputs{db: db, probe: probe, ops: make([]op, 0, nOps)}
	nq, nm := 0, 0
	for i := 0; i < nOps; i++ {
		if s.mutateEvery > 0 && i%s.mutateEvery == s.mutateEvery-1 {
			if nm%2 == 0 {
				batch := make([]*igq.Graph, mutationBatch)
				for k := range batch {
					g := db[rng.Intn(len(db))].Clone()
					g.ID = freshIDBase + len(in.batches)*mutationBatch + k
					batch[k] = g
				}
				in.ops = append(in.ops, op{kind: opAdd, batch: len(in.batches)})
				in.batches = append(in.batches, batch)
			} else {
				in.ops = append(in.ops, op{kind: opRemove, batch: len(in.batches) - 1})
			}
			nm++
			continue
		}
		mode := server.ModeSub
		if s.mixedModes && nq%2 == 1 {
			mode = server.ModeSuper
		}
		in.ops = append(in.ops, op{kind: opQuery, mode: mode, query: population[order[nq]].G})
		nq++
	}
	return in
}
