package main

import (
	"runtime"

	"lowfive/internal/grid"
	"lowfive/internal/workload"
)

// Engines a workload runs on.
const (
	engineChan = "chan" // every rank a goroutine of this process
	engineSock = "sock" // every rank its own OS process, frames over loopback TCP
)

// benchWorkload is one set of inputs the benchmark runs. Each world runs
// Epochs epochs after one set-up; a run repeats worlds until its time is
// spent, so every world adds one set-up sample and Epochs epoch samples.
type benchWorkload struct {
	Name   string
	Engine string
	// Query selects the small-query mix: consumers issue Reads closed-loop
	// box reads per epoch instead of reading their whole block.
	Query bool
	Spec  workload.Spec
	// Epochs is the number of epochs one world runs.
	Epochs int
	// Reads is the closed-loop read count of each consumer per epoch
	// (query mode only).
	Reads int
	// MinWorlds is the least number of worlds one run makes.
	MinWorlds int
	// SetupProbes is the number of extra worlds of zero epochs a run makes
	// first, to add set-up samples where few full worlds fit in a run.
	SetupProbes int
}

// workloads returns the benchmark's workloads by name. Sizes follow the
// paper's Table I; cost models are off everywhere (no α–β sleeps, no
// simulated file system), so every measured nanosecond is real work.
func workloads() map[string]benchWorkload {
	return map[string]benchWorkload{
		// Table I's 16-process row at the paper's full per-producer size:
		// 12 producers, 4 consumers, 10^6 grid points and 10^6 particles
		// per producer, about 229 MiB of science data per epoch. About 15
		// full worlds fit in a 40 s run, so ten probes (about 0.1 s each)
		// add set-up samples.
		"redist-chan": {
			Name: "redist-chan", Engine: engineChan,
			Spec:   workload.PaperSpec(16),
			Epochs: 6, MinWorlds: 3, SetupProbes: 10,
		},
		// One producer and one consumer process, 10^5 grid points and
		// particles (three 1 MiB stream chunks per epoch). 48 epochs send
		// 144 chunks, well past the chunk pool's 64-chunk bound. Only about
		// four full worlds fit in a 40 s run; 40 probes (about 35 ms each)
		// give the set-up median its samples.
		"redist-sock": {
			Name: "redist-sock", Engine: engineSock,
			Spec: workload.Spec{
				Producers: 1, Consumers: 1,
				GridPointsPerProducer: 1e5, ParticlesPerProducer: 1e5,
			},
			Epochs: 48, MinWorlds: 2, SetupProbes: 40,
		},
		// Six producers serve one file per epoch; nproc consumers issue
		// closed-loop 12^3 box reads drawn zipf s=1.2 over 64 boxes.
		"query-mix": {
			Name: "query-mix", Engine: engineChan, Query: true,
			Spec: workload.Spec{
				Producers: 6, Consumers: runtime.NumCPU(),
				GridPointsPerProducer: 1e5, ParticlesPerProducer: 1e5,
			},
			Epochs: 20, Reads: 400, MinWorlds: 3,
		},
	}
}

// queryBoxSide is the edge of every query-mix read box.
const queryBoxSide = 12

// workloadNames lists the workloads in the order the smoke test runs them.
var workloadNames = []string{"redist-chan", "redist-sock", "query-mix"}

// queries returns one consumer's read boxes for a whole world: 12^3
// boxes drawn zipf s=1.2 over a ranked population of 64. Each world draws
// its own population from (seed, world), so a run averages over many sets
// of hot boxes while the same seed still gives the same inputs.
func (bw benchWorkload) queries(seed int64, world, consumer int) []grid.Box {
	st := workload.StormSpec{
		Seed:  uint64(seed)*0x9e3779b97f4a7c15 + uint64(world),
		ZipfS: 1.2, Boxes: 64, BoxSide: queryBoxSide,
		QueriesPerClient: bw.Reads * bw.Epochs,
	}
	return st.Queries(bw.Spec.GridDims(), bw.Name, consumer)
}

// bytesPerEpoch is the science data one epoch moves: the whole synthetic
// file for a redistribution, the grid bytes of every read for the query
// mix.
func (bw benchWorkload) bytesPerEpoch() int64 {
	if !bw.Query {
		return bw.Spec.TotalBytes()
	}
	side := int64(queryBoxSide)
	return int64(bw.Spec.Consumers*bw.Reads) * side * side * side * 8
}
