package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"lowfive/h5"
	"lowfive/internal/buf"
	"lowfive/internal/core"
	"lowfive/internal/grid"
	"lowfive/internal/transport"
	"lowfive/internal/workload"
	"lowfive/metrics"
	"lowfive/mpi"
)

// The benchmark times every layer from outside: each rank wraps its calls
// into the public h5/core/mpi functions with clock reads, and reads the
// layers' counters through their Stats getters after the epoch. Nothing in
// the program under test is instrumented for the benchmark.

// epochLog is one rank's record of one epoch.
type epochLog struct {
	// EpochNs runs from the exit of the epoch's start barrier to the exit
	// of its end barrier.
	EpochNs int64 `json:"epoch_ns"`
	// BarrierNs is the time spent in the end barrier.
	BarrierNs int64 `json:"barrier_ns"`
	// Producer: h5 create + dataset writes, then the file close that
	// builds the index and serves until every consumer is done.
	CreateWriteNs int64 `json:"create_write_ns,omitempty"`
	CloseServeNs  int64 `json:"close_serve_ns,omitempty"`
	// Consumer: the remote open, each query (a query-mix box read, or the
	// two Dataset.Read calls of a redistribution consumer's blocks), the
	// read-phase wall time (first read start to last read end), the serve
	// wait the core layer reports for the reads, and the close that sends
	// done.
	OpenNs      int64   `json:"open_ns,omitempty"`
	QueryNs     []int64 `json:"query_ns,omitempty"`
	ReadPhaseNs int64   `json:"read_phase_ns,omitempty"`
	ReadWaitNs  int64   `json:"read_wait_ns,omitempty"`
	CloseDoneNs int64   `json:"close_done_ns,omitempty"`
	// Checked and Bad count validated units (consumer buffers or query
	// reads) and the ones whose data was wrong; Bytes is the validated
	// payload.
	Checked int   `json:"checked,omitempty"`
	Bad     int   `json:"bad,omitempty"`
	Bytes   int64 `json:"bytes,omitempty"`
	// Digest hashes every byte the consumer read (sock workloads only).
	Digest uint64 `json:"digest,omitempty"`
}

// rankLog is one rank's record of one world.
type rankLog struct {
	WorldRank int  `json:"world_rank"`
	Producer  bool `json:"producer"`
	// Set-up timestamps (Unix ns): the rank's code started, every rank
	// was known to be running (world barrier), every rank had its inputs.
	EnterNs    int64      `json:"enter_ns"`
	JoinedNs   int64      `json:"joined_ns"`
	ReadyNs    int64      `json:"ready_ns"`
	GenerateNs int64      `json:"generate_ns"`
	Epochs     []epochLog `json:"epochs"`
	// Serve and Query sum the per-epoch VOL counters.
	Serve core.ServeStats `json:"serve"`
	Query core.QueryStats `json:"query"`
	Spans []span          `json:"spans,omitempty"`
}

// procLog is one process's counters over a world's epoch loop.
type procLog struct {
	AllocBytes uint64 `json:"alloc_bytes"`
	NumGC      uint32 `json:"num_gc"`
	GCPauseNs  uint64 `json:"gc_pause_ns"`
	// Chunk pool: Gets and Overflow over the loop, the high-water mark
	// and the chunks still outstanding once the world is quiet.
	BufGets        int64 `json:"buf_gets"`
	BufOverflow    int64 `json:"buf_overflow"`
	BufHighWater   int   `json:"buf_high_water"`
	BufOutstanding int   `json:"buf_outstanding"`
	// LinkBytes is what the mpi layer recorded as sent (traced worlds
	// only: the counter needs a metrics registry on the world).
	LinkBytes int64               `json:"link_bytes"`
	Sock      transport.SockStats `json:"sock"`
	PeakRSS   int64               `json:"peak_rss"`

	ms0  runtime.MemStats
	buf0 buf.PoolStats
}

func (pl *procLog) begin() {
	runtime.ReadMemStats(&pl.ms0)
	pl.buf0 = buf.Default.Stats()
	buf.Default.ResetHighWater()
}

func (pl *procLog) end(reg *metrics.Registry) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b := buf.Default.Stats()
	pl.AllocBytes = ms.TotalAlloc - pl.ms0.TotalAlloc
	pl.NumGC = ms.NumGC - pl.ms0.NumGC
	pl.GCPauseNs = ms.PauseTotalNs - pl.ms0.PauseTotalNs
	pl.BufGets = b.Gets - pl.buf0.Gets
	pl.BufOverflow = b.Overflow - pl.buf0.Overflow
	pl.BufHighWater = b.HighWater
	pl.BufOutstanding = b.Outstanding
	if reg != nil {
		pl.LinkBytes = reg.Counter("mpi.send.bytes").Value()
	}
	pl.PeakRSS = peakRSS()
}

// peakRSS reads this process's resident-set high-water mark in bytes
// (0 where /proc is unavailable).
func peakRSS() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kib int64
			fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(line, "VmHWM:")), "%d", &kib)
			return kib << 10
		}
	}
	return 0
}

// rankRun is one rank's share of a world.
type rankRun struct {
	bw    benchWorkload
	seed  int64
	world int
	p     *mpi.Proc
	log   *rankLog
	tr    tracer
	// proc is non-nil on the one rank per process that records the
	// process counters.
	proc *procLog
	reg  *metrics.Registry

	// Producer inputs.
	gridVals []uint64
	partVals []float32
	// Consumer read buffers, allocated once per world and zeroed before
	// every epoch, so a read that delivers nothing cannot pass validation
	// on the previous epoch's data.
	gridBuf []uint64
	partBuf []float32
	boxes   []grid.Box
	outs    [][]uint64
}

// run executes the rank: rendezvous, input generation, the epoch loop.
// It panics on any error from the program; the world reports the panic.
func (r *rankRun) run() {
	r.log.WorldRank = r.p.World.Rank()
	r.log.Producer = r.p.TaskName == "producer"
	r.tr.rank = r.log.WorldRank
	if r.log.EnterNs == 0 {
		r.log.EnterNs = time.Now().UnixNano()
	}
	r.p.World.Barrier()
	r.log.JoinedNs = time.Now().UnixNano()

	g0 := time.Now()
	rank := r.p.Task.Rank()
	switch {
	case r.log.Producer:
		r.gridVals, r.partVals = workload.GenerateProducer(r.bw.Spec, rank)
	case r.bw.Query:
		r.boxes = r.bw.queries(r.seed, r.world, rank)
		var most int64
		for _, b := range r.boxes {
			most = max(most, b.NumPoints())
		}
		r.outs = make([][]uint64, r.bw.Reads)
		for i := range r.outs {
			r.outs[i] = make([]uint64, most)
		}
	default:
		s := r.bw.Spec
		r.gridBuf = make([]uint64, s.ConsumerGridBox(rank).NumPoints())
		lo, hi := workload.ParticleRange(s.TotalParticles(), s.Consumers, rank)
		r.partBuf = make([]float32, 3*(hi-lo))
	}
	r.log.GenerateNs = time.Since(g0).Nanoseconds()
	r.p.World.Barrier()
	r.log.ReadyNs = time.Now().UnixNano()

	if r.proc != nil {
		r.proc.begin()
	}
	for e := 0; e < r.bw.Epochs; e++ {
		var el epochLog
		if r.log.Producer {
			el = r.producerEpoch(e)
		} else {
			el = r.consumerEpoch(e)
		}
		r.log.Epochs = append(r.log.Epochs, el)
	}
	// Every rank has validated its last epoch before the process counters
	// are read.
	r.p.World.Barrier()
	if r.proc != nil {
		r.proc.end(r.reg)
	}
	r.log.Spans = r.tr.spans
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}

func fileName(e int) string { return fmt.Sprintf("epoch-%d.h5", e) }

// epochID names an epoch across the worlds of one run in the trace.
func (r *rankRun) epochID(e int) int64 { return int64(r.world)<<20 | int64(e) }

// barrier enters the world barrier and returns when it left it.
func (r *rankRun) barrier() time.Time {
	r.p.World.Barrier()
	return time.Now()
}

// producerEpoch writes the rank's blocks into a fresh file and closes it,
// which indexes the file and serves consumers until all of them are done.
func (r *rankRun) producerEpoch(e int) epochLog {
	vol := core.NewDistMetadataVOL(r.p.Task, nil)
	vol.SetIntercomm("*", r.p.Intercomm("consumer"))
	vol.SetZeroCopy("*", "*")
	fapl := h5.NewFileAccessProps(vol)

	start := r.barrier()
	t0 := time.Now()
	f, err := h5.CreateFile(fileName(e), fapl)
	check(err)
	check(workload.WriteSynthetic(f, r.bw.Spec, r.p.Task.Rank(), r.gridVals, r.partVals))
	t1 := time.Now()
	check(f.Close())
	t2 := time.Now()
	end := r.barrier()

	id := r.epochID(e)
	root := r.tr.add("epoch", id, -1, start, end)
	r.tr.add("h5.create_write", id, root, t0, t1)
	r.tr.add("core.close_serve", id, root, t1, t2)
	r.tr.add("mpi.barrier", id, root, t2, end)
	addServe(&r.log.Serve, vol.Stats())
	return epochLog{
		EpochNs:       end.Sub(start).Nanoseconds(),
		BarrierNs:     end.Sub(t2).Nanoseconds(),
		CreateWriteNs: t1.Sub(t0).Nanoseconds(),
		CloseServeNs:  t2.Sub(t1).Nanoseconds(),
	}
}

// consumerEpoch opens the epoch's file remotely and reads it: the rank's
// whole block of both datasets for a redistribution, or Reads small grid
// boxes for the query mix. Validation runs after the end barrier, outside
// the timed epoch.
func (r *rankRun) consumerEpoch(e int) epochLog {
	vol := core.NewDistMetadataVOL(r.p.Task, nil)
	vol.SetIntercomm("*", r.p.Intercomm("producer"))
	fapl := h5.NewFileAccessProps(vol)
	clear(r.gridBuf)
	clear(r.partBuf)
	for _, out := range r.outs {
		clear(out)
	}

	start := r.barrier()
	id := r.epochID(e)
	root := r.tr.add("epoch", id, -1, start, start)
	t0 := time.Now()
	f, err := h5.OpenFile(fileName(e), fapl)
	check(err)
	t1 := time.Now()
	wait0 := vol.QueryStats().WaitTime
	var el epochLog
	var validate func() (checked, bad int, bytes int64, digest uint64)
	if r.bw.Query {
		validate = r.readBoxes(f, e, root, &el)
	} else {
		validate = r.readBlocks(f, e, root, &el)
	}
	qs := vol.QueryStats()
	t2 := time.Now()
	check(f.Close())
	t3 := time.Now()
	end := r.barrier()

	r.tr.end(root, end)
	r.tr.add("core.open", id, root, t0, t1)
	r.tr.add("core.close_done", id, root, t2, t3)
	r.tr.add("mpi.barrier", id, root, t3, end)
	addQuery(&r.log.Query, vol.QueryStats())
	el.EpochNs = end.Sub(start).Nanoseconds()
	el.BarrierNs = end.Sub(t3).Nanoseconds()
	el.OpenNs = t1.Sub(t0).Nanoseconds()
	el.CloseDoneNs = t3.Sub(t2).Nanoseconds()
	el.ReadWaitNs = (qs.WaitTime - wait0).Nanoseconds()
	el.Checked, el.Bad, el.Bytes, el.Digest = validate()
	return el
}

// readBlocks reads the consumer's block of the grid and of the particles
// (workload.ReadConsumer, with each Dataset.Read timed). The two reads
// together are the epoch's one query of this consumer.
func (r *rankRun) readBlocks(f *h5.File, e, root int, el *epochLog) func() (int, int, int64, uint64) {
	s := r.bw.Spec
	rank := r.p.Task.Rank()
	id := r.epochID(e)
	gridBuf, partBuf := r.gridBuf, r.partBuf
	var first, last time.Time
	var total int64
	read := func(path string, sel *h5.Dataspace, data []byte) {
		ds, err := f.OpenDataset(path)
		check(err)
		q0 := time.Now()
		check(ds.Read(nil, sel, data))
		q1 := time.Now()
		check(ds.Close())
		if first.IsZero() {
			first = q0
		}
		last = q1
		total += q1.Sub(q0).Nanoseconds()
		r.tr.add("core.read", id, root, q0, q1)
	}
	if box := s.ConsumerGridBox(rank); !box.IsEmpty() {
		sel := h5.NewSimple(s.GridDims()...)
		check(sel.SelectBox(h5.SelectSet, box))
		read("group1/grid", sel, h5.Bytes(gridBuf))
	}
	if lo, hi := workload.ParticleRange(s.TotalParticles(), s.Consumers, rank); hi > lo {
		sel := h5.NewSimple(s.TotalParticles(), 3)
		check(sel.SelectHyperslab(h5.SelectSet, []int64{lo, 0}, []int64{hi - lo, 3}))
		read("group2/particles", sel, h5.Bytes(partBuf))
	}
	el.QueryNs = []int64{total}
	el.ReadPhaseNs = last.Sub(first).Nanoseconds()
	return func() (int, int, int64, uint64) {
		bad := 0
		if err := workload.ValidateConsumer(s, rank, gridBuf, partBuf); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: consumer %d: %v\n", rank, err)
			bad = 1
		}
		bytes := int64(len(gridBuf))*8 + int64(len(partBuf))*4
		var digest uint64
		// A sock run's digests are compared with the in-proc run of the
		// same spec, which shares this workload and so hashes too.
		if r.bw.Engine == engineSock {
			digest = digestBlocks(gridBuf, partBuf)
		}
		return 1, bad, bytes, digest
	}
}

// readBoxes runs the epoch's closed-loop box reads: one read outstanding,
// the next issued when the previous returns.
func (r *rankRun) readBoxes(f *h5.File, e, root int, el *epochLog) func() (int, int, int64, uint64) {
	dims := r.bw.Spec.GridDims()
	boxes := r.boxes[e*r.bw.Reads : (e+1)*r.bw.Reads]
	outs := make([][]uint64, len(boxes))
	ds, err := f.OpenDataset("group1/grid")
	check(err)
	base := r.epochID(e)<<24 | int64(r.log.WorldRank)<<16
	first := time.Now()
	for i, box := range boxes {
		sel := h5.NewSimple(dims...)
		check(sel.SelectBox(h5.SelectSet, box))
		outs[i] = r.outs[i][:sel.NumSelected()]
		q0 := time.Now()
		check(ds.Read(nil, sel, h5.Bytes(outs[i])))
		q1 := time.Now()
		el.QueryNs = append(el.QueryNs, q1.Sub(q0).Nanoseconds())
		r.tr.add("core.read", base|int64(i), root, q0, q1)
	}
	el.ReadPhaseNs = time.Since(first).Nanoseconds()
	check(ds.Close())
	return func() (int, int, int64, uint64) {
		bad := 0
		var bytes int64
		for i, box := range boxes {
			if err := workload.ValidateGrid(dims, box, outs[i]); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: query %v: %v\n", box, err)
				bad++
			}
			bytes += int64(len(outs[i])) * 8
		}
		return len(boxes), bad, bytes, 0
	}
}

// digestBlocks hashes a consumer's buffers in order.
func digestBlocks(gridBuf []uint64, partBuf []float32) uint64 {
	h := fnv.New64a()
	b := make([]byte, 8*len(gridBuf)+4*len(partBuf))
	for i, g := range gridBuf {
		binary.LittleEndian.PutUint64(b[8*i:], g)
	}
	off := 8 * len(gridBuf)
	for i, v := range partBuf {
		binary.LittleEndian.PutUint32(b[off+4*i:], math.Float32bits(v))
	}
	h.Write(b)
	return h.Sum64()
}

func addServe(dst *core.ServeStats, s core.ServeStats) {
	dst.MetadataRequests += s.MetadataRequests
	dst.BoxQueries += s.BoxQueries
	dst.DataQueries += s.DataQueries
	dst.BytesServed += s.BytesServed
	dst.DoneMessages += s.DoneMessages
	dst.ParkedRequests += s.ParkedRequests
	dst.ChunksServed += s.ChunksServed
	dst.Shed += s.Shed
	dst.Queued += s.Queued
}

func addQuery(dst *core.QueryStats, q core.QueryStats) {
	dst.MetadataFetches += q.MetadataFetches
	dst.BoxQueries += q.BoxQueries
	dst.DataQueries += q.DataQueries
	dst.BytesFetched += q.BytesFetched
	dst.WaitTime += q.WaitTime
	dst.Failovers += q.Failovers
	dst.FileFallbacks += q.FileFallbacks
	dst.ChunksFetched += q.ChunksFetched
	dst.Retries += q.Retries
	dst.HedgedCalls += q.HedgedCalls
	dst.HedgeWins += q.HedgeWins
	dst.Sheds += q.Sheds
	dst.BreakerOpens += q.BreakerOpens
}

// taskSpecs lays a workload out as the paper's two-task workflow:
// producer ranks first, consumer ranks after. mk builds each rank's run.
func (bw benchWorkload) taskSpecs(mk func(p *mpi.Proc) *rankRun) []mpi.TaskSpec {
	main := func(p *mpi.Proc) { mk(p).run() }
	return []mpi.TaskSpec{
		{Name: "producer", Procs: bw.Spec.Producers, Main: main},
		{Name: "consumer", Procs: bw.Spec.Consumers, Main: main},
	}
}
