package main

import (
	"fmt"
	"math"
	"sort"
)

const mib = 1 << 20

// metric is one reported number.
type metric struct {
	Name  string
	Value float64
	Unit  string
	// Note is printed beside the value (quantile and sample count of a
	// tail) and is not part of the JSON result.
	Note string
}

// runResult is everything one benchmark run recorded.
type runResult struct {
	bw     benchWorkload
	worlds []worldResult
	// baseline is the in-proc world of the same spec a sock workload is
	// compared with: its consumer digests are the reference, its epoch
	// median the base of transport.sock_overhead_ms.
	baseline *worldResult
	// parentRSS is this process's own peak RSS at the end of the run.
	parentRSS int64
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty set).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailLadder is the set of quantiles a tail is chosen from. It stops at
// p95: on a small shared host, the p99 of the query mix's ~40 µs reads is
// set by OS-thread wake-ups and CPU time stolen by the hypervisor, and it
// moved by 30–130% between identical runs.
var tailLadder = []float64{0.95, 0.9, 0.8, 0.75, 2.0 / 3, 0.5}

// tail returns the highest quantile on the ladder with at least ten
// samples beyond it, its value, and a note naming both with the count.
func tail(xs []float64) (float64, string) {
	q := 0.5
	for _, c := range tailLadder {
		if float64(len(xs))*(1-c) >= 10 {
			q = c
			break
		}
	}
	return quantile(xs, q), fmt.Sprintf("p%.4g of %d", 100*q, len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// selectWorlds returns the worlds with the given tracing state.
func (rr runResult) selectWorlds(traced bool) []worldResult {
	var out []worldResult
	for _, w := range rr.worlds {
		if w.Traced == traced {
			out = append(out, w)
		}
	}
	return out
}

// agg folds the records of a set of worlds into the sums and samples the
// metrics are computed from.
type agg struct {
	epochs                int       // world epochs (not rank epochs)
	epochMs               []float64 // per world epoch: slowest rank's barrier-to-barrier time
	stallMs               []float64 // per producer epoch: create+write+close
	createWriteMs         []float64
	closeServeMs          []float64
	openMs, closeDoneMs   []float64
	barrierMs             []float64 // per rank epoch
	barrierSpreadMs       []float64 // per world epoch: max-min across ranks
	queryUs               []float64 // per query
	readNs, readWaitNs    int64
	readPhaseNs           int64 // per world epoch: slowest consumer's read phase
	checked, bad          int
	goodBytes             int64
	serveBytes, fetched   int64
	metaFetches, boxQ     int64
	dataQ, chunksServed   int64
	parked                int64
	retries, sheds, hedge int64
	setupS, spawnS        []float64
	rendezvousS, genS     []float64
	alloc, gcPauseNs      uint64
	numGC                 uint64
	bufGets, bufOverflow  int64
	bufHighWater          int
	bufOutstandingEnd     int
	linkBytes             int64
	sentFrames, sentBytes int64
	resent, reconnects    int64
	peakRSS               int64
	self                  map[string]int64 // span self time by span name
	rankEpochs            int
	spans                 int
}

func aggregate(worlds []worldResult) agg {
	a := agg{self: map[string]int64{}}
	for _, w := range worlds {
		var maxEnter, maxJoined, maxReady, maxGen int64
		for _, r := range w.Ranks {
			maxEnter = max(maxEnter, r.EnterNs)
			maxJoined = max(maxJoined, r.JoinedNs)
			maxReady = max(maxReady, r.ReadyNs)
			maxGen = max(maxGen, r.GenerateNs)
			a.metaFetches += r.Query.MetadataFetches
			a.boxQ += r.Query.BoxQueries
			a.dataQ += r.Query.DataQueries
			a.fetched += r.Query.BytesFetched
			a.retries += r.Query.Retries
			a.sheds += r.Query.Sheds
			a.hedge += r.Query.HedgedCalls
			a.serveBytes += r.Serve.BytesServed
			a.chunksServed += r.Serve.ChunksServed
			a.parked += r.Serve.ParkedRequests
			a.spans += len(r.Spans)
			selfTimes(r.Spans, a.self)
		}
		a.setupS = append(a.setupS, float64(maxReady-w.T0Ns)/1e9)
		a.spawnS = append(a.spawnS, float64(maxEnter-w.T0Ns)/1e9)
		a.rendezvousS = append(a.rendezvousS, float64(maxJoined-maxEnter)/1e9)
		a.genS = append(a.genS, float64(maxGen)/1e9)

		nEpochs := len(w.Ranks[0].Epochs)
		a.epochs += nEpochs
		a.rankEpochs += nEpochs * len(w.Ranks)
		for e := 0; e < nEpochs; e++ {
			var slowest, phase int64
			minB, maxB := int64(math.MaxInt64), int64(0)
			for _, r := range w.Ranks {
				el := r.Epochs[e]
				slowest = max(slowest, el.EpochNs)
				minB, maxB = min(minB, el.BarrierNs), max(maxB, el.BarrierNs)
				a.barrierMs = append(a.barrierMs, float64(el.BarrierNs)/1e6)
				if r.Producer {
					a.stallMs = append(a.stallMs, float64(el.CreateWriteNs+el.CloseServeNs)/1e6)
					a.createWriteMs = append(a.createWriteMs, float64(el.CreateWriteNs)/1e6)
					a.closeServeMs = append(a.closeServeMs, float64(el.CloseServeNs)/1e6)
					continue
				}
				phase = max(phase, el.ReadPhaseNs)
				a.openMs = append(a.openMs, float64(el.OpenNs)/1e6)
				a.closeDoneMs = append(a.closeDoneMs, float64(el.CloseDoneNs)/1e6)
				for _, ns := range el.QueryNs {
					a.queryUs = append(a.queryUs, float64(ns)/1e3)
					a.readNs += ns
				}
				a.readWaitNs += el.ReadWaitNs
				a.checked += el.Checked
				a.bad += el.Bad
				if el.Bad == 0 {
					a.goodBytes += el.Bytes
				}
			}
			a.epochMs = append(a.epochMs, float64(slowest)/1e6)
			a.barrierSpreadMs = append(a.barrierSpreadMs, float64(maxB-minB)/1e6)
			a.readPhaseNs += phase
		}
		var outstanding int
		for _, p := range w.Procs {
			a.alloc += p.AllocBytes
			a.numGC += uint64(p.NumGC)
			a.gcPauseNs += p.GCPauseNs
			a.bufGets += p.BufGets
			a.bufOverflow += p.BufOverflow
			a.bufHighWater = max(a.bufHighWater, p.BufHighWater)
			outstanding += p.BufOutstanding
			a.linkBytes += p.LinkBytes
			a.sentFrames += p.Sock.SentFrames
			a.sentBytes += p.Sock.SentBytes
			a.resent += p.Sock.ResentFrames
			a.reconnects += p.Sock.Reconnects
			a.peakRSS = max(a.peakRSS, p.PeakRSS)
		}
		a.bufOutstandingEnd = max(a.bufOutstandingEnd, outstanding)
	}
	return a
}

func (a agg) queries() int { return len(a.queryUs) }

// digestMismatches counts consumer epochs of a sock run whose digest
// differs from the in-proc run of the same spec.
func (rr runResult) digestMismatches() int {
	if rr.baseline == nil {
		return 0
	}
	bad := 0
	for _, w := range rr.worlds {
		for ri, r := range w.Ranks {
			for e, el := range r.Epochs {
				if !r.Producer && el.Digest != rr.baseline.Ranks[ri].Epochs[e].Digest {
					bad++
				}
			}
		}
	}
	return bad
}

// attempts returns the validated units (consumer epochs, or query reads)
// and how many of them failed validation or the digest comparison.
func (rr runResult) attempts() (attempted, failed int) {
	a := aggregate(rr.worlds)
	return a.checked, a.bad + rr.digestMismatches()
}

// endToEnd computes the user-visible metrics from the untraced worlds.
func (rr runResult) endToEnd() []metric {
	a := aggregate(rr.selectWorlds(false))
	tailMs, tailNote := tail(a.epochMs)
	queryTail, queryNote := tail(a.queryUs)
	epochS := 0.0
	for _, ms := range a.epochMs {
		epochS += ms / 1e3
	}
	return []metric{
		{Name: "setup_s", Value: quantile(a.setupS, 0.5), Unit: "s", Note: fmt.Sprintf("median of %d worlds", len(a.setupS))},
		{Name: "epoch_p50_ms", Value: quantile(a.epochMs, 0.5), Unit: "ms", Note: fmt.Sprintf("of %d epochs", len(a.epochMs))},
		{Name: "epoch_tail_ms", Value: tailMs, Unit: "ms", Note: tailNote},
		{Name: "throughput_mib_s", Value: ratio(float64(a.goodBytes)/mib, epochS), Unit: "MiB/s"},
		{Name: "producer_stall_p50_ms", Value: quantile(a.stallMs, 0.5), Unit: "ms"},
		{Name: "query_p50_us", Value: quantile(a.queryUs, 0.5), Unit: "us", Note: fmt.Sprintf("of %d queries", a.queries())},
		{Name: "query_tail_us", Value: queryTail, Unit: "us", Note: queryNote},
		{Name: "queries_per_s", Value: ratio(float64(a.queries()), float64(a.readPhaseNs)/1e9), Unit: "1/s"},
	}
}

// memory returns the allocation and resident-set metrics of a set of
// worlds. They are user-visible, but on redist-chan they follow how often
// the chunk pool falls back to unpooled allocations, which varies too much
// from run to run to gate a change on; they are reported with the layer
// metrics instead.
func (rr runResult) memory(a agg) []metric {
	return []metric{
		{Name: "alloc_mib_per_epoch", Value: ratio(float64(a.alloc)/mib, float64(a.epochs)), Unit: "MiB/epoch"},
		{Name: "alloc_kib_per_query", Value: ratio(float64(a.alloc)/1024, float64(a.queries())), Unit: "KiB/query"},
		{Name: "peak_rss_mib", Value: float64(max(a.peakRSS, rr.parentRSS)) / mib, Unit: "MiB"},
	}
}

// perLayer computes the layer metrics from the traced worlds; the
// tracing overhead compares them with the untraced ones.
func (rr runResult) perLayer() []metric {
	a := aggregate(rr.selectWorlds(true))
	plain := aggregate(rr.selectWorlds(false))
	ep := float64(a.epochs)
	queries := float64(a.queries())
	attempted, failed := rr.attempts()
	sockOverhead := 0.0
	if rr.baseline != nil {
		base := aggregate([]worldResult{*rr.baseline})
		sockOverhead = quantile(plain.epochMs, 0.5) - quantile(base.epochMs, 0.5)
	}
	sentMiB := float64(a.sentBytes) / mib
	rankEpochs := float64(a.rankEpochs)
	selfLayer := map[string]float64{}
	for name, ns := range a.self {
		selfLayer[layerOf(name)] += float64(ns) / 1e6
	}
	return append(rr.memory(a), []metric{
		{Name: "h5.create_write_ms", Value: quantile(a.createWriteMs, 0.5), Unit: "ms"},
		{Name: "core.close_serve_ms", Value: quantile(a.closeServeMs, 0.5), Unit: "ms"},
		{Name: "core.open_ms", Value: quantile(a.openMs, 0.5), Unit: "ms"},
		{Name: "core.close_done_ms", Value: quantile(a.closeDoneMs, 0.5), Unit: "ms"},
		{Name: "core.read_ms", Value: ratio(float64(a.readNs)/1e6, queries), Unit: "ms"},
		{Name: "core.read_wait_ms", Value: ratio(float64(a.readWaitNs)/1e6, queries), Unit: "ms"},
		{Name: "core.read_self_ms", Value: ratio(float64(a.readNs-a.readWaitNs)/1e6, queries), Unit: "ms"},
		{Name: "core.metadata_fetches", Value: ratio(float64(a.metaFetches), ep), Unit: "count/epoch"},
		{Name: "core.box_queries", Value: ratio(float64(a.boxQ), ep), Unit: "count/epoch"},
		{Name: "core.data_queries", Value: ratio(float64(a.dataQ), ep), Unit: "count/epoch"},
		{Name: "core.chunks_served", Value: ratio(float64(a.chunksServed), ep), Unit: "count/epoch"},
		{Name: "core.bytes_served_mib", Value: ratio(float64(a.serveBytes)/mib, ep), Unit: "MiB/epoch"},
		{Name: "core.parked_requests", Value: ratio(float64(a.parked), ep), Unit: "count/epoch"},
		{Name: "core.box_queries_per_read", Value: ratio(float64(a.boxQ), queries), Unit: "ratio"},
		{Name: "core.served_to_fetched", Value: ratio(float64(a.serveBytes), float64(a.fetched)), Unit: "ratio"},
		{Name: "rpc.retries", Value: float64(a.retries), Unit: "count"},
		{Name: "rpc.sheds", Value: float64(a.sheds), Unit: "count"},
		{Name: "rpc.hedged_calls", Value: float64(a.hedge), Unit: "count"},
		{Name: "mpi.barrier_wait_ms", Value: quantile(a.barrierMs, 0.5), Unit: "ms"},
		{Name: "mpi.barrier_spread_ms", Value: quantile(a.barrierSpreadMs, 0.5), Unit: "ms"},
		{Name: "mpi.link_mib_per_epoch", Value: ratio(float64(a.linkBytes)/mib, ep), Unit: "MiB/epoch"},
		{Name: "mpi.wire_to_payload", Value: ratio(float64(a.linkBytes), float64(rr.bw.bytesPerEpoch())*ep), Unit: "ratio"},
		{Name: "transport.sent_frames_per_epoch", Value: ratio(float64(a.sentFrames), ep), Unit: "count/epoch"},
		{Name: "transport.sent_mib_per_epoch", Value: ratio(sentMiB, ep), Unit: "MiB/epoch"},
		{Name: "transport.resent_frames", Value: float64(a.resent), Unit: "count"},
		{Name: "transport.reconnects", Value: float64(a.reconnects), Unit: "count"},
		{Name: "transport.frames_per_mib", Value: ratio(float64(a.sentFrames), sentMiB), Unit: "count/MiB"},
		{Name: "transport.sock_overhead_ms", Value: sockOverhead, Unit: "ms"},
		{Name: "buf.gets_per_epoch", Value: ratio(float64(a.bufGets), ep), Unit: "count/epoch"},
		{Name: "buf.overflow_per_epoch", Value: ratio(float64(a.bufOverflow), ep), Unit: "count/epoch"},
		{Name: "buf.high_water", Value: float64(a.bufHighWater), Unit: "count"},
		{Name: "buf.outstanding_end", Value: float64(a.bufOutstandingEnd), Unit: "count"},
		{Name: "runtime.gc_count_per_epoch", Value: ratio(float64(a.numGC), ep), Unit: "count/epoch"},
		{Name: "runtime.gc_pause_ms_per_epoch", Value: ratio(float64(a.gcPauseNs)/1e6, ep), Unit: "ms/epoch"},
		{Name: "setup.spawn_s", Value: quantile(a.spawnS, 0.5), Unit: "s"},
		{Name: "setup.rendezvous_s", Value: quantile(a.rendezvousS, 0.5), Unit: "s"},
		{Name: "setup.generate_s", Value: quantile(a.genS, 0.5), Unit: "s"},
		{Name: "failed_ratio", Value: ratio(float64(failed), float64(attempted)), Unit: "ratio"},
		{Name: "trace.overhead_ms", Value: quantile(a.epochMs, 0.5) - quantile(plain.epochMs, 0.5), Unit: "ms"},
		{Name: "trace.self_bench_ms", Value: ratio(selfLayer["bench"], rankEpochs), Unit: "ms"},
		{Name: "trace.self_h5_ms", Value: ratio(selfLayer["h5"], rankEpochs), Unit: "ms"},
		{Name: "trace.self_core_ms", Value: ratio(selfLayer["core"], rankEpochs), Unit: "ms"},
		{Name: "trace.self_mpi_ms", Value: ratio(selfLayer["mpi"], rankEpochs), Unit: "ms"},
		{Name: "trace.spans", Value: float64(a.spans), Unit: "count"},
	}...)
}
