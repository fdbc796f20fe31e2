package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"lowfive/internal/transport"
	"lowfive/metrics"
	"lowfive/mpi"
)

// worldResult is everything one world recorded.
type worldResult struct {
	Traced bool
	// T0Ns is when the world's launch began (Unix ns): before the rank
	// goroutines start, or before the rank processes are spawned.
	T0Ns  int64
	Ranks []rankLog
	Procs []procLog
}

// runWorld launches one world of the workload on its engine and waits for
// it to finish.
func runWorld(bw benchWorkload, engine string, seed int64, world int, traced bool) (worldResult, error) {
	if engine == engineSock {
		return runSockWorld(bw, seed, world, traced)
	}
	return runChanWorld(bw, seed, world, traced)
}

// runChanWorld runs a world whose ranks are goroutines of this process.
// World rank 0 records the process counters.
func runChanWorld(bw benchWorkload, seed int64, world int, traced bool) (worldResult, error) {
	res := worldResult{
		Traced: traced,
		Ranks:  make([]rankLog, bw.Spec.Producers+bw.Spec.Consumers),
		Procs:  make([]procLog, 1),
	}
	var reg *metrics.Registry
	var opts []mpi.Option
	if traced {
		reg = metrics.NewRegistry()
		opts = append(opts, mpi.WithMetrics(reg))
	}
	res.T0Ns = time.Now().UnixNano()
	err := mpi.RunWorkflow(bw.taskSpecs(func(p *mpi.Proc) *rankRun {
		wr := p.World.Rank()
		r := &rankRun{bw: bw, seed: seed, world: world, p: p, log: &res.Ranks[wr], reg: reg, tr: tracer{on: traced}}
		if wr == 0 {
			r.proc = &res.Procs[0]
		}
		return r
	}), opts...)
	if err != nil {
		return res, fmt.Errorf("%s world %d: %w", bw.Name, world, err)
	}
	return res, nil
}

// The sock engine's ranks are this binary re-executed with envChild set to
// a JSON childConfig. Each child joins the world through the coordinator,
// runs its rank, and prints one reportMarker line with its records.
const (
	envChild     = "PERFBENCH_RANK_CHILD"
	reportMarker = "PERFBENCH_REPORT "
	// sockWorldTimeout bounds one multi-process world (about 9 s when
	// healthy), so a hung world still ends the run well within 180 s.
	sockWorldTimeout = 60 * time.Second
)

type childConfig struct {
	Workload benchWorkload `json:"workload"`
	Seed     int64         `json:"seed"`
	World    int           `json:"world"`
	Traced   bool          `json:"traced"`
	Rank     int           `json:"rank"`
	Size     int           `json:"size"`
	Coord    string        `json:"coord"`
}

type childReport struct {
	Rank rankLog `json:"rank"`
	Proc procLog `json:"proc"`
}

// runSockWorld spawns one process per world rank, waits for all of them,
// and collects their reports. On a timeout it kills the processes and
// still waits for each to exit.
func runSockWorld(bw benchWorkload, seed int64, world int, traced bool) (worldResult, error) {
	size := bw.Spec.Producers + bw.Spec.Consumers
	res := worldResult{Traced: traced, Ranks: make([]rankLog, size), Procs: make([]procLog, size)}
	coord, err := transport.NewCoordinator("tcp", "127.0.0.1:0", size)
	if err != nil {
		return res, fmt.Errorf("coordinator: %w", err)
	}
	defer coord.Close()
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}

	res.T0Ns = time.Now().UnixNano()
	cmds := make([]*exec.Cmd, 0, size)
	outs := make([]*bytes.Buffer, size)
	done := make(chan error, size)
	for r := 0; r < size; r++ {
		cfg, _ := json.Marshal(childConfig{
			Workload: bw, Seed: seed, World: world, Traced: traced,
			Rank: r, Size: size, Coord: coord.Addr(),
		})
		outs[r] = &bytes.Buffer{}
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), envChild+"="+string(cfg))
		cmd.Stdout = outs[r]
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			for _, c := range cmds {
				c.Process.Kill()
			}
			for range cmds {
				<-done
			}
			return res, fmt.Errorf("spawn rank %d: %w", r, err)
		}
		cmds = append(cmds, cmd)
		go func(r int, cmd *exec.Cmd) {
			if err := cmd.Wait(); err != nil {
				done <- fmt.Errorf("rank %d process: %w", r, err)
				return
			}
			done <- nil
		}(r, cmd)
	}

	var firstErr error
	timeout := time.NewTimer(sockWorldTimeout)
	defer timeout.Stop()
	for waiting := size; waiting > 0; {
		select {
		case err := <-done:
			waiting--
			if err != nil && firstErr == nil {
				firstErr = err
				for _, c := range cmds {
					c.Process.Kill()
				}
			}
		case <-timeout.C:
			if firstErr == nil {
				firstErr = fmt.Errorf("world timed out after %s", sockWorldTimeout)
			}
			for _, c := range cmds {
				c.Process.Kill()
			}
		}
	}
	if firstErr != nil {
		return res, fmt.Errorf("%s world %d: %w", bw.Name, world, firstErr)
	}

	for r, out := range outs {
		rep, err := parseReport(out.String())
		if err != nil {
			return res, fmt.Errorf("%s world %d rank %d: %w", bw.Name, world, r, err)
		}
		res.Ranks[r], res.Procs[r] = rep.Rank, rep.Proc
	}
	return res, nil
}

func parseReport(out string) (childReport, error) {
	var rep childReport
	sc := bufio.NewScanner(strings.NewReader(out))
	sc.Buffer(nil, 1<<30)
	for sc.Scan() {
		if line, ok := strings.CutPrefix(sc.Text(), reportMarker); ok {
			return rep, json.Unmarshal([]byte(line), &rep)
		}
	}
	return rep, fmt.Errorf("no report line in rank output")
}

// childMain runs this process as one sock-engine rank when it was spawned
// as one, and reports whether it did.
func childMain() bool {
	env := os.Getenv(envChild)
	if env == "" {
		return false
	}
	enter := time.Now()
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := runChild(env, enter); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench rank: %v\n", err)
		os.Exit(1)
	}
	return true
}

func runChild(env string, enter time.Time) error {
	var cfg childConfig
	if err := json.Unmarshal([]byte(env), &cfg); err != nil {
		return fmt.Errorf("bad child config: %w", err)
	}
	bw := cfg.Workload
	var reg *metrics.Registry
	var opts []mpi.Option
	if cfg.Traced {
		reg = metrics.NewRegistry()
		opts = append(opts, mpi.WithMetrics(reg))
	}
	w, err := mpi.NewSockWorld(mpi.SockWorldConfig{
		Network: "tcp", Coord: cfg.Coord, Rank: cfg.Rank, Size: cfg.Size,
	}, opts...)
	if err != nil {
		return err
	}
	rep := childReport{Rank: rankLog{EnterNs: enter.UnixNano()}}
	runErr := w.RunWorkflowLocal(bw.taskSpecs(func(p *mpi.Proc) *rankRun {
		return &rankRun{
			bw: bw, seed: cfg.Seed, world: cfg.World, p: p,
			log: &rep.Rank, proc: &rep.Proc, reg: reg, tr: tracer{on: cfg.Traced},
		}
	}))
	rep.Proc.Sock, _ = w.SockStats()
	closeErr := w.Close()
	if runErr != nil {
		return runErr
	}
	if closeErr != nil {
		return closeErr
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(reportMarker + string(b))
	return nil
}
