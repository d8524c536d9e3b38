package main

import (
	"fmt"
	"runtime"
	"time"

	"adp/internal/algorithms"
	"adp/internal/composite"
	"adp/internal/costmodel"
	"adp/internal/engine"
	"adp/internal/gen"
	"adp/internal/graph"
)

const parseRepeats = 3 // edge-list parses before the loop; each iteration parses once more

// runBatch is partition-batch: the paper's offline pipeline — ingest,
// Fennel + ME2H, then each of the five algorithms once on the fresh
// partition — repeated on the heaviest-skew stand-in graph until
// --seconds run out.
func runBatch(cfg config, rep *report) error {
	g0 := gen.TwitterLike()
	text := edgeListText(g0)
	gsym := graph.Symmetrize(g0)
	want := map[costmodel.Algo]algorithms.Outcome{}
	for _, a := range costmodel.Algos() {
		want[a] = algorithms.SeqOutcome(gsym, a, algorithms.Options{})
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	cal, err := newCalibrator()
	if err != nil {
		return err
	}
	defer cal.close()

	// setup_s is the median parse over the whole run: a few up front,
	// then one per iteration, each iteration working on its own parse.
	var setups []float64
	var g *graph.Graph
	parse := func() error {
		t := time.Now()
		var err error
		tr.do("graph.ingest", 0, 0, func() { g, err = ingest(text) })
		setups = append(setups, time.Since(t).Seconds())
		if err == nil && (g.NumVertices() != gsym.NumVertices() || g.NumEdges() != gsym.NumEdges()) {
			rep.failf("ingest: %d vertices %d arcs, generator %d %d", g.NumVertices(), g.NumEdges(), gsym.NumVertices(), gsym.NumEdges())
		}
		return err
	}
	for i := 0; i < parseRepeats; i++ {
		if err := parse(); err != nil {
			return err
		}
	}

	cyc := &algoCycle{rng: streamRNG(cfg.seed, 1)}
	var parts, rounds []float64
	var iterTimes [2][]float64 // untraced, traced iterations (traced runs alternate)
	var runs dist
	var runLat algoDists
	var runWall time.Duration
	var sims map[costmodel.Algo]float64
	var allocs float64
	runtime.GC()
	cal.pass()
	runtime0 := readRuntime()
	heap := watchHeap(50 * time.Millisecond)
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for iter := 0; iter == 0 || time.Now().Before(deadline); iter++ {
		itr := (*tracer)(nil)
		if cfg.trace && iter%2 == 0 {
			itr = tr
		}
		if iter > 0 {
			if err := parse(); err != nil {
				return err
			}
		}
		iterStart := time.Now()
		comp, err := buildComposite(g, itr)
		if err != nil {
			return err
		}
		parts = append(parts, time.Since(iterStart).Seconds())
		if err := comp.ValidateIndex(); err != nil {
			rep.failf("composite index: %v", err)
		}
		sims = map[costmodel.Algo]float64{}
		roundStart := time.Now()
		n := len(costmodel.Algos())
		allocs = allocsPer(n, func() {
			for i := 0; i < n; i++ {
				a := cyc.next()
				lat, out, err := batchRun(itr, comp, a)
				rep.ops.record(err == nil)
				if err != nil {
					rep.failf("run %s: %v", a, err)
					runs.addFailed()
					continue
				}
				runs.add(ms(lat))
				runLat.add(a.String(), ms(lat))
				if !sameOutcome(out.Value, out.Checksum, want[a]) {
					rep.failf("run %s: value %v checksum %d, oracle %v %d", a, out.Value, out.Checksum, want[a].Value, want[a].Checksum)
				}
				sims[a] = out.Report.SimCost(engine.DefaultBytesWeight)
				rep.layer["engine.supersteps."+a.String()] = float64(out.Report.Supersteps)
				rep.layer["engine.msg_bytes."+a.String()] = float64(out.Report.TotalMsgBytes())
				rep.layer["engine.critical_work."+a.String()] = out.Report.CriticalWork
			}
		})
		round := time.Since(roundStart)
		runWall += round
		rounds = append(rounds, round.Seconds())
		traced := 0
		if itr != nil {
			traced = 1
		}
		iterTimes[traced] = append(iterTimes[traced], time.Since(iterStart).Seconds())
		rep.layer["composite.fc"] = comp.FC()
		for j, a := range costmodel.Algos() {
			rep.layer["costmodel.parallel_cost."+a.String()] = costmodel.ParallelCost(costmodel.Evaluate(comp.Partition(j), costmodel.Reference(a)))
		}
		cal.pass()
	}
	runtime1 := readRuntime()
	rep.e2e["live_heap_mb"] = heap.finish()
	cal.report(rep)
	rep.e2e["setup_s"] = median(setups)
	rep.logf("setup_s          %.4f s (edge-list parse, median of %d)", median(setups), len(setups))

	rep.e2e["partition_s"] = median(parts)
	rep.logf("partition_s      %.3f s (Fennel+ME2H, median of %d)", median(parts), len(parts))
	rep.logf("batch_run_s      %.3f s (five engine runs, median of %d rounds)", median(rounds), len(rounds))
	// The batch has no request stream besides its runs, so its op is
	// the engine run: op_* repeats run_*.
	rep.setDist("run", &runs, "run (engine)", 90)
	rep.setDist("op", &runs, "op = run", 90)
	rep.setRunP50(runLat)
	rep.e2e["capacity_per_s"] = float64(runs.n()) / runWall.Seconds()
	var costs []float64
	for _, a := range costmodel.Algos() {
		costs = append(costs, sims[a])
	}
	rep.e2e["sim_cost_geomean"] = geomean(costs)
	rep.logf("capacity_per_s   %.3f engine runs/s; sim_cost_geomean %.1f work; live_heap_mb %.1f",
		rep.e2e["capacity_per_s"], rep.e2e["sim_cost_geomean"], rep.e2e["live_heap_mb"])

	if !cfg.trace {
		return nil
	}
	rep.layer["runtime.gc_cpu_share"] = gcShare(runtime0, runtime1)
	rep.layer["runtime.sched_latency_p99_ms"] = schedP99(runtime0, runtime1)
	rep.layer["runtime.alloc_bytes_per_op.run"] = allocs
	rep.layerTimes(tr.selfTimes())
	if len(iterTimes[0]) > 0 && len(iterTimes[1]) > 0 {
		plain, traced := median(iterTimes[0]), median(iterTimes[1])
		rep.layer["trace.overhead_share"] = traced/plain - 1
		rep.logf("tracing overhead %.2f%% (traced iteration median %.3f s vs untraced %.3f s)", 100*(traced/plain-1), traced, plain)
	}
	return writeSpans(cfg, tr)
}

// batchRun builds a cluster over a's partition and runs a once.
func batchRun(tr *tracer, comp *composite.Composite, a costmodel.Algo) (time.Duration, algorithms.Outcome, error) {
	p := comp.Partition(algoIndex(a) % comp.K())
	t := time.Now()
	var cl *engine.Cluster
	tr.do("engine.new_cluster", 0, 0, func() { cl = engine.NewCluster(p) })
	var out algorithms.Outcome
	var err error
	tr.do("engine.run."+a.String(), 0, 0, func() { out, err = algorithms.Run(cl, a, algorithms.Options{}) })
	return time.Since(t), out, err
}

func algoIndex(a costmodel.Algo) int {
	for i, x := range costmodel.Algos() {
		if x == a {
			return i
		}
	}
	panic(fmt.Sprintf("unknown algorithm %v", a))
}
