package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"adp/internal/algorithms"
	"adp/internal/composite"
	"adp/internal/costmodel"
	"adp/internal/engine"
	"adp/internal/gen"
	"adp/internal/graph"
	"adp/internal/store"
)

// Fixed serve-workload shape. The rates sit near half the capacity
// measured on the parent commit (README.md), so a slower change shows
// as latency rather than as a growing backlog.
const (
	setupsBefore = 2     // fresh daemons built before the load (the last one serves it)
	setupsAfter  = 2     // and after it; setup_s is the median of all four
	extraBuilds  = 2     // Fennel+ME2H builds after those, for partition_s only
	openShare    = 0.7   // share of --seconds spent in the open-loop phase
	vertexRate   = 500.0 // GET /vertex per second on connection A (read-mix)
	runRate      = 6.0   // POST /run per second (connection B in read-mix, A in write-mix)
	updateRate   = 1.5   // POST /updates per second on connection B (write-mix)
	mutsPerBatch = 8     // insert/delete mutations per update batch
	maxLateMs    = 250.0 // a generator this far behind schedule invalidates the run
)

// runReply is the part of a POST /run reply the benchmark checks.
type runReply struct {
	Algo          string  `json:"algo"`
	Value         float64 `json:"value"`
	Checksum      uint64  `json:"checksum"`
	CriticalWork  float64 `json:"critical_work"`
	CriticalBytes float64 `json:"critical_bytes"`
}

type vertexReply struct {
	Vertex     uint32 `json:"vertex"`
	Partitions []struct {
		Copies    []int    `json:"copies"`
		Master    int      `json:"master"`
		Status    []string `json:"status"`
		OutDegree int      `json:"out_degree"`
	} `json:"partitions"`
}

type updateAck struct {
	LSN     uint64 `json:"lsn"`
	Durable bool   `json:"durable"`
	Visible bool   `json:"visible"`
}

// acked is one acknowledged update batch.
type acked struct {
	conn, seq int
	sent      time.Time
	lsn       uint64
	body      []byte
	open      bool // sent in the open-loop phase
}

// sameOutcome compares a distributed result with the sequential
// oracle the way the algorithms package's own tests do.
func sameOutcome(value float64, checksum uint64, want algorithms.Outcome) bool {
	return checksum == want.Checksum && math.Abs(value-want.Value) <= 1e-6*(1+math.Abs(want.Value))
}

// serveRun is the shared state of one serve-workload run.
type serveRun struct {
	cfg   config
	rep   *report
	write bool
	want  map[string]algorithms.Outcome // by algorithm name, on the base graph
	// expDeg[v*k+j] is the out-degree /vertex must report for v in
	// bundled partition j (read-mix; the composite never changes).
	expDeg []int
	k      int

	mu     sync.Mutex
	lat    [3]dist // open-phase latency per op kind
	runLat algoDists
	capOK  int // closed-phase successes
	// Closed-loop /run blocks: each connection's runs in groups of
	// five, one per algorithm, and how long each group took.
	blockAt  [2]time.Time
	blockN   [2]int
	blocks   []float64
	simCost  map[string][]float64
	acks     []acked
	seqs     [2]int
	errShown int
}

func (s *serveRun) handle(connID int, open bool) func(*result) {
	return func(res *result) {
		s.mu.Lock()
		defer s.mu.Unlock()
		ok := res.ok()
		s.rep.ops.record(ok)
		if !ok {
			if s.errShown < 5 {
				s.errShown++
				s.rep.logf("request %s %s failed: status %d err %v %.200s", res.op.method(), res.op.path(), res.status, res.err, res.body)
			}
			if open {
				s.lat[res.op.kind].addFailed()
			}
			return
		}
		if open {
			s.lat[res.op.kind].add(ms(res.lat))
			if res.op.kind == opRun {
				s.runLat.add(res.op.algo.String(), ms(res.lat))
			}
		} else {
			s.capOK++
			if res.op.kind == opRun {
				s.closeBlock(connID, res)
			}
		}
		switch res.op.kind {
		case opRun:
			s.checkRun(res)
		case opVertex:
			s.checkVertex(res)
		case opUpdate:
			var a updateAck
			if err := json.Unmarshal(res.body, &a); err != nil || !a.Durable || !a.Visible {
				s.rep.failf("/updates ack %q: %v", res.body, err)
				return
			}
			s.acks = append(s.acks, acked{conn: connID, seq: s.seqs[connID], sent: res.sent, lsn: a.LSN, body: res.op.body, open: open})
			s.seqs[connID]++
		}
	}
}

// closeBlock counts a closed-loop /run towards its connection's
// current block of five and records the block's duration when full.
func (s *serveRun) closeBlock(connID int, res *result) {
	if s.blockN[connID] == 0 {
		s.blockAt[connID] = res.sent
	}
	s.blockN[connID]++
	if s.blockN[connID] == len(algoNames) {
		s.blocks = append(s.blocks, res.sent.Add(res.lat).Sub(s.blockAt[connID]).Seconds())
		s.blockN[connID] = 0
	}
}

func (s *serveRun) checkRun(res *result) {
	var rr runReply
	if err := json.Unmarshal(res.body, &rr); err != nil || rr.Algo != res.op.algo.String() {
		s.rep.failf("/run %s reply %q: %v", res.op.algo, res.body, err)
		return
	}
	s.simCost[rr.Algo] = append(s.simCost[rr.Algo], rr.CriticalWork+engine.DefaultBytesWeight*rr.CriticalBytes)
	// With writers the graph changes under the run; write-mix checks
	// its final state instead.
	if !s.write && !sameOutcome(rr.Value, rr.Checksum, s.want[rr.Algo]) {
		s.rep.failf("/run %s: value %v checksum %d, oracle %v %d", rr.Algo, rr.Value, rr.Checksum, s.want[rr.Algo].Value, s.want[rr.Algo].Checksum)
	}
}

func (s *serveRun) checkVertex(res *result) {
	var vr vertexReply
	v := res.op.vertex
	if err := json.Unmarshal(res.body, &vr); err != nil || vr.Vertex != uint32(v) || len(vr.Partitions) != s.k {
		s.rep.failf("/vertex/%d reply %.200q: %v", v, res.body, err)
		return
	}
	for j, p := range vr.Partitions {
		hasMaster := false
		for _, c := range p.Copies {
			hasMaster = hasMaster || c == p.Master
		}
		if !hasMaster || len(p.Status) != len(p.Copies) || p.OutDegree != s.expDeg[int(v)*s.k+j] {
			s.rep.failf("/vertex/%d partition %d: master %d copies %v status %v out-degree %d, want %d",
				v, j, p.Master, p.Copies, p.Status, p.OutDegree, s.expDeg[int(v)*s.k+j])
			return
		}
	}
}

// expectedDegrees computes what /vertex must report per vertex and
// partition, and checks it against the graph wherever a fragment holds
// the vertex completely.
func (s *serveRun) expectedDegrees(comp *composite.Composite, g *graph.Graph) {
	s.k = comp.K()
	s.expDeg = make([]int, g.NumVertices()*s.k)
	for v := 0; v < g.NumVertices(); v++ {
		vid := graph.VertexID(v)
		for j, p := range comp.Partitions() {
			at := p.CompleteFragment(vid)
			if at < 0 {
				at = p.Master(vid)
			}
			deg := 0
			if adj := p.Fragment(at).Adjacency(vid); adj != nil {
				deg = len(adj.Out)
			}
			if p.CompleteFragment(vid) >= 0 && deg != g.OutDegree(vid) {
				s.rep.failf("partition %d: complete copy of %d has out-degree %d, graph %d", j, v, deg, g.OutDegree(vid))
			}
			s.expDeg[v*s.k+j] = deg
		}
	}
}

// runServe runs read-mix (write=false) or write-mix (write=true).
func runServe(cfg config, rep *report, write bool) error {
	g0 := gen.SocialSmall()
	text := edgeListText(g0)
	gsym := graph.Symmetrize(g0)
	s := &serveRun{cfg: cfg, rep: rep, write: write, want: map[string]algorithms.Outcome{}, simCost: map[string][]float64{}}
	for _, a := range costmodel.Algos() {
		s.want[a.String()] = algorithms.SeqOutcome(gsym, a, algorithms.Options{})
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

	// Setups are spread over the run, some before the load and some
	// after it, so a slow spell of the machine hits few of them. A
	// calibration pass precedes each, while no daemon is alive.
	var setups, parts []float64
	setup := func() (*daemon, error) {
		// Each setup starts from a collected heap, as a fresh adserve
		// process would.
		runtime.GC()
		cal.pass()
		d, err := startDaemon(text, write, cfg.scratch, tr)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.total.Seconds())
		parts = append(parts, d.partition.Seconds())
		return d, nil
	}
	throwaway := func(n int) error {
		for i := 0; i < n; i++ {
			d, err := setup()
			if err != nil {
				return err
			}
			if err := d.shutdown(); err != nil {
				return fmt.Errorf("setup teardown: %w", err)
			}
		}
		return nil
	}
	if err := throwaway(setupsBefore - 1); err != nil {
		return err
	}
	d, err := setup()
	if err != nil {
		return err
	}
	defer func() {
		if d != nil {
			d.shutdown()
		}
	}()
	if d.g.NumVertices() != gsym.NumVertices() || d.g.NumEdges() != gsym.NumEdges() {
		rep.failf("ingest: %d vertices %d arcs, generator %d %d", d.g.NumVertices(), d.g.NumEdges(), gsym.NumVertices(), gsym.NumEdges())
	}

	// The store's composite is still the setup composite: nothing has
	// written yet. Copy what the checks need before the load starts.
	live := d.st.Composite()
	rep.layer["composite.fc"] = live.FC()
	var offline, replayBase *composite.Composite
	if write {
		offline = live.Clone()
		if cfg.trace {
			replayBase = live.Clone()
		}
	} else {
		s.expectedDegrees(live, d.g)
		replayBase = live
	}

	openDur := time.Duration(cfg.seconds * openShare * float64(time.Second))
	capDur := time.Duration(cfg.seconds*float64(time.Second)) - openDur
	cycB := &algoCycle{rng: streamRNG(cfg.seed, 2)}
	var mutA, mutB *mutator
	// The /run stream is the same in both workloads: connection B sends
	// it in read-mix, connection A in write-mix.
	runStream := runOps(cycB, runRate, int(runRate*openDur.Seconds()))
	var streamA, streamB []op
	if write {
		mutA = newMutator(gsym, 0, streamRNG(cfg.seed, 3), mutsPerBatch)
		mutB = newMutator(gsym, 1, streamRNG(cfg.seed, 4), mutsPerBatch)
		streamA = runStream
		streamB = updateOps(mutB, updateRate, int(updateRate*openDur.Seconds()))
	} else {
		streamA = vertexOps(streamRNG(cfg.seed, 1), d.g.NumVertices(), vertexRate, int(vertexRate*openDur.Seconds()))
		streamB = runStream
	}
	var closedA, closedB func() op
	if write {
		closedA, closedB = mutA.batch, mutB.batch
	} else {
		// Fresh cycles, so each connection's closed-loop runs fall in
		// whole blocks of the five algorithms.
		cycA := &algoCycle{rng: streamRNG(cfg.seed, 5)}
		cycC := &algoCycle{rng: streamRNG(cfg.seed, 6)}
		closedA = func() op { return runOp(cycA.next()) }
		closedB = func() op { return runOp(cycC.next()) }
	}

	ca, cb := newConn(d.url), newConn(d.url)
	defer ca.close()
	defer cb.close()
	ctx := context.Background()
	// Untimed warm-up: build every session pool once.
	warm := func(c *conn) func() {
		return func() {
			for _, a := range costmodel.Algos() {
				o := runOp(a)
				if st, b, err := c.do(ctx, &o); err != nil || st != 200 {
					rep.failf("warm-up /run %s: %d %v %s", a, st, err, b)
				}
			}
		}
	}
	together(warm(ca), warm(cb))

	var m [3]serverMetrics
	var pulls [2][2]int64
	sample := func(i int) {
		if !cfg.trace {
			return
		}
		var err error
		if m[i], err = d.metrics(); err != nil {
			rep.failf("GET /metrics: %v", err)
		}
		if i != 1 {
			pulls[i/2] = [2]int64{d.pulls.pulls.Load(), d.pulls.useful.Load()}
		}
	}

	runtime.GC()
	runtime0 := readRuntime()
	heap := watchHeap(50 * time.Millisecond)
	sample(0)
	var lateA, lateB time.Duration
	start := time.Now()
	together(
		func() { lateA = openLoop(ctx, ca, streamA, start, s.handle(0, true)) },
		func() { lateB = openLoop(ctx, cb, streamB, start, s.handle(1, true)) },
	)
	openWall := time.Since(start)
	sample(1)
	capStart := time.Now()
	until := capStart.Add(capDur)
	together(
		func() { closedLoop(ctx, ca, closedA, until, s.handle(0, false)) },
		func() { closedLoop(ctx, cb, closedB, until, s.handle(1, false)) },
	)
	capWall := time.Since(capStart)
	sample(2)
	runtime1 := readRuntime()
	rep.e2e["live_heap_mb"] = heap.finish()
	late := ms(max(lateA, lateB))
	rep.layer["loadgen.late_max_ms"] = late
	rep.layer["runtime.gc_cpu_share"] = gcShare(runtime0, runtime1)
	rep.layer["runtime.sched_latency_p99_ms"] = schedP99(runtime0, runtime1)
	rep.logf("open loop        %.1f s planned, %.1f s taken; generator late by at most %.2f ms", openDur.Seconds(), openWall.Seconds(), late)
	if late > maxLateMs {
		return fmt.Errorf("load generator fell %.0f ms behind schedule; run invalid", late)
	}

	runKind, opKindMain := opRun, opVertex
	if write {
		opKindMain = opUpdate
	}
	rep.setDist("run", &s.lat[runKind], "run (/run)", 90)
	rep.setRunP50(s.runLat)
	label := "read (/vertex)"
	named := 99.0
	if write {
		label, named = "update (/updates)", 90
	}
	rep.setDist("op", &s.lat[opKindMain], label, named)
	capacity := float64(s.capOK) / capWall.Seconds()
	what := "updates_per_s (closed-loop acked /updates, 2 writers)"
	if !write {
		// Two connections each finishing a five-run block in the
		// median block time: a stall of the whole process, which the
		// plain count charges to the few seconds of this phase, moves
		// the median block little.
		if len(s.blocks) < minBeyond {
			return fmt.Errorf("only %d closed-loop /run blocks", len(s.blocks))
		}
		plain := capacity
		capacity = float64(2*len(algoNames)) / median(s.blocks)
		what = fmt.Sprintf("runs_per_s (closed-loop /run, 2 connections: 10 runs / median five-run block of %d; plain count %.3f/s)", len(s.blocks), plain)
	}
	rep.e2e["capacity_per_s"] = capacity
	rep.logf("capacity_per_s   %.3f = %s", capacity, what)
	var sims []float64
	for _, a := range algoNames {
		if len(s.simCost[a]) == 0 {
			return fmt.Errorf("no successful /run %s to cost", a)
		}
		sims = append(sims, median(s.simCost[a]))
	}
	rep.e2e["sim_cost_geomean"] = geomean(sims)
	rep.logf("sim_cost_geomean %.1f work; live_heap_mb %.1f", geomean(sims), rep.e2e["live_heap_mb"])

	if cfg.trace {
		s.serverLayers(d, m, pulls)
	}
	if write {
		if err := s.finishWrites(ctx, d, ca, []*mutator{mutA, mutB}, offline); err != nil {
			return err
		}
	} else if err := d.drain(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if cfg.trace {
		if err := s.replay(d, runStream, streamA, replayBase, tr); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
	}
	// Let the measured daemon and the check state go before the
	// remaining setups, so they start from the heap the first ones had.
	g := d.g
	err = d.shutdown()
	d, offline, replayBase, live = nil, nil, nil, nil
	if err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := throwaway(setupsAfter); err != nil {
		return err
	}
	for i := 0; i < extraBuilds; i++ {
		runtime.GC()
		t := time.Now()
		if _, err := buildComposite(g, nil); err != nil {
			return err
		}
		parts = append(parts, time.Since(t).Seconds())
	}
	cal.pass()
	cal.report(rep)
	rep.e2e["setup_s"] = median(setups)
	rep.e2e["partition_s"] = median(parts)
	rep.logf("setup_s          %.3f s (median of %d: %v)", median(setups), len(setups), roundAll(setups))
	rep.logf("partition_s      %.3f s (Fennel+ME2H in each setup, then alone: %v)", median(parts), roundAll(parts))
	if !cfg.trace {
		return nil
	}
	return writeSpans(cfg, tr)
}

// serverLayers fills the per-layer metrics read from GET /metrics and
// the replication pull counters.
func (s *serveRun) serverLayers(d *daemon, m [3]serverMetrics, pulls [2][2]int64) {
	r := s.rep
	r.layer["serve.runs_rejected"] = float64(m[2].Server.Rejected - m[0].Server.Rejected)
	r.layer["serve.run_failures"] = float64(m[2].Server.RunFailures - m[0].Server.RunFailures)
	r.layer["serve.retained_epochs_max"] = float64(max(m[0].Epochs.Retained, m[1].Epochs.Retained, m[2].Epochs.Retained))
	if swaps := m[2].Server.EpochSwaps - m[0].Server.EpochSwaps; swaps > 0 {
		r.layer["serve.batches_per_epoch"] = float64(len(s.acks)) / float64(swaps)
	}
	if muts := m[2].Store.Committed - m[0].Store.Committed; muts > 0 {
		r.layer["store.wal_bytes_per_mutation"] = float64(m[2].Wal.Bytes-m[0].Wal.Bytes) / float64(muts)
	}
	if n := pulls[1][0] - pulls[0][0]; n > 0 {
		r.layer["replica.useful_pull_share"] = float64(pulls[1][1]-pulls[0][1]) / float64(n)
	}
}

// finishWrites restores the base edge set, checks the final state with
// one /run per algorithm, times replication visibility, drains, and
// checks the leader against an offline replay and the follower against
// the leader.
func (s *serveRun) finishWrites(ctx context.Context, d *daemon, c *conn, muts []*mutator, offline *composite.Composite) error {
	r := s.rep
	for i, m := range muts {
		if o, ok := m.restore(); ok {
			s.handle(i, false)(doResult(ctx, c, &o))
		}
	}
	for _, a := range costmodel.Algos() {
		o := runOp(a)
		res := doResult(ctx, c, &o)
		var rr runReply
		if !res.ok() || json.Unmarshal(res.body, &rr) != nil {
			r.failf("final /run %s: status %d %v %s", a, res.status, res.err, res.body)
			continue
		}
		if want := s.want[a.String()]; !sameOutcome(rr.Value, rr.Checksum, want) {
			r.failf("final /run %s on the written state: value %v checksum %d, oracle %v %d", a, rr.Value, rr.Checksum, want.Value, want.Checksum)
		}
	}
	if err := d.waitFollower(20 * time.Second); err != nil {
		r.failf("%v", err)
	}
	var vis dist
	for _, a := range s.acks {
		if !a.open {
			continue
		}
		if at, ok := d.applied.visibleAt(a.lsn); ok {
			vis.add(ms(at.Sub(a.sent)))
		} else {
			vis.addFailed()
		}
	}
	v50, ok := vis.median()
	r.logf("repl_visible_ms  %s (n=%d, /updates send to follower OnApplied >= acked lsn)", fmtVal(v50, ok), vis.n())
	if ok {
		r.layer["replica.visible_ms"] = v50
	}
	if err := d.drain(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}

	leader := d.st.Composite()
	if err := leader.ValidateIndex(); err != nil {
		r.failf("leader composite index: %v", err)
	}
	if err := replayAcked(offline, s.acks); err != nil {
		r.failf("offline replay: %v", err)
	} else if err := leader.EqualState(offline); err != nil {
		r.failf("leader composite differs from an offline replay of %d acked batches: %v", len(s.acks), err)
	}
	if err := d.fst.Composite().EqualState(leader); err != nil {
		r.failf("follower composite differs from the leader: %v", err)
	}
	r.logf("write checks     %d acked batches replayed offline; leader, replay and follower agree unless CHECK FAILED below", len(s.acks))
	return nil
}

func doResult(ctx context.Context, c *conn, o *op) *result {
	sent := time.Now()
	status, body, err := c.do(ctx, o)
	return &result{op: o, sent: sent, lat: time.Since(sent), status: status, body: body, err: err}
}

// ackOrder sorts acked batches into the order the daemon applied them:
// by acked LSN, then per connection in send order. Batches of one wave
// share an LSN but come from different connections, whose mutations
// touch disjoint vertices and so commute.
func ackOrder(acks []acked) []acked {
	out := append([]acked(nil), acks...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.lsn != b.lsn {
			return a.lsn < b.lsn
		}
		if a.conn != b.conn {
			return a.conn < b.conn
		}
		return a.seq < b.seq
	})
	return out
}

// replayAcked applies every acked batch to c directly — no WAL, no
// epochs, no replication — routing inserts as the store does.
func replayAcked(c *composite.Composite, acks []acked) error {
	for _, a := range ackOrder(acks) {
		muts, err := store.ParseUpdates(bytes.NewReader(a.body))
		if err != nil {
			return err
		}
		for _, m := range muts {
			switch m.Kind {
			case store.MutInsert:
				if err := c.InsertEdge(m.U, m.V, store.RouteDest(c, m.U, m.V)); err != nil {
					return err
				}
			case store.MutDelete:
				c.DeleteEdge(m.U, m.V)
			}
		}
	}
	return nil
}

func writeSpans(cfg config, tr *tracer) error {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return tr.write(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed)))
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1000) / 1000
	}
	return out
}
