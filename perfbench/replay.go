package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"adp/internal/algorithms"
	"adp/internal/composite"
	"adp/internal/costmodel"
	"adp/internal/engine"
	"adp/internal/graph"
	"adp/internal/partition"
	"adp/internal/replica"
	"adp/internal/store"
)

// How much of the seeded op stream the traced run replays in-process.
const (
	replayRuns    = 10 // two of each algorithm
	replayLookups = 2000
	replayWrites  = 20
)

// replayer calls the layers the daemon calls, in the daemon's order,
// wrapping each call in a span. kinds maps an op id to its op type.
type replayer struct {
	tr    *tracer
	rep   *report
	g     *graph.Graph
	ops   int
	kinds map[int]opKind
}

func (rp *replayer) newOp(k opKind) int {
	rp.ops++
	rp.kinds[rp.ops] = k
	return rp.ops
}

// allocsPer returns heap bytes allocated per call of fn over n calls.
func allocsPer(n int, fn func()) float64 {
	a := readRuntime().allocs
	fn()
	if n == 0 {
		return 0
	}
	return float64(readRuntime().allocs-a) / float64(n)
}

// replay is the second half of a traced serve run: it replays the
// start of the run's own op stream through the public functions the
// daemon calls and reports per-layer times, then sets each op type's
// untraced HTTP median against the summed layer self-times.
func (s *serveRun) replay(d *daemon, runs, lookups []op, base *composite.Composite, tr *tracer) error {
	rp := &replayer{tr: tr, rep: s.rep, g: d.g, kinds: map[int]opKind{}}
	comp := base
	if s.write {
		var err error
		if comp, err = rp.writes(base, ackOrder(s.acks), s.cfg.scratch); err != nil {
			return err
		}
	} else {
		comp = cutEpoch(nil, base, 0)
	}
	rp.costs(comp)
	if err := rp.runs(comp, runs, s.want, !s.write); err != nil {
		return err
	}
	if !s.write {
		rp.lookups(comp, lookups)
	}

	self := tr.selfTimes()
	s.rep.layerTimes(self)
	// Each op type's untraced HTTP median against the summed self-time
	// of the layers it calls; for /run both sides are the geometric mean
	// of per-algorithm medians, since the replay runs fewer of each.
	sums := tr.opSums()
	for k := opVertex; k <= opUpdate; k++ {
		var layer []float64
		for id, v := range sums {
			if rp.kinds[id] == k {
				layer = append(layer, v)
			}
		}
		http, ok := s.lat[k].median()
		inLayers := median(layer)
		if k == opRun {
			http, ok = s.runLat.geomeanMedian()
			var meds []float64
			for _, a := range algoNames {
				meds = append(meds, median(self["engine.run."+a]))
			}
			inLayers = geomean(meds)
		}
		if len(layer) == 0 || !ok {
			continue
		}
		gap := http - inLayers
		s.rep.layer["serve.http_overhead_ms."+k.String()] = gap
		s.rep.logf("op %-8s untraced HTTP median %.3f ms, summed layer self-time %.3f ms, gap %.3f ms", k, http, inLayers, gap)
	}
	return nil
}

// layerTimes sets each layer's time metric to the median self time
// of its spans.
func (r *report) layerTimes(self map[string][]float64) {
	for name, vs := range self {
		if algo, ok := strings.CutPrefix(name, "engine.run."); ok {
			r.layer["engine.run_ms."+algo] = median(vs)
		} else if name == "partition.vertex_lookup" {
			r.layer["partition.vertex_lookup_us"] = median(vs) * 1e3
		} else if _, ok := r.layer[name+"_ms"]; ok {
			r.layer[name+"_ms"] = median(vs)
		}
	}
}

// costs records the paper's predicted parallel cost max_i C_A(F_i)
// of each algorithm's partition.
func (rp *replayer) costs(comp *composite.Composite) {
	for j, a := range costmodel.Algos() {
		p := comp.Partition(j % comp.K())
		rp.rep.layer["costmodel.parallel_cost."+a.String()] = costmodel.ParallelCost(costmodel.Evaluate(p, costmodel.Reference(a)))
	}
}

// runs replays /run: one session per algorithm (engine.NewCluster, as
// an epoch's session pool builds it), then algorithms.Run per request.
func (rp *replayer) runs(comp *composite.Composite, stream []op, want map[string]algorithms.Outcome, check bool) error {
	clusters := map[costmodel.Algo]*engine.Cluster{}
	for j, a := range costmodel.Algos() {
		p := comp.Partition(j % comp.K())
		rp.tr.do("engine.new_cluster", 0, rp.newOp(-1), func() { clusters[a] = engine.NewCluster(p) })
	}
	n := min(replayRuns, len(stream))
	var err error
	perRun := allocsPer(n, func() {
		for i := 0; i < n && err == nil; i++ {
			a := stream[i].algo
			var out algorithms.Outcome
			rp.tr.do("engine.run."+a.String(), 0, rp.newOp(opRun), func() {
				out, err = algorithms.Run(clusters[a], a, algorithms.Options{})
			})
			if err != nil {
				err = fmt.Errorf("replayed run %s: %w", a, err)
				break
			}
			if check && !sameOutcome(out.Value, out.Checksum, want[a.String()]) {
				rp.rep.failf("replayed run %s: value %v, oracle %v", a, out.Value, want[a.String()].Value)
			}
			rp.rep.layer["engine.supersteps."+a.String()] = float64(out.Report.Supersteps)
			rp.rep.layer["engine.msg_bytes."+a.String()] = float64(out.Report.TotalMsgBytes())
			rp.rep.layer["engine.critical_work."+a.String()] = out.Report.CriticalWork
		}
	})
	rp.rep.layer["runtime.alloc_bytes_per_op.run"] = perRun
	return err
}

// lookups replays GET /vertex: the accessors the handler calls for
// every bundled partition.
func (rp *replayer) lookups(comp *composite.Composite, stream []op) {
	n := min(replayLookups, len(stream))
	sink := 0
	rp.rep.layer["runtime.alloc_bytes_per_op.vertex"] = allocsPer(n, func() {
		for i := 0; i < n; i++ {
			v := stream[i].vertex
			rp.tr.do("partition.vertex_lookup", 0, rp.newOp(opVertex), func() {
				for _, p := range comp.Partitions() {
					sink += lookup(p, v)
				}
			})
		}
	})
	if sink < 0 {
		panic("unreachable")
	}
}

func lookup(p *partition.Partition, v graph.VertexID) int {
	n := p.Master(v)
	for _, c := range p.Copies(v) {
		n += int(p.Status(int(c), v))
	}
	at := p.CompleteFragment(v)
	if at < 0 {
		at = p.Master(v)
	}
	if adj := p.Fragment(at).Adjacency(v); adj != nil {
		n += len(adj.Out) + len(adj.In)
	}
	return n
}

// writes replays acked /updates batches through a fresh store, epoch
// cuts and a replication leader/follower pair, and returns the last
// published composite.
func (rp *replayer) writes(base *composite.Composite, acks []acked, scratch string) (*composite.Composite, error) {
	dir, err := os.MkdirTemp(scratch, "replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Create(filepath.Join(dir, "leader"), base, store.Options{})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	leader := replica.NewLeader(st, replica.LeaderConfig{})
	defer leader.Close()
	snap := leader.Handle(&replica.Message{Type: replica.MsgSnapReq})
	if snap.Type != replica.MsgSnapshot {
		return nil, fmt.Errorf("replay leader snapshot: %s %s", snap.Type, snap.ErrMsg)
	}
	fst, err := store.CreateReplica(filepath.Join(dir, "follower"), rp.g, snap.Snapshot, snap.SnapLSN, store.Options{})
	if err != nil {
		return nil, err
	}
	defer fst.Close()
	applier := &replica.StoreApplier{St: fst}

	epoch := cutEpoch(nil, st.Composite(), 0)
	n := min(replayWrites, len(acks))
	perBatch := allocsPer(n, func() {
		for i := 0; i < n && err == nil; i++ {
			err = rp.write(st, leader, applier, acks[i].body, &epoch)
		}
	})
	if err != nil {
		return nil, err
	}
	rp.rep.layer["runtime.alloc_bytes_per_op.updates"] = perBatch
	return epoch, nil
}

// cutEpoch cuts and compiles the next epoch like the serve apply
// loop: CloneCOW, then Compile per partition as child spans.
func cutEpoch(tr *tracer, live *composite.Composite, op int) *composite.Composite {
	id := tr.begin("composite.clone_cow", 0, op)
	c := live.CloneCOW()
	for _, p := range c.Partitions() {
		tr.do("partition.compile", id, op, func() { p.Compile() })
	}
	tr.end(id)
	return c
}

func (rp *replayer) write(st *store.Store, leader *replica.Leader, applier *replica.StoreApplier, body []byte, epoch **composite.Composite) error {
	id := rp.newOp(opUpdate)
	var muts []store.Mutation
	var err error
	rp.tr.do("store.parse_updates", 0, id, func() { muts, err = store.ParseUpdates(bytes.NewReader(body)) })
	if err != nil {
		return err
	}
	rp.tr.do("store.apply", 0, id, func() { _, _, err = st.Apply(muts) })
	if err != nil {
		return err
	}
	next := cutEpoch(rp.tr, st.Composite(), id)
	share := next.ShareStats(*epoch)
	if total := share.OwnedFragments + share.SharedFragments; total > 0 {
		rp.rep.layer["composite.owned_fragment_share"] = float64(share.OwnedFragments) / float64(total)
	}
	rp.rep.layer["composite.new_bytes_per_publish"] = float64(share.OwnedBytes)
	*epoch = next

	// The follower side runs off the ack path: its own op.
	fid := rp.newOp(-1)
	var resp *replica.Message
	rp.tr.do("replica.tail", 0, fid, func() {
		resp = leader.Handle(&replica.Message{Type: replica.MsgPull, Applied: applier.AppliedLSN(), Max: 4096, ID: "replay"})
	})
	if resp.Type != replica.MsgFrames {
		return fmt.Errorf("replay pull: %s %s", resp.Type, resp.ErrMsg)
	}
	rp.tr.do("replica.apply_frames", 0, fid, func() { _, _, err = applier.ApplyFrames(resp.Frames) })
	return err
}
