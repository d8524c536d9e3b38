package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"testing"
	"time"

	"adp/internal/gen"
	"adp/internal/graph"
)

func distOf(xs ...float64) *dist {
	d := &dist{}
	for _, x := range xs {
		d.add(x)
	}
	return d
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed, so sorting matters
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	// 1..1000: p99 is 990 with exactly ten samples above it.
	d := distOf(seq(1000)...)
	if v, ok := d.percentile(99); !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	// 1..999: p99 is rank 990, nine above: not reported.
	if _, ok := distOf(seq(999)...).percentile(99); ok {
		t.Fatal("p99 of 999 samples reported with nine samples beyond it")
	}
	if _, ok := distOf(seq(99)...).percentile(90); ok {
		t.Fatal("p90 of 99 samples reported")
	}
	if v, ok := distOf(seq(100)...).percentile(90); !ok || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
}

func TestTailIsHighestTrustedPercentile(t *testing.T) {
	cases := []struct {
		n       int
		pct, v  float64
		wantOK  bool
		comment string
	}{
		{10, 0, 0, false, "too few samples for any tail"},
		{11, 9, 1, true, "one sample below ten beyond"},
		{40, 75, 30, true, "n=40: p75 has ten beyond"},
		{100, 90, 90, true, "n=100: p90"},
		{5000, 99, 4950, true, "capped at p99"},
	}
	for _, c := range cases {
		pct, v, ok := distOf(seq(c.n)...).tail()
		if ok != c.wantOK || (ok && (pct != c.pct || v != c.v)) {
			t.Errorf("%s: tail(n=%d) = p%v %v %v; want p%v %v %v", c.comment, c.n, pct, v, ok, c.pct, c.v, c.wantOK)
		}
	}
}

func TestFailuresLandBeyondEveryPercentile(t *testing.T) {
	d := distOf(seq(100)...)
	for i := 0; i < 20; i++ {
		d.addFailed()
	}
	// 120 samples, 20 of them +Inf: p90 falls on a failure.
	if _, ok := d.percentile(90); ok {
		t.Fatal("p90 reported although it falls on a failed request")
	}
	if v, ok := d.median(); !ok || v != 60 {
		t.Fatalf("median = %v, %v; want 60, true", v, ok)
	}
}

func TestFailedShareCountsRefusals(t *testing.T) {
	var c counts
	for i := 0; i < 96; i++ {
		c.record(true)
	}
	c.record(false) // transport error
	c.record(false) // non-200
	c.record(false) // 429 refusal
	c.record(false)
	if c.attempted != 100 || c.failed != 4 || c.failedShare() != 0.04 {
		t.Fatalf("counts %+v share %v; want 100 attempted, 4 failed, 0.04", c, c.failedShare())
	}
	var none counts
	if none.failedShare() != 0 {
		t.Fatal("failed share of nothing attempted is not 0")
	}
}

// encode writes the request as it goes on the wire plus its due
// offset; two streams are the same when their encodings are.
func (o *op) encode(w io.Writer) {
	fmt.Fprintf(w, "%d %s %s %d\n", o.due, o.method(), o.path(), len(o.body))
	w.Write(o.body)
}

// stream generates every request a serve workload sends for a seed.
func stream(seed int64, g *graph.Graph) []byte {
	var b bytes.Buffer
	cyc := &algoCycle{rng: streamRNG(seed, 2)}
	ops := vertexOps(streamRNG(seed, 1), g.NumVertices(), vertexRate, 500)
	ops = append(ops, runOps(cyc, runRate, 50)...)
	ops = append(ops, updateOps(newMutator(g, 1, streamRNG(seed, 4), mutsPerBatch), updateRate, 50)...)
	m := newMutator(g, 0, streamRNG(seed, 3), mutsPerBatch)
	for i := 0; i < 20; i++ {
		o := m.batch()
		ops = append(ops, o, runOp(cyc.next()))
	}
	if o, ok := m.restore(); ok {
		ops = append(ops, o)
	}
	for i := range ops {
		ops[i].encode(&b)
	}
	return b.Bytes()
}

func TestSameSeedSameRequestStream(t *testing.T) {
	g := graph.Symmetrize(gen.SocialSmall())
	a, b := stream(7, g), stream(7, g)
	if !bytes.Equal(a, b) {
		t.Fatal("one seed generated two different request streams")
	}
	if bytes.Equal(a, stream(8, g)) {
		t.Fatal("seeds 7 and 8 generated the same request stream")
	}
}

func TestScheduleJitterKeepsSpacing(t *testing.T) {
	const rate = 6.0
	interval := time.Second / rate
	ops := runOps(&algoCycle{rng: streamRNG(9, 2)}, rate, 500)
	for i, o := range ops {
		slot := time.Duration(i) * interval
		if o.due < 0 || o.due < slot-interval*2/5-1 || o.due > slot+interval*2/5+1 {
			t.Fatalf("request %d due at %v, slot %v: jitter beyond 0.4 interval", i, o.due, slot)
		}
		if i > 0 && o.due-ops[i-1].due < interval/5-1 {
			t.Fatalf("requests %d and %d only %v apart", i-1, i, o.due-ops[i-1].due)
		}
	}
}

func TestAlgoCycleKeepsTheMix(t *testing.T) {
	cyc := &algoCycle{rng: streamRNG(3, 2)}
	seen := map[string]int{}
	for i := 0; i < 5*40; i++ {
		seen[cyc.next().String()]++
	}
	for _, a := range algoNames {
		if seen[a] != 40 {
			t.Fatalf("algorithm mix %v; want 40 of each", seen)
		}
	}
}

func TestMutatorStaysInsideBaseEdgesAndClass(t *testing.T) {
	g := graph.Symmetrize(gen.SocialSmall())
	m := newMutator(g, 1, streamRNG(5, 4), mutsPerBatch)
	missing := map[edgePair]bool{}
	for i := 0; i < 200; i++ {
		for _, line := range bytes.Split(bytes.TrimSpace(m.batch().body), []byte("\n")) {
			var kind string
			var u, v uint32
			if _, err := fmt.Sscan(string(line), &kind, &u, &v); err != nil {
				continue // commit
			}
			e := edgePair{graph.VertexID(u), graph.VertexID(v)}
			if !g.HasEdge(e.u, e.v) || u%2 != 1 || v%2 != 1 {
				t.Fatalf("mutation %q leaves the class-1 base edges", line)
			}
			switch kind {
			case "-":
				if missing[e] {
					t.Fatalf("%q deletes an edge already deleted", line)
				}
				missing[e] = true
			case "+":
				if !missing[e] {
					t.Fatalf("%q inserts an edge that is present", line)
				}
				delete(missing, e)
			}
		}
	}
	if len(missing) != len(m.deleted) {
		t.Fatalf("%d edges missing, mutator tracks %d", len(missing), len(m.deleted))
	}
}

func TestAckOrderFollowsLSNThenConnection(t *testing.T) {
	acks := []acked{{conn: 1, seq: 0, lsn: 20}, {conn: 0, seq: 1, lsn: 20}, {conn: 0, seq: 0, lsn: 10}, {conn: 1, seq: 1, lsn: 30}}
	got := ackOrder(acks)
	want := []struct{ conn, seq int }{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	for i, w := range want {
		if got[i].conn != w.conn || got[i].seq != w.seq {
			t.Fatalf("ackOrder = %+v", got)
		}
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "parent", Op: 1, Start: 0, End: 10e6},
		{ID: 2, Parent: 1, Name: "child", Op: 1, Start: 1e6, End: 4e6},
		{ID: 3, Parent: 1, Name: "child", Op: 1, Start: 5e6, End: 6e6},
		{ID: 4, Name: "other", Op: 2, Start: 10e6, End: 12e6},
	}}
	self := tr.selfTimes()
	if self["parent"][0] != 6 || self["child"][0] != 3 || self["child"][1] != 1 {
		t.Fatalf("self times %v", self)
	}
	sums := tr.opSums()
	if sums[1] != 10 || sums[2] != 2 {
		t.Fatalf("op sums %v", sums)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric
// catalogue here in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, perfbench %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], perfbench %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, e2eMetrics)
	check("per_layer", bj.PerLayer, layerMetrics)
	for _, w := range bj.Workloads {
		if runners[w.Name] == nil {
			t.Errorf("workload %q has no runner", w.Name)
		}
	}
	if len(bj.Workloads) != len(runners) {
		t.Errorf("BENCHMARK.json lists %d workloads, perfbench runs %d", len(bj.Workloads), len(runners))
	}
}

func TestGeomeanAndMedian(t *testing.T) {
	if g := geomean([]float64{1, 4, 16}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("geomean = %v", g)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median = %v", m)
	}
}

// TestClosedBlocksSpanFiveRunsPerConnection: a block runs from its
// first run's send to its fifth run's reply, per connection, and an
// unfinished block is not counted.
func TestClosedBlocksSpanFiveRunsPerConnection(t *testing.T) {
	s := &serveRun{}
	t0 := time.Unix(0, 0)
	o := runOp(0)
	for i := 0; i < 7; i++ {
		for c := 0; c < 2; c++ {
			step := time.Duration(c+1) * 10 * time.Millisecond
			s.closeBlock(c, &result{op: &o, sent: t0.Add(time.Duration(i) * step), lat: step / 2})
		}
	}
	want := []float64{0.045, 0.090} // conn 0: 4*10+5 ms; conn 1: 4*20+10 ms
	if len(s.blocks) != len(want) {
		t.Fatalf("blocks %v, want %v", s.blocks, want)
	}
	for i, w := range want {
		if math.Abs(s.blocks[i]-w) > 1e-9 {
			t.Fatalf("blocks %v, want %v", s.blocks, want)
		}
	}
}

func TestCalibrationScale(t *testing.T) {
	c, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	if !math.IsNaN(c.scale()) {
		t.Fatalf("scale before any pass = %v, want NaN", c.scale())
	}
	c.pass()
	if len(c.rounds) != calibRounds || !(c.scale() > 0) {
		t.Fatalf("after a pass: %d rounds, scale %v", len(c.rounds), c.scale())
	}
	c.rounds = []float64{2 * calibRef, calibRef / 2, calibRef / 4}
	if got := c.scale(); got != 2 {
		t.Fatalf("scale with median round calibRef/2 = %v, want 2", got)
	}
}
