package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"adp/internal/costmodel"
	"adp/internal/graph"
)

type opKind int

const (
	opVertex opKind = iota
	opRun
	opUpdate
)

var opNames = [...]string{"vertex", "run", "updates"}

func (k opKind) String() string { return opNames[k] }

// op is one generated request. The daemon sees only method, path and
// body; the rest lets the benchmark check the reply.
type op struct {
	kind   opKind
	due    time.Duration // offset from phase start (open loop only)
	vertex graph.VertexID
	algo   costmodel.Algo
	body   []byte
}

func (o *op) method() string {
	if o.kind == opVertex {
		return http.MethodGet
	}
	return http.MethodPost
}

func (o *op) path() string {
	switch o.kind {
	case opVertex:
		return "/vertex/" + strconv.FormatUint(uint64(o.vertex), 10)
	case opRun:
		return "/run"
	}
	return "/updates"
}

// streamRNG derives an independent generator per stream from the
// workload seed, so adding a stream never shifts another.
func streamRNG(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// vertexOps schedules n GET /vertex requests at a fixed rate over
// uniformly drawn vertex ids.
func vertexOps(rng *rand.Rand, nv int, rate float64, n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{kind: opVertex, due: dueAt(rng, i, rate), vertex: graph.VertexID(rng.Intn(nv))}
	}
	return ops
}

// algoCycle yields the five algorithms in blocks that each hold every
// algorithm once, in a seeded order: the mix is fixed, the order is not.
type algoCycle struct {
	rng   *rand.Rand
	block []costmodel.Algo
}

func (c *algoCycle) next() costmodel.Algo {
	if len(c.block) == 0 {
		c.block = append([]costmodel.Algo(nil), costmodel.Algos()...)
		c.rng.Shuffle(len(c.block), func(i, j int) { c.block[i], c.block[j] = c.block[j], c.block[i] })
	}
	a := c.block[0]
	c.block = c.block[1:]
	return a
}

func runOp(a costmodel.Algo) op {
	return op{kind: opRun, algo: a, body: []byte(`{"algo":"` + a.String() + `"}`)}
}

// runOps schedules n POST /run requests at a fixed rate.
func runOps(cyc *algoCycle, rate float64, n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = runOp(cyc.next())
		ops[i].due = dueAt(cyc.rng, i, rate)
	}
	return ops
}

// dueAt places request i at its slot i/rate, moved by a seeded jitter
// of up to 0.4 of the interval either way. Exactly periodic streams
// lock phase with each other — at 6 /run/s and 1.5 /updates/s every
// fourth run would start with an update — so which requests overlap,
// and with them the tails, would hinge on timing to the millisecond.
// The jitter keeps consecutive requests of one stream at least 0.2
// intervals apart, so a connection does not queue behind itself.
func dueAt(rng *rand.Rand, i int, rate float64) time.Duration {
	slot := float64(i) + 0.4*(2*rng.Float64()-1)
	if slot < 0 {
		slot = -slot
	}
	return time.Duration(slot / rate * float64(time.Second))
}

// edgePair is an undirected base edge, u < v.
type edgePair struct{ u, v graph.VertexID }

// mutator generates update batches over one class of vertices: every
// mutation deletes a present base edge whose endpoints are both in the
// class, or re-inserts one it deleted earlier. Edges never leave the
// base edge set, so no endpoint ever gains an arc at a vertex of zero
// base out-degree (the rule serve.RunLoad follows), and two mutators of
// different classes touch disjoint vertices, so their batches commute.
type mutator struct {
	rng     *rand.Rand
	present []edgePair // base edges currently in the graph
	deleted []edgePair // base edges this mutator removed
	perOp   int
}

func newMutator(g *graph.Graph, class int, rng *rand.Rand, perBatch int) *mutator {
	m := &mutator{rng: rng, perOp: perBatch}
	g.Edges(func(u, v graph.VertexID) bool {
		if u < v && int(u)%2 == class && int(v)%2 == class && g.OutDegree(u) > 0 && g.OutDegree(v) > 0 {
			m.present = append(m.present, edgePair{u, v})
		}
		return true
	})
	return m
}

// batch returns the next update-stream body: perOp mutations, then commit.
func (m *mutator) batch() op {
	var b bytes.Buffer
	for i := 0; i < m.perOp; i++ {
		// Delete while few are missing; past that, re-insert half the time.
		if len(m.deleted) == 0 || (len(m.deleted) < 64 && m.rng.Intn(4) != 0) || m.rng.Intn(2) == 0 {
			e := takeRandom(m.rng, &m.present)
			m.deleted = append(m.deleted, e)
			fmt.Fprintf(&b, "- %d %d\n", e.u, e.v)
		} else {
			e := takeRandom(m.rng, &m.deleted)
			m.present = append(m.present, e)
			fmt.Fprintf(&b, "+ %d %d\n", e.u, e.v)
		}
	}
	b.WriteString("commit\n")
	return op{kind: opUpdate, body: b.Bytes()}
}

// restore returns a batch re-inserting every edge still deleted, or
// false when none is.
func (m *mutator) restore() (op, bool) {
	if len(m.deleted) == 0 {
		return op{}, false
	}
	sort.Slice(m.deleted, func(i, j int) bool {
		a, b := m.deleted[i], m.deleted[j]
		return a.u < b.u || (a.u == b.u && a.v < b.v)
	})
	var b bytes.Buffer
	for _, e := range m.deleted {
		fmt.Fprintf(&b, "+ %d %d\n", e.u, e.v)
	}
	m.present = append(m.present, m.deleted...)
	m.deleted = nil
	b.WriteString("commit\n")
	return op{kind: opUpdate, body: b.Bytes()}, true
}

func takeRandom(rng *rand.Rand, s *[]edgePair) edgePair {
	i := rng.Intn(len(*s))
	e := (*s)[i]
	(*s)[i] = (*s)[len(*s)-1]
	*s = (*s)[:len(*s)-1]
	return e
}

// updateOps schedules n update batches at a fixed rate.
func updateOps(m *mutator, rate float64, n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = m.batch()
		ops[i].due = dueAt(m.rng, i, rate)
	}
	return ops
}

// conn is one client connection: its own transport, capped at one TCP
// connection, used by one goroutine at a time.
type conn struct {
	base string
	tr   *http.Transport
	cl   *http.Client
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{base: base, tr: tr, cl: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *conn) close() { c.tr.CloseIdleConnections() }

// do sends o and returns the status and body of the reply.
func (c *conn) do(ctx context.Context, o *op) (int, []byte, error) {
	var body io.Reader
	if o.body != nil {
		body = bytes.NewReader(o.body)
	}
	req, err := http.NewRequestWithContext(ctx, o.method(), c.base+o.path(), body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.cl.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// result is one completed request.
type result struct {
	op     *op
	sent   time.Time
	lat    time.Duration // from due time (open loop) or send (closed loop)
	status int
	body   []byte
	err    error
}

func (r *result) ok() bool { return r.err == nil && r.status == http.StatusOK }

// openLoop sends ops in order, each at its due time or as soon as the
// previous reply is in, whichever is later; latency counts from the due
// time, so a stall shows in every request it delays. It returns how far
// the generator itself ran behind: the send time past both the due time
// and the previous reply.
func openLoop(ctx context.Context, c *conn, ops []op, start time.Time, handle func(*result)) time.Duration {
	var late time.Duration
	prevDone := start
	for i := range ops {
		o := &ops[i]
		due := start.Add(o.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		ready := due
		if prevDone.After(ready) {
			ready = prevDone
		}
		if l := sent.Sub(ready); l > late {
			late = l
		}
		status, body, err := c.do(ctx, o)
		prevDone = time.Now()
		handle(&result{op: o, sent: sent, lat: prevDone.Sub(due), status: status, body: body, err: err})
	}
	return late
}

// closedLoop sends next() back to back until the deadline.
func closedLoop(ctx context.Context, c *conn, next func() op, until time.Time, handle func(*result)) {
	for time.Now().Before(until) {
		o := next()
		sent := time.Now()
		status, body, err := c.do(ctx, &o)
		handle(&result{op: &o, sent: sent, lat: time.Since(sent), status: status, body: body, err: err})
	}
}

// together runs fns concurrently and waits for all of them.
func together(fns ...func()) {
	var wg sync.WaitGroup
	wg.Add(len(fns))
	for _, f := range fns {
		go func(f func()) {
			defer wg.Done()
			f()
		}(f)
	}
	wg.Wait()
}
