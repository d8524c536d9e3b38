package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"adp/internal/composite"
	"adp/internal/costmodel"
	"adp/internal/graph"
	"adp/internal/partition"
	"adp/internal/partitioner"
	"adp/internal/replica"
	"adp/internal/serve"
	"adp/internal/store"
)

// ingest parses edge-list text and symmetrises it, as
// `adserve -graph <file> -undirected` does.
func ingest(text []byte) (*graph.Graph, error) {
	g, err := graph.ParallelReadEdgeList(bytes.NewReader(text), graph.LoadOptions{})
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	if !g.Undirected() {
		g = graph.Symmetrize(g)
	}
	return g, nil
}

func edgeListText(g *graph.Graph) []byte {
	var b bytes.Buffer
	if err := graph.WriteEdgeList(&b, g); err != nil {
		panic(err) // writes to a bytes.Buffer cannot fail
	}
	return b.Bytes()
}

func referenceModels() []costmodel.CostModel {
	var models []costmodel.CostModel
	for _, a := range costmodel.Algos() {
		models = append(models, costmodel.Reference(a))
	}
	return models
}

// buildComposite is adserve's fresh-store build: Fennel edge-cut with
// n=8, refined by ME2H for the five reference cost models.
func buildComposite(g *graph.Graph, tr *tracer) (*composite.Composite, error) {
	var base *partition.Partition
	var err error
	tr.do("partitioner.fennel", 0, 0, func() { base, err = partitioner.FennelEdgeCut(g, 8, partitioner.FennelConfig{}) })
	if err != nil {
		return nil, err
	}
	var comp *composite.Composite
	tr.do("composite.me2h", 0, 0, func() { comp, _, err = composite.ME2H(base, referenceModels(), composite.Options{}) })
	return comp, err
}

// pullCounter wraps the follower's connection to count pulls and those
// that carried frames.
type pullCounter struct {
	pulls, useful atomic.Int64
}

type countingConn struct {
	replica.Conn
	c *pullCounter
}

func (cc countingConn) Pull(ctx context.Context, req *replica.Message) (*replica.Message, error) {
	resp, err := cc.Conn.Pull(ctx, req)
	if err == nil {
		cc.c.pulls.Add(1)
		if len(resp.Frames) > 0 {
			cc.c.useful.Add(1)
		}
	}
	return resp, err
}

func (c *pullCounter) dialer(d replica.Dialer) replica.Dialer {
	return func(ctx context.Context) (replica.Conn, error) {
		conn, err := d(ctx)
		if err != nil {
			return nil, err
		}
		return countingConn{Conn: conn, c: c}, nil
	}
}

// appliedLog records every follower watermark advance with its time.
type appliedLog struct {
	mu   sync.Mutex
	lsns []uint64
	at   []time.Time
}

func (a *appliedLog) record(lsn uint64) {
	now := time.Now()
	a.mu.Lock()
	a.lsns = append(a.lsns, lsn)
	a.at = append(a.at, now)
	a.mu.Unlock()
}

// visibleAt returns when the follower first applied lsn or later.
func (a *appliedLog) visibleAt(lsn uint64) (time.Time, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, l := range a.lsns { // watermarks only grow; the first hit is the earliest
		if l >= lsn {
			return a.at[i], true
		}
	}
	return time.Time{}, false
}

// daemon is one in-process adserve: store, server, loopback listener
// and, for write-mix, a replication leader and one store-level follower.
type daemon struct {
	g    *graph.Graph
	st   *store.Store
	srv  *serve.Server
	url  string
	dirs []string

	leader   *replica.Leader
	replLn   net.Listener
	fst      *store.Store
	follower *replica.Follower
	pulls    pullCounter
	applied  appliedLog

	partition, total time.Duration
	drained          bool
}

// startDaemon builds a daemon from edge-list text and returns once the
// first POST /run has answered 200. The timed span covers everything
// from parsing the text to that reply.
func startDaemon(text []byte, withFollower bool, scratch string, tr *tracer) (*daemon, error) {
	d := &daemon{}
	t0 := time.Now()
	var err error
	tr.do("graph.ingest", 0, 0, func() { d.g, err = ingest(text) })
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	comp, err := buildComposite(d.g, tr)
	if err != nil {
		return nil, err
	}
	d.partition = time.Since(t1)
	dir, err := os.MkdirTemp(scratch, "leader-")
	if err != nil {
		return nil, err
	}
	d.dirs = append(d.dirs, dir)
	tr.do("store.create", 0, 0, func() { d.st, err = store.Create(dir, comp, store.Options{}) })
	if err != nil {
		return nil, err
	}
	if d.srv, err = serve.New(d.st, serve.Config{}); err != nil {
		d.st.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.shutdown()
		return nil, err
	}
	d.srv.Start(ln)
	d.url = "http://" + ln.Addr().String()
	if withFollower {
		if err := d.startFollower(scratch); err != nil {
			d.shutdown()
			return nil, err
		}
	}
	c := newConn(d.url)
	defer c.close()
	o := runOp(costmodel.WCC)
	status, body, err := c.do(context.Background(), &o)
	if err != nil || status != http.StatusOK {
		d.shutdown()
		return nil, fmt.Errorf("first /run: status %d: %v %s", status, err, body)
	}
	d.total = time.Since(t0)
	return d, nil
}

// startFollower wires replication the way `adserve -listen-repl` and
// `adserve -replica-of` do, with a bare store as the follower.
func (d *daemon) startFollower(scratch string) error {
	d.leader = replica.NewLeader(d.st, replica.LeaderConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	d.replLn = ln
	go d.leader.Serve(ln)
	dir, err := os.MkdirTemp(scratch, "follower-")
	if err != nil {
		return err
	}
	d.dirs = append(d.dirs, dir)
	dial := replica.TCPDialer(ln.Addr().String())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if d.fst, err = replica.Bootstrap(ctx, dial, filepath.Join(dir, "store"), d.g, store.Options{}); err != nil {
		return err
	}
	d.follower = replica.NewFollower(&replica.StoreApplier{St: d.fst}, replica.FollowerConfig{
		ID:        "bench-follower",
		Dial:      d.pulls.dialer(dial),
		OnApplied: d.applied.record,
	})
	d.follower.Start()
	return nil
}

// waitFollower waits until the follower holds every committed frame.
func (d *daemon) waitFollower(timeout time.Duration) error {
	want := d.st.CommittedLSN()
	deadline := time.Now().Add(timeout)
	for d.fst.CommittedLSN() < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("follower at lsn %d, leader committed %d after %v", d.fst.CommittedLSN(), want, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// drain stops the server (flushing and closing the leader store) and
// the follower pump; the composites stay readable for checks.
func (d *daemon) drain() error {
	if d.drained {
		return nil
	}
	d.drained = true
	if d.follower != nil {
		d.follower.Stop()
		d.leader.Close()
		d.replLn.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Drain(ctx)
	if d.fst != nil {
		if cerr := d.fst.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// shutdown drains and removes the daemon's directories.
func (d *daemon) shutdown() error {
	var err error
	if d.srv != nil {
		err = d.drain()
	} else if d.st != nil {
		err = d.st.Close()
	}
	for _, dir := range d.dirs {
		os.RemoveAll(dir)
	}
	return err
}

// serverMetrics is the slice of GET /metrics the benchmark reads.
type serverMetrics struct {
	Store struct {
		Committed int64 `json:"committed_mutations"`
	} `json:"store"`
	Wal struct {
		Bytes int64 `json:"bytes"`
	} `json:"wal"`
	Server struct {
		Rejected    int64 `json:"runs_rejected"`
		RunFailures int64 `json:"run_failures"`
		EpochSwaps  int64 `json:"epoch_swaps"`
	} `json:"server"`
	Epochs struct {
		Retained int `json:"retained"`
	} `json:"epochs"`
}

func (d *daemon) metrics() (serverMetrics, error) {
	var m serverMetrics
	resp, err := http.Get(d.url + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}
