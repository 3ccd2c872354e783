package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"tesc"
	"tesc/api"
	"tesc/client"
	"tesc/internal/cluster"
	"tesc/internal/events"
	"tesc/internal/graph"
	"tesc/internal/server"
)

// listener is one in-process HTTP service on a loopback TCP port.
type listener struct {
	url string
	hs  *http.Server
	wg  sync.WaitGroup
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	l := &listener{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		_ = l.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return l, nil
}

// close stops the listener and waits for its serve loop to exit.
func (l *listener) close() {
	_ = l.hs.Close()
	l.wg.Wait()
}

// node is a tescd node served in-process.
type node struct {
	srv *server.Server
	*listener
}

// startNode builds a node from cfg; a node with a data directory opens
// its WAL (LoadData) so durability is really on.
func startNode(cfg server.Config) (*node, error) {
	srv := server.New(cfg)
	if cfg.DataDir != "" {
		if _, err := srv.LoadData(); err != nil {
			return nil, fmt.Errorf("opening data dir: %w", err)
		}
	}
	l, err := listen(srv.Handler())
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &node{srv: srv, listener: l}, nil
}

func (n *node) close() {
	n.listener.close()
	n.srv.Close()
}

// coordinator is a one-member cluster coordinator served in-process,
// with its health prober running at the default interval.
type coordinator struct {
	*listener
	cancel context.CancelFunc
	done   chan struct{}
}

func startCoordinator(nodeURL string) (*coordinator, error) {
	c, err := cluster.NewCoordinator(cluster.Config{
		Topology: cluster.Topology{Members: []cluster.Member{{Name: "n1", URL: nodeURL}}},
	})
	if err != nil {
		return nil, err
	}
	l, err := listen(c.Handler())
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	co := &coordinator{listener: l, cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(co.done)
		c.Run(ctx)
	}()
	return co, nil
}

func (c *coordinator) close() {
	c.cancel()
	<-c.done
	c.listener.close()
}

// newTransport is the load's connection budget: at most two
// connections to any one endpoint.
func newTransport() *http.Transport {
	return &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, IdleConnTimeout: time.Minute}
}

// graphText renders g as the inline edge list a registration carries.
func graphText(g *tesc.Graph) (string, error) {
	var sb strings.Builder
	if err := g.WriteGraph(&sb); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// setupRuns is how many set-up cycles a run times. A cycle takes
// 0.03–0.3 s; with the median of three, correlate-h1-coord's setup_s
// still spread by half over ten seeds.
const setupRuns = 7

// setupCycles times setupRuns set-up cycles and returns their median in
// seconds. Each cycle runs up (register graph, events, anything else,
// then the first successful request); every cycle but the last is
// followed by down (delete what up created), so the last cycle's state
// is what the measurement runs against.
func setupCycles(up, down func() error) (float64, error) {
	var secs []float64
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		if err := up(); err != nil {
			return 0, fmt.Errorf("set-up cycle %d: %w", i+1, err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i < setupRuns-1 {
			if err := down(); err != nil {
				return 0, fmt.Errorf("tear-down after cycle %d: %w", i+1, err)
			}
		}
	}
	return median(secs), nil
}

// registerGraph registers a graph with its events in one cycle step.
func registerGraph(ctx context.Context, cl *client.Client, name, edges string, ev map[string][]int) error {
	if _, err := cl.RegisterGraph(ctx, api.RegisterGraphRequest{Name: name, EdgeList: edges}); err != nil {
		return fmt.Errorf("registering graph: %w", err)
	}
	if _, err := cl.RegisterEvents(ctx, name, api.RegisterEventsRequest{Events: ev}); err != nil {
		return fmt.Errorf("registering events: %w", err)
	}
	return nil
}

// storeOf builds the event store a node holds for the registered events.
func storeOf(numNodes int, ev map[string][]int) *events.Store {
	b := events.NewBuilder(numNodes)
	for name, vs := range ev {
		for _, v := range vs {
			b.Add(name, graph.NodeID(v))
		}
	}
	return b.Build()
}
