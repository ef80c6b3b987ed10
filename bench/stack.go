package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"ritm/internal/ca"
	"ritm/internal/cdn"
	"ritm/internal/cert"
	"ritm/internal/ra"
	"ritm/internal/serial"
	"ritm/internal/storage"
)

// control is the control plane every workload starts from: a CA holding
// the standing corpus, publishing into an origin distribution point.
type control struct {
	clk    *virtualClock
	ca     *ca.CA
	dp     *cdn.DistributionPoint
	roots  []*cert.Certificate
	corpus []serial.Number // in issuance order
}

// newControl builds the CA and the origin and revokes the seeded corpus.
func newControl(cfg runConfig, clk *virtualClock) (*control, error) {
	dp := cdn.NewDistributionPoint(clk.Now)
	authority, err := ca.New(ca.Config{
		ID:          caID,
		Delta:       delta,
		Layout:      cfg.layout,
		Now:         clk.Now,
		Publisher:   dp,
		SerialSizes: serialDist,
		SerialSeed:  cfg.seed,
	})
	if err != nil {
		return nil, err
	}
	if err := dp.RegisterCAWithLayout(caID, authority.PublicKey(), cfg.layout); err != nil {
		return nil, err
	}
	if err := authority.PublishRoot(); err != nil {
		return nil, err
	}
	corpus := serial.NewGenerator(cfg.seed<<8|streamCorpus, serialDist).NextN(cfg.n)
	if _, err := authority.Revoke(corpus...); err != nil {
		return nil, fmt.Errorf("revoke corpus: %w", err)
	}
	if err := authority.PublishRefresh(); err != nil {
		return nil, err
	}
	return &control{
		clk:    clk,
		ca:     authority,
		dp:     dp,
		roots:  []*cert.Certificate{authority.RootCertificate()},
		corpus: corpus,
	}, nil
}

func (c *control) close() { c.ca.Close() }

// heapRA is a plain in-memory RA pulling from origin, synchronized once.
func (c *control) heapRA(cfg runConfig, origin cdn.Origin) (*ra.RA, error) {
	agent, err := ra.New(ra.Config{
		Roots:  c.roots,
		Origin: origin,
		Delta:  delta,
		Layout: cfg.layout,
		Now:    c.clk.Now,
	})
	if err != nil {
		return nil, err
	}
	if err := agent.SyncOnce(); err != nil {
		return nil, err
	}
	return agent, nil
}

// persistedRA is a writer RA that co-located shared readers map: a file
// backend with fsync off and a checkpoint after every update batch — the
// cadence README.md's "one writer, N readers" recipe deploys with
// (-checkpoint-every 1). At the default of 64 a reader's every re-map
// replays all WAL records since the last checkpoint, about a second for
// the first record and growing with each.
func (c *control) persistedRA(cfg runConfig, origin cdn.Origin, backend storage.Backend) (*ra.RA, error) {
	agent, err := ra.New(ra.Config{
		Roots:           c.roots,
		Origin:          origin,
		Delta:           delta,
		Layout:          cfg.layout,
		Storage:         backend,
		CheckpointEvery: 1,
		Now:             c.clk.Now,
	})
	if err != nil {
		return nil, err
	}
	if err := agent.SyncOnce(); err != nil {
		return nil, err
	}
	return agent, nil
}

// sharedReader is a read-only RA mapping the checkpoints a writer on the
// same backend installs.
func (c *control) sharedReader(cfg runConfig, backend storage.Backend) (*ra.RA, error) {
	agent, err := ra.New(ra.Config{
		Roots:      c.roots,
		Delta:      delta,
		Layout:     cfg.layout,
		Storage:    backend,
		SharedData: true,
		Now:        c.clk.Now,
	})
	if err != nil {
		return nil, err
	}
	if err := agent.SyncOnce(); err != nil {
		return nil, err
	}
	if agent.Store().MappedBytes() == 0 {
		return nil, fmt.Errorf("shared reader is not serving from a mapped checkpoint")
	}
	return agent, nil
}

// dataDir makes a fresh directory under the run's output directory.
func dataDir(cfg runConfig, name string) (string, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(cfg.outDir, "data-"+name+"-")
}

// httpTier is one dissemination node served over a loopback socket.
type httpTier struct {
	edge *cdn.EdgeServer // nil for the origin
	srv  *http.Server
	ln   net.Listener
}

func (t *httpTier) url() string { return "http://" + t.ln.Addr().String() }

func (t *httpTier) close() {
	t.srv.Close()
	t.ln.Close()
}

// serveOrigin exposes origin over HTTP with the handler on clk.
func serveOrigin(origin cdn.Origin, clk *virtualClock) (*httpTier, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: cdn.NewHandler(origin, cdn.HandlerOptions{Now: clk.Now})}
	go srv.Serve(ln) //nolint:errcheck // returns when close() shuts the server down
	return &httpTier{srv: srv, ln: ln}, nil
}

// serveEdge stacks a caching edge over the HTTP node at upstreamURL and
// serves it in turn.
func serveEdge(upstreamURL string, clk *virtualClock) (*httpTier, error) {
	edge := cdn.NewEdgeServer(&cdn.HTTPClient{BaseURL: upstreamURL}, edgeTTL, clk.Now)
	t, err := serveOrigin(edge, clk)
	if err != nil {
		return nil, err
	}
	t.edge = edge
	return t, nil
}

// medianSetup builds a stack setupRepeats times, tearing all but the last
// down again, and returns the last with the median build time.
func medianSetup[T interface{ close() }](build func() (T, error)) (T, float64, error) {
	var (
		stack T
		times []float64
	)
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		s, err := build()
		if err != nil {
			return stack, 0, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		times = append(times, time.Since(start).Seconds())
		if i < setupRepeats-1 {
			s.close()
			releaseMemory()
		} else {
			stack = s
		}
	}
	return stack, median(times), nil
}

// echoServer accepts loopback connections, puts wrap's server side of a
// secure channel on each and echoes until either end closes.
type echoServer struct {
	ln net.Listener
	wg sync.WaitGroup

	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

func newEchoServer(wrap func(net.Conn) io.ReadWriteCloser) (*echoServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &echoServer{ln: ln, conns: map[net.Conn]struct{}{}}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		for {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			e.mu.Lock()
			e.conns[raw] = struct{}{}
			e.mu.Unlock()
			e.wg.Add(1)
			go func() {
				defer e.wg.Done()
				conn := wrap(raw)
				io.Copy(conn, conn) //nolint:errcheck // echo until either side closes
				conn.Close()
				e.mu.Lock()
				delete(e.conns, raw)
				e.mu.Unlock()
			}()
		}
	}()
	return e, nil
}

func (e *echoServer) addr() string { return e.ln.Addr().String() }

// close stops accepting, drops the open connections and waits for every
// handler to return.
func (e *echoServer) close() {
	e.ln.Close()
	e.mu.Lock()
	for c := range e.conns {
		c.Close()
	}
	e.mu.Unlock()
	e.wg.Wait()
}
