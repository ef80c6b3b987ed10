// Package loadgen stands up the full RITM stack — CA/origin → region ×
// PoP edge hierarchy → RA fleet (writer + shared-data readers) → real-TLS
// interceptors — in one process tree over real TCP sockets, and drives it
// with open-loop arrival schedules (see internal/netsim). It is the
// engine behind cmd/ritm-loadgen; tests use it at smoke scale.
package loadgen

import (
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"ritm/internal/ca"
	"ritm/internal/cdn"
	"ritm/internal/cert"
	"ritm/internal/dictionary"
	"ritm/internal/interception"
	"ritm/internal/ra"
	"ritm/internal/storage"
)

// caID is the single RITM CA identity the harness runs under.
const caID = dictionary.CAID("LOADGEN-CA")

// siteHost is the SNI / leaf identity of the upstream the clients bump.
const siteHost = "site.loadgen.ritm"

// siteSerial is the upstream leaf's dictionary serial. The churn driver
// draws from seeded generators producing ≥8-byte serials, so a small
// fixed value can never collide with a revoked one.
const siteSerial = 0x5151

// httpTier is one dissemination node exposed over a real TCP socket.
type httpTier struct {
	edge *cdn.EdgeServer
	srv  *http.Server
	ln   net.Listener
}

func (t *httpTier) url() string { return "http://" + t.ln.Addr().String() }

func (t *httpTier) close() {
	t.srv.Close()
	t.ln.Close()
}

// serveHTTP exposes origin over a fresh loopback listener.
func serveHTTP(origin cdn.Origin, opts cdn.HandlerOptions) (*http.Server, net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: cdn.NewHandler(origin, opts)}
	go srv.Serve(ln) //nolint:errcheck // closed via Stack.Close
	return srv, ln, nil
}

// Stack is the full assembled system under test.
type Stack struct {
	CA *ca.CA
	DP *cdn.DistributionPoint

	originSrv *http.Server
	originLn  net.Listener
	regions   []*httpTier
	pops      []*httpTier

	Writers []*ra.RA
	Readers []*ra.RA
	// Agents is Writers followed by Readers — the fleet handshake
	// traffic is spread across.
	Agents       []*ra.RA
	fetchers     []*ra.Fetcher
	Interceptors []*interception.Interceptor

	PKI          *sitePKI
	UpstreamAddr string
	upstreamLn   net.Listener
	// MintPool trusts the interceptors' bump root — what the TLS clients
	// verify against.
	MintPool *x509.CertPool

	dataDir    string
	ownDataDir bool
}

// StackOptions sizes the stack. Zero values select smoke-scale defaults.
type StackOptions struct {
	Regions int // regional edge servers pulling from the origin
	PoPs    int // PoP edges per region, pulling from their region
	Writers int // RAs pulling from PoPs (round-robin), each intercepting
	Readers int // shared-data reader RAs mapping writer 0's checkpoints

	// Delta is ∆ — the CA freshness cadence and the RA staleness unit.
	// Clamped to 1s (the RA minimum).
	Delta time.Duration
	// EdgeTTL is the edge cache TTL (0 = ∆/2).
	EdgeTTL time.Duration
	// RootTTL is the edge signed-root cache TTL (0 = ∆/4). The loadgen
	// stack runs no equivocation monitor through its edges, so bounded
	// staleness well under the client's 2∆ tolerance is safe; pass a
	// negative value to disable root caching entirely.
	RootTTL time.Duration
	// FetchInterval is the RA pull cadence (0 = ∆/2).
	FetchInterval time.Duration
	// DataDir holds the writer's WAL/checkpoints when Readers > 0
	// (empty = a fresh temp dir, removed on Close).
	DataDir string
	// OnSyncError receives background fetcher errors (nil = dropped).
	OnSyncError func(error)
}

func (o *StackOptions) fill() {
	if o.Regions <= 0 {
		o.Regions = 1
	}
	if o.PoPs <= 0 {
		o.PoPs = 2
	}
	if o.Writers <= 0 {
		o.Writers = 2
	}
	if o.Readers < 0 {
		o.Readers = 0
	}
	if o.Delta < time.Second {
		o.Delta = time.Second
	}
	if o.EdgeTTL <= 0 {
		o.EdgeTTL = o.Delta / 2
	}
	if o.RootTTL == 0 {
		o.RootTTL = o.Delta / 4
	} else if o.RootTTL < 0 {
		o.RootTTL = 0
	}
	if o.FetchInterval <= 0 {
		o.FetchInterval = o.Delta / 2
	}
}

// BuildStack assembles the system: real x509 site PKI, TLS echo
// upstream, CA publishing into an origin distribution point served over
// HTTP, two edge tiers stacked over HTTP clients, the RA fleet pulling
// from PoP edges, and one real-TLS interceptor per RA. Fetchers are NOT
// started; callers sync once explicitly and then StartFetchers.
func BuildStack(opts StackOptions) (*Stack, error) {
	opts.fill()
	s := &Stack{}
	ok := false
	defer func() {
		if !ok {
			s.Close()
		}
	}()

	pki, err := newSitePKI(string(caID), siteHost, siteSerial)
	if err != nil {
		return nil, err
	}
	s.PKI = pki

	// Upstream: a real TLS echo server presenting the site leaf.
	upLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.upstreamLn = upLn
	s.UpstreamAddr = upLn.Addr().String()
	upCfg := &tls.Config{Certificates: []tls.Certificate{pki.leaf}}
	go func() {
		for {
			raw, err := upLn.Accept()
			if err != nil {
				return
			}
			go func() {
				conn := tls.Server(raw, upCfg)
				defer conn.Close()
				io.Copy(conn, conn) //nolint:errcheck // echo until close
			}()
		}
	}()

	// Control plane: CA → distribution point → HTTP origin.
	s.DP = cdn.NewDistributionPoint(nil)
	authority, err := ca.New(ca.Config{
		ID:        caID,
		Delta:     opts.Delta,
		Publisher: s.DP,
	})
	if err != nil {
		return nil, err
	}
	s.CA = authority
	if err := s.DP.RegisterCA(caID, authority.PublicKey()); err != nil {
		return nil, err
	}
	if err := authority.PublishRoot(); err != nil {
		return nil, err
	}
	s.originSrv, s.originLn, err = serveHTTP(s.DP, cdn.HandlerOptions{})
	if err != nil {
		return nil, err
	}
	originURL := "http://" + s.originLn.Addr().String()

	// Edge hierarchy: regions pull the origin, PoPs pull their region —
	// every hop over a real socket through cdn.HTTPClient.
	for r := 0; r < opts.Regions; r++ {
		edge := cdn.NewEdgeServer(&cdn.HTTPClient{BaseURL: originURL}, opts.EdgeTTL, nil)
		edge.SetRootTTL(opts.RootTTL)
		srv, ln, err := serveHTTP(edge, cdn.HandlerOptions{})
		if err != nil {
			return nil, err
		}
		s.regions = append(s.regions, &httpTier{edge: edge, srv: srv, ln: ln})
	}
	for r := 0; r < opts.Regions; r++ {
		for p := 0; p < opts.PoPs; p++ {
			edge := cdn.NewEdgeServer(&cdn.HTTPClient{BaseURL: s.regions[r].url()}, opts.EdgeTTL, nil)
			edge.SetRootTTL(opts.RootTTL)
			srv, ln, err := serveHTTP(edge, cdn.HandlerOptions{})
			if err != nil {
				return nil, err
			}
			s.pops = append(s.pops, &httpTier{edge: edge, srv: srv, ln: ln})
		}
	}

	// Writer RAs: pull from PoP edges round-robin. Writer 0 persists to
	// DataDir when readers will map it.
	roots := []*cert.Certificate{authority.RootCertificate()}
	var backend storage.Backend
	if opts.Readers > 0 {
		s.dataDir = opts.DataDir
		if s.dataDir == "" {
			dir, err := os.MkdirTemp("", "ritm-loadgen-*")
			if err != nil {
				return nil, err
			}
			s.dataDir = dir
			s.ownDataDir = true
		}
		backend = storage.NewFileBackend(filepath.Join(s.dataDir, "writer0"), false)
	}
	for w := 0; w < opts.Writers; w++ {
		cfg := ra.Config{
			Roots:  roots,
			Origin: &cdn.HTTPClient{BaseURL: s.pops[w%len(s.pops)].url()},
			Delta:  opts.Delta,
		}
		if w == 0 && backend != nil {
			cfg.Storage = backend
			cfg.CheckpointEvery = 1 // readers see v2 state immediately
		}
		agent, err := ra.New(cfg)
		if err != nil {
			return nil, err
		}
		s.Writers = append(s.Writers, agent)
	}
	for i := 0; i < opts.Readers; i++ {
		agent, err := ra.New(ra.Config{
			Roots:      roots,
			Delta:      opts.Delta,
			Storage:    backend,
			SharedData: true,
		})
		if err != nil {
			return nil, err
		}
		s.Readers = append(s.Readers, agent)
	}
	s.Agents = append(append([]*ra.RA{}, s.Writers...), s.Readers...)

	// One bump root shared by the fleet, one interceptor per RA.
	mintRoot, err := interception.NewMintingRoot("Loadgen Bump Root", interception.KeyECDSA)
	if err != nil {
		return nil, err
	}
	s.MintPool = x509.NewCertPool()
	s.MintPool.AddCert(mintRoot.Certificate())
	for _, agent := range s.Agents {
		it, err := agent.NewInterceptor("127.0.0.1:0", interception.Config{
			Minter: interception.NewMinter(mintRoot, 0),
			Target: s.UpstreamAddr,
		})
		if err != nil {
			return nil, err
		}
		s.Interceptors = append(s.Interceptors, it)
	}

	ok = true
	return s, nil
}

// SyncOnce brings the whole fleet up to the origin's current state —
// writers first (the shared checkpoint must exist before readers map it).
func (s *Stack) SyncOnce() error {
	for i, w := range s.Writers {
		if err := w.SyncOnce(); err != nil {
			return fmt.Errorf("writer %d: %w", i, err)
		}
	}
	for i, r := range s.Readers {
		if err := r.SyncOnce(); err != nil {
			return fmt.Errorf("reader %d: %w", i, err)
		}
	}
	return nil
}

// StartFetchers launches the background pull loop on every RA.
func (s *Stack) StartFetchers(interval, jitter time.Duration, onErr func(error)) {
	for _, agent := range s.Agents {
		s.fetchers = append(s.fetchers, agent.StartFetcherWith(ra.FetcherOptions{
			Interval: interval,
			Jitter:   jitter,
			OnError:  onErr,
		}))
	}
}

// StopFetchers shuts the pull loops down (idempotent; Close also stops
// any still running). Used to quiesce background allocation before the
// allocs/op samplers run.
func (s *Stack) StopFetchers() {
	for _, f := range s.fetchers {
		f.Shutdown()
	}
	s.fetchers = nil
}

// EdgeStatsByTier sums cache counters across each tier.
func (s *Stack) EdgeStatsByTier() (region, pop cdn.EdgeStats) {
	sum := func(tiers []*httpTier) cdn.EdgeStats {
		var t cdn.EdgeStats
		for _, e := range tiers {
			st := e.edge.Stats()
			t.Hits += st.Hits
			t.Misses += st.Misses
			t.CollapsedPulls += st.CollapsedPulls
			t.Evictions += st.Evictions
			t.Errors += st.Errors
			t.NegativeHits += st.NegativeHits
		}
		return t
	}
	return sum(s.regions), sum(s.pops)
}

// Close tears the stack down in dependency order.
func (s *Stack) Close() {
	for _, f := range s.fetchers {
		f.Shutdown()
	}
	for _, it := range s.Interceptors {
		it.Close()
	}
	for _, agent := range s.Readers {
		agent.Store().Close()
	}
	for _, agent := range s.Writers {
		agent.Store().Close()
	}
	for _, t := range s.pops {
		t.close()
	}
	for _, t := range s.regions {
		t.close()
	}
	if s.originSrv != nil {
		s.originSrv.Close()
	}
	if s.originLn != nil {
		s.originLn.Close()
	}
	if s.CA != nil {
		s.CA.Close()
	}
	if s.upstreamLn != nil {
		s.upstreamLn.Close()
	}
	if s.ownDataDir && s.dataDir != "" {
		os.RemoveAll(s.dataDir)
	}
}
