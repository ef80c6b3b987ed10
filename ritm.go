// Package ritm is a complete implementation of RITM ("Revocation in the
// Middle", Szalachowski, Chuat, Lee, Perrig — ICDCS 2016): a certificate-
// revocation framework in which network middleboxes (Revocation Agents)
// store authenticated revocation dictionaries, disseminated by a CDN, and
// piggyback fresh revocation statuses onto TLS connections, so that clients
// and servers store and fetch nothing.
//
// The package is a facade over the subsystem implementations:
//
//   - certification authorities issuing certificates and maintaining
//     append-only authenticated dictionaries (internal/ca, internal/dictionary)
//   - the CDN dissemination network: distribution point, edge servers with
//     TTL caches, and an HTTP transport (internal/cdn)
//   - the Revocation Agent middlebox: dictionary replication, DPI, and the
//     status-injecting TCP proxy (internal/ra)
//   - the RITM-supported client enforcing the 2∆ freshness policy and the
//     mid-connection revocation check (internal/ritmclient)
//   - consistency checking and CA-misbehavior proofs (internal/monitor)
//   - the TLS substrate with a plaintext, middlebox-parsable negotiation
//     (internal/tlssim)
//
// # Quickstart
//
// Wire a CA to a distribution point, replicate it on an RA, and protect a
// connection:
//
//	dp := ritm.NewDistributionPoint(nil)
//	ca, _ := ritm.NewCA(ritm.CAConfig{ID: "MyCA", Delta: 10 * time.Second, Publisher: dp})
//	dp.RegisterCA("MyCA", ca.PublicKey())
//	ca.PublishRoot()
//
//	agent, _ := ritm.NewRA(ritm.RAConfig{
//		Roots:  []*ritm.Certificate{ca.RootCertificate()},
//		Origin: ritm.NewEdgeServer(dp, 0, nil),
//		Delta:  10 * time.Second,
//	})
//	agent.SyncOnce()
//	proxy, _ := agent.NewProxy("127.0.0.1:0", serverAddr)
//
//	conn, err := ritm.Dial("tcp", proxy.Addr().String(), "example.com", &ritm.ClientConfig{
//		Pool:          pool,
//		RequireStatus: true,
//	})
//
// See examples/ for complete programs, and DESIGN.md for the map from the
// paper's sections to packages.
package ritm

import (
	"time"

	"ritm/internal/baseline"
	"ritm/internal/ca"
	"ritm/internal/cdn"
	"ritm/internal/cert"
	"ritm/internal/cryptoutil"
	"ritm/internal/dictionary"
	"ritm/internal/experiments"
	"ritm/internal/interception"
	"ritm/internal/monitor"
	"ritm/internal/ra"
	"ritm/internal/ritmclient"
	"ritm/internal/serial"
	"ritm/internal/storage"
	"ritm/internal/tlssim"
)

// Certification authority (§III).
type (
	// CA issues certificates and maintains the revocation dictionary.
	CA = ca.CA
	// CAConfig configures a CA.
	CAConfig = ca.Config
	// Publisher is the CA's interface to the dissemination network.
	Publisher = ca.Publisher
)

// NewCA creates a certification authority.
func NewCA(cfg CAConfig) (*CA, error) { return ca.New(cfg) }

// Authenticated dictionary artifacts (§III, Fig 2).
type (
	// CAID identifies a CA and its dictionary.
	CAID = dictionary.CAID
	// SignedRoot is Eq (1): {root, n, Hᵐ(v), t} signed by the CA.
	SignedRoot = dictionary.SignedRoot
	// FreshnessStatement is Eq (2): the per-∆ hash-chain heartbeat.
	FreshnessStatement = dictionary.FreshnessStatement
	// Status is Eq (3): proof + signed root + freshness statement.
	Status = dictionary.Status
	// Proof is a presence/absence proof against a signed root.
	Proof = dictionary.Proof
	// MisbehaviorProof is transferable evidence of CA equivocation (§V).
	MisbehaviorProof = dictionary.MisbehaviorProof
	// ShardedAuthority is the §VIII "ever-growing dictionaries" extension:
	// one dictionary per certificate-expiry bucket, pruned after expiry.
	ShardedAuthority = dictionary.ShardedAuthority
	// ShardConfig configures a ShardedAuthority.
	ShardConfig = dictionary.ShardConfig
)

// NewShardedAuthority creates an expiry-sharded dictionary space (§VIII).
func NewShardedAuthority(cfg ShardConfig) (*ShardedAuthority, error) {
	return dictionary.NewShardedAuthority(cfg)
}

// Durable state tier: WAL + checkpoint persistence for CAs, distribution
// points, and RAs. A nil backend anywhere keeps that component purely
// in-memory (the historical behavior).
type (
	// StorageBackend opens durable logs for named dictionaries.
	StorageBackend = storage.Backend
	// FileBackend persists each dictionary under a directory: an
	// append-only CRC-framed WAL of signed update batches plus atomically
	// installed checkpoint snapshots.
	FileBackend = storage.FileBackend
	// MemoryBackend retains logs in process memory — restart semantics
	// without a filesystem, for tests and simulations.
	MemoryBackend = storage.Memory
)

// NewFileBackend returns a file-backed storage backend rooted at dir.
// fsync selects fsync-on-commit for WAL appends (checkpoints always
// sync); see the README's durability table for the tradeoff.
func NewFileBackend(dir string, fsync bool) *FileBackend {
	return storage.NewFileBackend(dir, fsync)
}

// NewMemoryBackend returns an in-process storage backend.
func NewMemoryBackend() *MemoryBackend { return storage.NewMemory() }

// Status check outcomes.
const (
	// CheckValid: the certificate is proven not revoked, freshly.
	CheckValid = dictionary.CheckValid
	// CheckRevoked: the certificate is proven revoked.
	CheckRevoked = dictionary.CheckRevoked
)

// Dissemination network (§III "Dissemination").
type (
	// DistributionPoint is the CDN origin fed by CAs.
	DistributionPoint = cdn.DistributionPoint
	// EdgeServer replicates an origin with a TTL cache.
	EdgeServer = cdn.EdgeServer
	// Origin is the pull API spoken across the network.
	Origin = cdn.Origin
	// PullResponse is one pull's payload: the missing suffix with its
	// signed root, the current freshness statement, and the suffix's
	// batch bounds.
	PullResponse = cdn.PullResponse
	// HTTPClient is an Origin over the HTTP transport.
	HTTPClient = cdn.HTTPClient
	// Topology is the two-tier edge hierarchy (regions × PoPs): PoPs pull
	// from regional edges, regional edges pull from the origin, so origin
	// load is O(regions) regardless of fleet size.
	Topology = cdn.Topology
	// TopologyConfig shapes a Topology (tier TTLs, negative-cache TTL).
	TopologyConfig = cdn.TopologyConfig
	// TopologyStats is the per-tier (and per-region) stats roll-up.
	TopologyStats = cdn.TopologyStats
)

// NewTopology wires a regions × PoPs edge hierarchy over origin.
func NewTopology(origin Origin, cfg TopologyConfig) (*Topology, error) {
	return cdn.NewTopology(origin, cfg)
}

// Multi-origin HA: CA-sharded origins, WAL-shipping replication, and
// failover.
type (
	// Ring is the consistent-hash ring mapping CA ids to origin shards;
	// deterministic across processes, so every edge and RA computes the
	// same placement from the shard count alone.
	Ring = cdn.Ring
	// ShardedOrigin routes pulls across origin shards by CA id, each
	// shard an ordered failover-candidate list with cooldown demotion.
	ShardedOrigin = cdn.ShardedOrigin
	// ShardedOriginOptions tunes failover (cooldown, clock).
	ShardedOriginOptions = cdn.ShardedOriginOptions
	// ShardedOriginStats is the per-shard pulls/failovers roll-up.
	ShardedOriginStats = cdn.ShardedOriginStats
	// Replicator is the replication-stream API: Tail a CA's WAL from an
	// LSN. DistributionPoint and HTTPClient implement it.
	Replicator = cdn.Replicator
	// ReplicationResponse is one replication pull: an optional checkpoint
	// snapshot plus the WAL frames after it.
	ReplicationResponse = cdn.ReplicationResponse
	// Follower tails a leader origin's per-CA WAL and applies it to a
	// local DistributionPoint, verifying every suffix against the CA's
	// signed root before serving it.
	Follower = cdn.Follower
	// FollowerStats counts replication activity (frames applied,
	// snapshots adopted, rejected records, position resets).
	FollowerStats = cdn.FollowerStats
	// FollowerLoop is a running background replication loop.
	FollowerLoop = cdn.FollowerLoop
)

// NewRing returns the consistent-hash ring over n shards.
func NewRing(n int) (*Ring, error) { return cdn.NewRing(n) }

// NewShardedOrigin builds a CA-sharded origin: shards[i] is shard i's
// ordered failover-candidate list (preferred first).
func NewShardedOrigin(shards [][]Origin, opts ShardedOriginOptions) (*ShardedOrigin, error) {
	return cdn.NewShardedOrigin(shards, opts)
}

// NewFailoverOrigin builds a single-shard ShardedOrigin: plain failover
// across candidates without CA-based routing.
func NewFailoverOrigin(candidates []Origin, opts ShardedOriginOptions) (*ShardedOrigin, error) {
	return cdn.NewFailoverOrigin(candidates, opts)
}

// NewShardedTopology wires an edge hierarchy over a sharded origin.
func NewShardedTopology(shards [][]Origin, opts ShardedOriginOptions, cfg TopologyConfig) (*Topology, *ShardedOrigin, error) {
	return cdn.NewShardedTopology(shards, opts, cfg)
}

// NewFollower creates a follower replicating source's WAL streams into dp
// for every CA registered on dp.
func NewFollower(dp *DistributionPoint, source Replicator) *Follower {
	return cdn.NewFollower(dp, source)
}

// Dissemination sentinels (match with errors.Is).
var (
	// ErrUnknownCA reports a pull for a dictionary the origin does not
	// carry; edges can negative-cache it (EdgeServer.SetNegativeTTL).
	ErrUnknownCA = cdn.ErrUnknownCA
	// ErrAhead reports a pull whose from-count exceeds the origin's —
	// the origin-regression signal the fetcher's Resync recovery handles.
	ErrAhead = cdn.ErrAhead
	// ErrNoOrigin reports a sharded pull whose shard has no live
	// candidate left.
	ErrNoOrigin = cdn.ErrNoOrigin
	// ErrNoReplication reports a replication pull against an origin with
	// no WAL to ship (no storage backend).
	ErrNoReplication = cdn.ErrNoReplication
	// ErrReplicationDiverged reports a replicated record the local signed
	// root verification rejected — a compromised or split-brain leader.
	ErrReplicationDiverged = cdn.ErrReplicationDiverged
)

// EdgeHitRate reduces edge stats to the served-without-upstream fraction.
func EdgeHitRate(s EdgeStats) float64 { return cdn.HitRate(s) }

// NewDistributionPoint creates a CDN origin. now is the clock used to
// validate ingested freshness statements (nil = time.Now).
func NewDistributionPoint(now func() time.Time) *DistributionPoint {
	return cdn.NewDistributionPoint(now)
}

// NewDistributionPointWithStorage creates a CDN origin persisting every
// dictionary to backend: a reopened origin recovers its exact signed
// roots (same ETags — edges keep getting 304s) and serves suffixes from
// where it crashed, instead of forcing every RA through the full-resync
// path. checkpointEvery is the WAL-records-per-checkpoint cadence (0 =
// default).
func NewDistributionPointWithStorage(now func() time.Time, backend StorageBackend, checkpointEvery int) *DistributionPoint {
	return cdn.NewDistributionPointWithStorage(now, backend, checkpointEvery)
}

// NewEdgeServer creates an edge server caching upstream responses for ttl
// (zero disables caching — the Fig 5 worst case). now is the cache clock
// (nil = time.Now).
func NewEdgeServer(upstream Origin, ttl time.Duration, now func() time.Time) *EdgeServer {
	return cdn.NewEdgeServer(upstream, ttl, now)
}

// Revocation Agent (§III, §VI).
type (
	// RA is the revocation-agent middlebox.
	RA = ra.RA
	// RAConfig configures an RA.
	RAConfig = ra.Config
	// RAProxy is the RA's status-injecting TCP data path.
	RAProxy = ra.Proxy
	// Fetcher is the RA's background pull loop.
	Fetcher = ra.Fetcher
	// FetcherOptions controls the pull loop's lifecycle: interval, per-CA
	// jitter, ErrAhead recovery, and the §VIII shard-expiry sweep.
	FetcherOptions = ra.FetcherOptions
	// FetcherStats counts fetcher-lifecycle activity.
	FetcherStats = ra.FetcherStats
	// EdgeStats counts edge-server activity (hits, collapsed pulls,
	// evictions); the fleet benchmark reads it.
	EdgeStats = cdn.EdgeStats
)

// NewRA creates a Revocation Agent.
func NewRA(cfg RAConfig) (*RA, error) { return ra.New(cfg) }

// Real-TLS intercepting data plane: a crypto/tls-terminating bump
// middlebox whose handshake decision is driven by the RA's dictionary.
// Start one with (*RA).NewInterceptor.
type (
	// Interceptor is the real-TLS bump middlebox.
	Interceptor = interception.Interceptor
	// InterceptConfig configures an Interceptor.
	InterceptConfig = interception.Config
	// InterceptSession is the per-connection bump outcome.
	InterceptSession = interception.Session
	// InterceptStats counts the interceptor's data-path activity.
	InterceptStats = interception.Stats
	// Minter mints per-site leaves under a local bump root.
	Minter = interception.Minter
	// MintingRoot is the local root bump leaves chain to.
	MintingRoot = interception.MintingRoot
	// BypassList lists hosts the interceptor never bumps.
	BypassList = interception.BypassList
	// KeyAlg selects the minting root's key algorithm.
	KeyAlg = interception.KeyAlg
)

// Minting-root key algorithms.
const (
	KeyECDSA = interception.KeyECDSA
	KeyRSA   = interception.KeyRSA
)

// NewMintingRoot generates a fresh self-signed interception root.
func NewMintingRoot(commonName string, alg KeyAlg) (*MintingRoot, error) {
	return interception.NewMintingRoot(commonName, alg)
}

// LoadOrCreateMintingRoot loads an interception root from a PEM file,
// generating and persisting one if the file does not exist.
func LoadOrCreateMintingRoot(path, commonName string, alg KeyAlg) (*MintingRoot, error) {
	return interception.LoadOrCreateMintingRoot(path, commonName, alg)
}

// NewMinter wraps a minting root with an LRU leaf cache (cacheCap 0 =
// default).
func NewMinter(root *MintingRoot, cacheCap int) *Minter {
	return interception.NewMinter(root, cacheCap)
}

// NewBypassList builds a bypass list from entries ("example.com" exact,
// ".example.com" includes subdomains).
func NewBypassList(entries ...string) *BypassList {
	return interception.NewBypassList(entries...)
}

// LoadBypassFile reads a bypass list from a file (one entry per line,
// '#' comments).
func LoadBypassFile(path string) (*BypassList, error) {
	return interception.LoadBypassFile(path)
}

// RITM-supported client (§III steps 5–7).
type (
	// ClientConfig configures the RITM client policy.
	ClientConfig = ritmclient.Config
	// ClientConn is a RITM-protected connection.
	ClientConn = ritmclient.Conn
	// Verifier checks injected revocation statuses.
	Verifier = ritmclient.Verifier
)

// Dial establishes a RITM-protected connection.
func Dial(network, addr, serverName string, cfg *ClientConfig) (*ClientConn, error) {
	return ritmclient.Dial(network, addr, serverName, cfg)
}

// Certificates and trust anchors.
type (
	// Certificate is the simplified X.509 equivalent RITM operates on.
	Certificate = cert.Certificate
	// Chain is a leaf-first certificate chain.
	Chain = cert.Chain
	// Pool is a set of trusted root CA certificates.
	Pool = cert.Pool
	// SerialNumber is an RFC 5280-style certificate serial number.
	SerialNumber = serial.Number
	// Signer is an Ed25519 signing identity.
	Signer = cryptoutil.Signer
)

// NewPool returns a pool trusting the given self-signed roots.
func NewPool(roots ...*Certificate) (*Pool, error) { return cert.NewPool(roots...) }

// NewSigner generates an Ed25519 identity (nil rng = crypto/rand).
func NewSigner() (*Signer, error) { return cryptoutil.NewSigner(nil) }

// TLS substrate (§III "Validation").
type (
	// TLSConfig configures a TLS-sim endpoint.
	TLSConfig = tlssim.Config
	// TLSConn is a TLS-sim connection.
	TLSConn = tlssim.Conn
)

// Consistency checking (§III, §V).
type (
	// Auditor accumulates signed roots and detects equivocation.
	Auditor = monitor.Auditor
	// MapServer is the registry of parties exchanging dictionary views.
	MapServer = monitor.MapServer
	// RootSource provides latest signed roots for auditing.
	RootSource = monitor.RootSource
)

// NewAuditor creates an auditor trusting the CA keys in pool.
func NewAuditor(pool *Pool) *Auditor { return monitor.NewAuditor(pool) }

// NewMapServer creates an empty source registry.
func NewMapServer() *MapServer { return monitor.NewMapServer() }

// CrossCheck audits every registered source's view of one dictionary.
func CrossCheck(m *MapServer, a *Auditor, caID CAID) *monitor.CrossCheckResult {
	return monitor.CrossCheck(m, a, caID)
}

// Baseline schemes and the Table IV comparison model (§II, §VII-E).
type (
	// BaselineScheme is one Table IV row.
	BaselineScheme = baseline.Scheme
	// BaselineParams instantiates the Table IV symbols.
	BaselineParams = baseline.Params
)

// BaselineSchemes returns every Table IV row.
func BaselineSchemes() []BaselineScheme { return baseline.Schemes() }

// RunExperiment regenerates one of the paper's tables/figures by id (see
// internal/experiments for the registry).
func RunExperiment(id string, quick bool) (*experiments.Table, error) {
	return experiments.Run(id, quick)
}

// ExperimentIDs lists the available experiment identifiers.
func ExperimentIDs() []string { return experiments.IDs() }
