// Command ritm-ra runs a Revocation Agent: it replicates the dictionaries
// of one or more CAs from a dissemination endpoint (pulling every ∆) and
// proxies TCP traffic between clients and one upstream, injecting
// revocation statuses into RITM-supported TLS connections.
//
// Example (after starting ritm-ca and ritm-server):
//
//	ritm-ra -ca http://127.0.0.1:8440 -listen 127.0.0.1:8443 -target 127.0.0.1:9443
//
// Multi-origin deployments hand the RA the whole dissemination fleet via
// -origins: ';' separates origin shards (CA ids map onto shards by the
// deployment-wide consistent-hash ring, so the list's shard order must
// match the fleet's), ',' separates failover candidates within a shard,
// preferred first — typically "leader,follower". -ca then takes a
// comma-separated list of admin URLs to fetch every trusted root from:
//
//	ritm-ra -ca http://ca0:8440,http://ca1:8450 \
//	        -origins "http://ca0:8440,http://f0:8441;http://ca1:8450,http://f1:8451" \
//	        -shards 2 -listen 127.0.0.1:8443 -target 127.0.0.1:9443
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux; served only via -pprof
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ritm"
	"ritm/internal/cert"
)

func main() {
	var (
		caURL     = flag.String("ca", "http://127.0.0.1:8440", "CA base URL(s), comma-separated (dissemination + admin API); every listed CA's root is trusted")
		origins   = flag.String("origins", "", "sharded origin fleet: ';' separates shards (ring order), ',' separates failover candidates within a shard, preferred first. Empty = pull from -ca directly")
		shardsN   = flag.Int("shards", 0, "expected shard count for -origins; >0 makes a mismatched fleet list a startup error instead of silently wrong routing")
		cooldown  = flag.Duration("failover-cooldown", 0, "how long a demoted origin candidate stays skipped before being probed again (0 = library default)")
		listen    = flag.String("listen", "127.0.0.1:8443", "address clients connect to")
		target    = flag.String("target", "127.0.0.1:9443", "upstream server address")
		delta     = flag.Duration("delta", 10*time.Second, "pull interval ∆")
		jitter    = flag.Duration("jitter", 0, "max random per-CA pull delay each cycle (avoids fleet-wide stampedes)")
		expire    = flag.Duration("expire-shards", 0, "expiry-shard bucket width; >0 drops fully expired shards every cycle")
		chain     = flag.String("edge-chain", "", "comma-separated TTLs of local caching edge layers over the dissemination endpoint, nearest first (e.g. \"5s,30s\" = PoP-style 5s cache in front of a 30s regional-style cache); each layer also negative-caches unknown CAs for its TTL")
		dataDir   = flag.String("data-dir", "", "directory for durable replica state (WAL + checkpoints per CA); a restarted RA resumes at its persisted count and pulls only the missed suffix. Empty = in-memory only")
		ckptEvery = flag.Int("checkpoint-every", 64, "persisted update batches between checkpoint snapshots")
		fsync     = flag.Bool("fsync", true, "fsync the WAL on every persisted update batch")
		shared    = flag.Bool("shared-data", false, "serve read-only from another ritm-ra's -data-dir instead of pulling: the checkpoint is mmap'd (physical pages shared across co-located RAs) and the writer's stamp is polled at ∆/8. Exactly one process writes a data dir; any number may read it")
		intercept = flag.Bool("intercept", false, "terminate real TLS on -listen instead of the tlssim DPI proxy: bumped handshakes drive the dictionary status check (upstream leaf mapped by issuer CN + serial), revoked upstreams are refused with a certificate_revoked alert, and clients see leaves minted under -bump-root")
		bumpRoot  = flag.String("bump-root", "", "PEM file holding the interception root certificate + private key; created (ECDSA P-256, 10y) if missing. Required with -intercept; clients must install the certificate")
		bypass    = flag.String("bypass-file", "", "file listing hosts never bumped (one per line, '#' comments; 'example.com' exact, '.example.com' includes subdomains); matching connections are spliced verbatim")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060); empty = disabled")
	)
	flag.Parse()
	startPprof(*pprofAddr)
	if *shared && *dataDir == "" {
		fmt.Fprintln(os.Stderr, "ritm-ra: -shared-data requires -data-dir (the writer RA's directory)")
		os.Exit(2)
	}
	if *shared && *origins != "" {
		fmt.Fprintln(os.Stderr, "ritm-ra: -shared-data and -origins are mutually exclusive (a shared reader never pulls)")
		os.Exit(2)
	}
	if *shardsN > 0 {
		if got := len(splitShards(*origins)); got != *shardsN {
			fmt.Fprintf(os.Stderr, "ritm-ra: -shards %d but -origins lists %d shard group(s); CA→shard routing would disagree with the fleet\n", *shardsN, got)
			os.Exit(2)
		}
	}
	if *intercept && *bumpRoot == "" {
		fmt.Fprintln(os.Stderr, "ritm-ra: -intercept requires -bump-root (the minting root's PEM file)")
		os.Exit(2)
	}
	if !*intercept && (*bumpRoot != "" || *bypass != "") {
		fmt.Fprintln(os.Stderr, "ritm-ra: -bump-root/-bypass-file only apply with -intercept")
		os.Exit(2)
	}
	if err := run(*caURL, *origins, *listen, *target, *delta, *jitter, *expire, *cooldown, *chain, *dataDir, *ckptEvery, *fsync, *shared, *intercept, *bumpRoot, *bypass); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// startPprof exposes the pprof endpoints on their own listener. Opt-in
// and on a separate address by design: the profiling surface (heap dumps,
// symbol tables, 30-second CPU captures) must never ride on the address
// clients or the fleet talk to.
func startPprof(addr string) {
	if addr == "" {
		return
	}
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil {
			log.Printf("pprof: %v", err)
		}
	}()
}

// splitShards splits an -origins value into its per-shard candidate
// groups (empty input = no groups).
func splitShards(origins string) []string {
	if strings.TrimSpace(origins) == "" {
		return nil
	}
	return strings.Split(origins, ";")
}

// buildShardedOrigin parses -origins into a CA-sharded failover origin,
// layering the -edge-chain caches over every candidate (each candidate is
// an independent upstream; caching in front of the failover wrapper would
// blur which candidate answered and defeat per-candidate demotion).
func buildShardedOrigin(origins, chain string, cooldown time.Duration) (ritm.Origin, error) {
	groups := splitShards(origins)
	shards := make([][]ritm.Origin, len(groups))
	for i, group := range groups {
		for j, raw := range strings.Split(group, ",") {
			u := strings.TrimSpace(raw)
			if u == "" {
				return nil, fmt.Errorf("origins shard %d candidate %d: empty URL", i, j)
			}
			candidate, err := buildEdgeChain(&ritm.HTTPClient{BaseURL: strings.TrimRight(u, "/")}, chain)
			if err != nil {
				return nil, err
			}
			shards[i] = append(shards[i], candidate)
		}
	}
	sharded, err := ritm.NewShardedOrigin(shards, ritm.ShardedOriginOptions{Cooldown: cooldown})
	if err != nil {
		return nil, err
	}
	return sharded, nil
}

// buildEdgeChain layers in-process caching edges over base, mirroring the
// PoP → regional tiers of a CDN hierarchy inside one RA process. ttls is
// nearest-layer-first ("5s,30s" caches 5s in front of 30s); each layer
// negative-caches unknown CAs for its TTL, so a misconfigured trust list
// cannot hammer the remote endpoint either.
func buildEdgeChain(base ritm.Origin, ttls string) (ritm.Origin, error) {
	if ttls == "" {
		return base, nil
	}
	parts := strings.Split(ttls, ",")
	origin := base
	for i := len(parts) - 1; i >= 0; i-- {
		ttl, err := time.ParseDuration(strings.TrimSpace(parts[i]))
		if err != nil {
			return nil, fmt.Errorf("edge-chain layer %d: %w", i, err)
		}
		if ttl <= 0 {
			return nil, fmt.Errorf("edge-chain layer %d: TTL %v must be positive", i, ttl)
		}
		edge := ritm.NewEdgeServer(origin, ttl, nil)
		edge.SetNegativeTTL(ttl)
		origin = edge
	}
	return origin, nil
}

func run(caURL, origins, listen, target string, delta, jitter, expire, cooldown time.Duration, chain, dataDir string, ckptEvery int, fsync bool, shared bool, intercept bool, bumpRoot, bypassFile string) error {
	// The trust anchors always come from the CAs, even for shared readers:
	// a reader trusts nothing in the mapped directory beyond what the
	// anchors' keys verify.
	var roots []*ritm.Certificate
	for _, u := range strings.Split(caURL, ",") {
		u = strings.TrimSpace(u)
		if u == "" {
			continue
		}
		root, err := fetchRoot(strings.TrimRight(u, "/"))
		if err != nil {
			return err
		}
		roots = append(roots, root)
	}
	if len(roots) == 0 {
		return fmt.Errorf("ritm-ra: -ca lists no CA URLs")
	}
	var (
		origin ritm.Origin
		err    error
	)
	switch {
	case shared:
		// Shared readers never pull from the dissemination network; their
		// sync cycle polls the writer's stamp instead.
	case origins != "":
		if origin, err = buildShardedOrigin(origins, chain, cooldown); err != nil {
			return err
		}
	default:
		if origin, err = buildEdgeChain(&ritm.HTTPClient{BaseURL: strings.TrimRight(strings.TrimSpace(strings.Split(caURL, ",")[0]), "/")}, chain); err != nil {
			return err
		}
	}
	var backend ritm.StorageBackend
	if dataDir != "" {
		backend = ritm.NewFileBackend(dataDir, fsync)
	}
	agent, err := ritm.NewRA(ritm.RAConfig{
		Roots:           roots,
		Origin:          origin,
		Delta:           delta,
		Storage:         backend,
		CheckpointEvery: ckptEvery,
		SharedData:      shared,
	})
	if err != nil {
		return err
	}
	defer agent.Store().Close()
	// Fail fast if the dissemination endpoint is unreachable; the fetcher
	// also syncs immediately on start, so a transient race here only costs
	// one extra (edge-cached) pull.
	if err := agent.SyncOnce(); err != nil {
		return fmt.Errorf("initial sync: %w", err)
	}
	interval := delta
	if shared {
		// A reader's sync cycle is two stat calls against a local file, so
		// poll well inside ∆: the writer is already up to ∆ behind the CA,
		// and a reader lagging another full ∆ behind the writer can serve
		// freshness outside the client's {p, p−1} tolerance.
		interval = delta / 8
		if interval < 50*time.Millisecond {
			interval = 50 * time.Millisecond
		}
	}
	fetcher := agent.StartFetcherWith(ritm.FetcherOptions{
		Interval:    interval,
		Jitter:      jitter,
		ShardExpiry: expire,
		OnError:     func(err error) { log.Printf("sync: %v", err) },
	})
	defer fetcher.Shutdown()

	mode := "replicating"
	if shared {
		mode = "sharing (read-only map of " + dataDir + ")"
	}
	var caIDs []string
	for _, root := range roots {
		caIDs = append(caIDs, string(root.Issuer))
	}
	if origins != "" {
		mode += fmt.Sprintf(" across %d origin shard(s)", len(splitShards(origins)))
	}

	var interceptor *ritm.Interceptor
	if intercept {
		mintRoot, err := ritm.LoadOrCreateMintingRoot(bumpRoot, "RITM Interception Root", ritm.KeyECDSA)
		if err != nil {
			return err
		}
		cfg := ritm.InterceptConfig{
			Minter:  ritm.NewMinter(mintRoot, 0),
			Target:  target,
			OnError: func(err error) { log.Printf("intercept: %v", err) },
		}
		if bypassFile != "" {
			if cfg.Bypass, err = ritm.LoadBypassFile(bypassFile); err != nil {
				return err
			}
		}
		if interceptor, err = agent.NewInterceptor(listen, cfg); err != nil {
			return err
		}
		defer interceptor.Close()
		log.Printf("ritm-ra: %s %s (∆=%v), intercepting TLS %s → %s (bump root %s)",
			mode, strings.Join(caIDs, "+"), delta, interceptor.Addr(), target, bumpRoot)
	} else {
		proxy, err := agent.NewProxy(listen, target)
		if err != nil {
			return err
		}
		defer proxy.Close()
		proxy.SetOnError(func(err error) { log.Printf("proxy: %v", err) })
		log.Printf("ritm-ra: %s %s (∆=%v), proxying %s → %s",
			mode, strings.Join(caIDs, "+"), delta, proxy.Addr(), target)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	st := agent.Stats()
	if intercept {
		ist := interceptor.Stats()
		hits, misses := ist.MintCacheHits, ist.MintCacheMisses
		log.Printf("shutting down: %d connections (%d bumped, %d refused, %d bypassed, %d non-TLS), %d statuses checked, mint cache %d/%d hits",
			st.ConnectionsTotal, st.ConnectionsBumped, st.ConnectionsRefused,
			ist.Bypassed, ist.NonTLS, st.StatusesInjected, hits, hits+misses)
		return nil
	}
	log.Printf("shutting down: %d connections (%d supported), %d statuses injected",
		st.ConnectionsTotal, st.ConnectionsSupported, st.StatusesInjected)
	return nil
}

// fetchRoot downloads the CA's self-signed root certificate.
func fetchRoot(caURL string) (*ritm.Certificate, error) {
	resp, err := http.Get(caURL + "/admin/root")
	if err != nil {
		return nil, fmt.Errorf("fetch CA root: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fetch CA root: status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err != nil {
		return nil, fmt.Errorf("fetch CA root: %w", err)
	}
	return cert.Decode(body)
}
