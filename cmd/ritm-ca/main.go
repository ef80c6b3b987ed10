// Command ritm-ca runs a certification authority together with its CDN
// distribution point: it serves the dissemination API that edge servers
// and RAs pull from, keeps the dictionary fresh every ∆, and exposes a
// small admin API for issuing and revoking certificates.
//
// Endpoints (on -listen):
//
//	GET /v1/cas, /v1/pull?ca=&from=, /v1/root?ca=   dissemination (cdn API)
//	GET /admin/root                                  root certificate (binary)
//	GET /admin/issue?subject=S&pub=HEX               issue a certificate
//	GET /admin/revoke?serial=HEX                     revoke a serial number
//
// With -data-dir the CA is durable: the signing key, the dictionary (an
// append-only WAL of signed update batches plus checkpoints), and the
// distribution point's state all live under the directory, and a
// restarted ritm-ca resumes with the exact signed root it crashed with —
// same ETag, so edge caches revalidate with 304s and RAs just pull the
// suffix they missed.
//
// With -follow the process runs as a follower origin instead of a CA: it
// tails the leader's replication stream (GET /v1/replicate), applies every
// shipped WAL record after verifying it against the leader CA's signed
// root, and serves the same dissemination API — including /v1/replicate
// for chained followers. A promoted follower answers with byte-identical
// signed roots and ETags, so edges and RAs fail over to it without
// re-downloading state they already verified. The leader's root
// certificate is fetched once at startup and served on /admin/root, so
// RAs can bootstrap trust from a follower exactly as from the leader.
//
// Examples:
//
//	ritm-ca -id DemoCA -delta 10s -listen 127.0.0.1:8440 -data-dir /var/lib/ritm-ca
//	ritm-ca -follow http://127.0.0.1:8440 -listen 127.0.0.1:8441
package main

import (
	"crypto/ed25519"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux; served only via -pprof
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"ritm"
	"ritm/internal/cdn"
	"ritm/internal/cert"
	"ritm/internal/cryptoutil"
	"ritm/internal/dictionary"
	"ritm/internal/serial"
)

func main() {
	var (
		id        = flag.String("id", "DemoCA", "CA identifier")
		delta     = flag.Duration("delta", 10*time.Second, "dissemination interval ∆")
		listen    = flag.String("listen", "127.0.0.1:8440", "address for the dissemination + admin API")
		dataDir   = flag.String("data-dir", "", "directory for durable state (signing key, dictionary WAL + checkpoints, distribution-point state); empty = in-memory only")
		ckptEvery = flag.Int("checkpoint-every", 64, "WAL records between checkpoint snapshots")
		fsync     = flag.Bool("fsync", true, "fsync the WAL on every committed update batch (off trades crash-durability of the newest batches for latency)")
		gzipOn    = flag.Bool("gzip", false, "compress large /v1/pull bodies for gzip-accepting clients (Vary-safe, per-encoding ETags)")
		follow    = flag.String("follow", "", "run as a follower origin replicating from this leader URL instead of as a CA")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6061); empty = disabled")
	)
	flag.Parse()
	startPprof(*pprofAddr)
	if *follow != "" {
		if err := runFollower(*follow, *delta, *listen, *dataDir, *ckptEvery, *fsync, *gzipOn); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if err := run(*id, *delta, *listen, *dataDir, *ckptEvery, *fsync, *gzipOn); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// startPprof exposes the pprof endpoints on their own listener. Opt-in
// and on a separate address by design: the profiling surface must never
// ride on the dissemination/admin address the fleet talks to.
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

// loadOrCreateSigner persists the CA's Ed25519 seed under dir (mode 0600):
// a durable CA must restart with the identity its dictionary history was
// signed with, or recovery verification refuses the store.
func loadOrCreateSigner(dir string) (*ritm.Signer, error) {
	path := filepath.Join(dir, "ca.key")
	if raw, err := os.ReadFile(path); err == nil {
		seedBytes, err := hex.DecodeString(strings.TrimSpace(string(raw)))
		if err != nil || len(seedBytes) != ed25519.SeedSize {
			return nil, fmt.Errorf("ritm-ca: malformed key file %s", path)
		}
		var seed [32]byte
		copy(seed[:], seedBytes)
		return cryptoutil.NewSignerFromSeed(seed), nil
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	signer, err := ritm.NewSigner()
	if err != nil {
		return nil, err
	}
	seed := signer.Seed()
	if err := os.WriteFile(path, []byte(hex.EncodeToString(seed[:])+"\n"), 0o600); err != nil {
		return nil, fmt.Errorf("ritm-ca: persist key: %w", err)
	}
	return signer, nil
}

// catchUpOrigin re-feeds the distribution point whatever suffix the
// authority committed (write-ahead) but the origin never ingested. It is
// a no-op when both sides agree — the common case; the gap arises only
// from a crash inside one revocation's WAL-commit→publish window, so it
// is at most a few batches, re-fed as one message.
func catchUpOrigin(dp *ritm.DistributionPoint, authority *ritm.CA) error {
	auth := authority.Authority()
	caN := auth.Count()
	var dpN uint64
	if root, err := dp.LatestRoot(authority.ID()); err == nil {
		dpN = root.N
	}
	if dpN >= caN {
		return nil
	}
	suffix, err := auth.LogSuffix(dpN, caN)
	if err != nil {
		return err
	}
	log.Printf("ritm-ca: origin recovered at %d of the authority's %d revocations; re-feeding the missed suffix", dpN, caN)
	return dp.PublishIssuance(&dictionary.IssuanceMessage{Serials: suffix, Root: auth.SignedRoot()})
}

func run(id string, delta time.Duration, listen, dataDir string, ckptEvery int, fsync, gzipOn bool) error {
	var (
		caBackend, dpBackend ritm.StorageBackend
		signer               *ritm.Signer
		err                  error
	)
	if dataDir != "" {
		if err := os.MkdirAll(dataDir, 0o755); err != nil {
			return err
		}
		if signer, err = loadOrCreateSigner(dataDir); err != nil {
			return err
		}
		// Authority and distribution point keep separate namespaces: both
		// persist a log named after the CA id.
		caBackend = ritm.NewFileBackend(filepath.Join(dataDir, "authority"), fsync)
		dpBackend = ritm.NewFileBackend(filepath.Join(dataDir, "origin"), fsync)
	} else {
		// Even an in-memory origin keeps a WAL: /v1/replicate ships it to
		// follower origins, so replication works without -data-dir.
		dpBackend = ritm.NewMemoryBackend()
	}
	dp := ritm.NewDistributionPointWithStorage(nil, dpBackend, ckptEvery)
	defer dp.Close()
	authority, err := ritm.NewCA(ritm.CAConfig{
		ID:              ritm.CAID(id),
		Delta:           delta,
		Publisher:       dp,
		Signer:          signer,
		Storage:         caBackend,
		CheckpointEvery: ckptEvery,
	})
	if err != nil {
		return err
	}
	defer authority.Close()
	if err := dp.RegisterCA(ritm.CAID(id), authority.PublicKey()); err != nil {
		return err
	}
	// The CA's log is write-ahead of the publish: a crash between the WAL
	// commit and the distribution point's ingest leaves the recovered
	// authority a suffix ahead of the recovered origin. Feed that suffix
	// before anything else, or the root publication below would be rejected
	// as desynchronized on every restart.
	if err := catchUpOrigin(dp, authority); err != nil {
		return fmt.Errorf("ritm-ca: catch origin up to authority: %w", err)
	}
	// On a warm start both sides now hold the same state, so this is a
	// verified no-op; on a cold start it publishes the empty dictionary's
	// root (the bootstrapping manifest of §VIII).
	if err := authority.PublishRoot(); err != nil {
		return err
	}
	refresher := authority.StartRefresher(func(err error) {
		log.Printf("refresh: %v", err)
	})
	defer refresher.Shutdown()

	mux := http.NewServeMux()
	mux.Handle("/v1/", cdn.NewHandler(dp, cdn.HandlerOptions{Gzip: gzipOn}))
	mux.HandleFunc("GET /admin/root", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(authority.RootCertificate().Encode())
	})
	mux.HandleFunc("GET /admin/issue", func(w http.ResponseWriter, r *http.Request) {
		subject := r.URL.Query().Get("subject")
		pubHex := r.URL.Query().Get("pub")
		pub, err := hex.DecodeString(pubHex)
		if subject == "" || err != nil || len(pub) != ed25519.PublicKeySize {
			http.Error(w, "issue requires subject and a 32-byte hex pub", http.StatusBadRequest)
			return
		}
		crt, err := authority.IssueServerCertificate(subject, pub)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		log.Printf("issued %s serial=%v", subject, crt.SerialNumber)
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(crt.Encode())
	})
	mux.HandleFunc("GET /admin/revoke", func(w http.ResponseWriter, r *http.Request) {
		sn, err := serial.Parse(r.URL.Query().Get("serial"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if _, err := authority.Revoke(sn); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		log.Printf("revoked serial=%v (n=%d)", sn, authority.Authority().Count())
		fmt.Fprintf(w, "revoked %v\n", sn)
	})

	srv := &http.Server{Addr: listen, Handler: mux}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	durable := "in-memory"
	if dataDir != "" {
		durable = fmt.Sprintf("durable at %s (fsync=%v, checkpoint-every=%d)", dataDir, fsync, ckptEvery)
	}
	log.Printf("ritm-ca %s: ∆=%v, n=%d, %s, serving dissemination + admin on %s",
		id, delta, authority.Authority().Count(), durable, listen)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case <-sig:
		log.Print("shutting down")
		return srv.Close()
	}
}

// fetchLeaderRoot downloads the leader CA's root certificate, retrying
// briefly so a follower started alongside its leader does not lose the
// race to the leader's listener.
func fetchLeaderRoot(leaderURL string) (*ritm.Certificate, error) {
	var lastErr error
	for attempt := 0; attempt < 20; attempt++ {
		if attempt > 0 {
			time.Sleep(500 * time.Millisecond)
		}
		resp, err := http.Get(leaderURL + "/admin/root")
		if err != nil {
			lastErr = err
			continue
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			lastErr = fmt.Errorf("status %d", resp.StatusCode)
			continue
		}
		if err != nil {
			lastErr = err
			continue
		}
		return cert.Decode(body)
	}
	return nil, fmt.Errorf("fetch leader root from %s: %w", leaderURL, lastErr)
}

// runFollower runs the process as a replicating follower origin: no
// authority, no admin issue/revoke — just a distribution point kept in
// sync by tailing the leader's per-CA WAL and verifying every applied
// suffix against the leader CA's signed root.
func runFollower(leaderURL string, delta time.Duration, listen, dataDir string, ckptEvery int, fsync, gzipOn bool) error {
	leaderURL = strings.TrimRight(leaderURL, "/")
	rootCert, err := fetchLeaderRoot(leaderURL)
	if err != nil {
		return fmt.Errorf("ritm-ca: %w", err)
	}
	if !rootCert.IsCA {
		return fmt.Errorf("ritm-ca: leader root %s is not a CA certificate", rootCert.Subject)
	}
	if err := rootCert.CheckSignature(rootCert.PublicKey); err != nil {
		return fmt.Errorf("ritm-ca: leader root is not self-signed: %w", err)
	}
	var dpBackend ritm.StorageBackend
	if dataDir != "" {
		if err := os.MkdirAll(dataDir, 0o755); err != nil {
			return err
		}
		dpBackend = ritm.NewFileBackend(filepath.Join(dataDir, "origin"), fsync)
	} else {
		dpBackend = ritm.NewMemoryBackend()
	}
	dp := ritm.NewDistributionPointWithStorage(nil, dpBackend, ckptEvery)
	defer dp.Close()
	// The trust anchor comes from the leader's root certificate, not from
	// the leader's goodwill: every replicated record is verified against
	// this key before it is served, so a compromised or split-brain leader
	// feeds us nothing.
	if err := dp.RegisterCA(rootCert.Issuer, rootCert.PublicKey); err != nil {
		return err
	}
	leader := &cdn.HTTPClient{BaseURL: leaderURL}
	follower := cdn.NewFollower(dp, leader)
	interval := delta / 4
	if interval <= 0 {
		interval = time.Second
	}
	loop := follower.Start(interval, func(err error) {
		log.Printf("replicate: %v", err)
	})
	defer loop.Shutdown()

	mux := http.NewServeMux()
	mux.Handle("/v1/", cdn.NewHandler(dp, cdn.HandlerOptions{Gzip: gzipOn}))
	// Serve the leader's root certificate so RAs bootstrap trust from a
	// promoted follower exactly as they would from the leader.
	rootBytes := rootCert.Encode()
	mux.HandleFunc("GET /admin/root", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(rootBytes)
	})

	srv := &http.Server{Addr: listen, Handler: mux}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	durable := "in-memory"
	if dataDir != "" {
		durable = fmt.Sprintf("durable at %s (fsync=%v, checkpoint-every=%d)", dataDir, fsync, ckptEvery)
	}
	log.Printf("ritm-ca follower of %s: ca=%s, sync every %v, %s, serving dissemination on %s",
		leaderURL, rootCert.Issuer, interval, durable, listen)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case <-sig:
		log.Print("shutting down")
		return srv.Close()
	}
}
