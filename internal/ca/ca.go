// Package ca implements RITM's certification authority: it issues
// certificates, maintains the CA's authenticated revocation dictionary, and
// feeds the dissemination network with revocation issuance messages and
// per-∆ freshness statements (§III).
//
// The package also provides a deliberately misbehaving CA (Fork) that
// equivocates between two dictionary views, used by the consistency-checking
// tests and the equivocation example to demonstrate §V's detection
// guarantees.
package ca

import (
	"crypto/ed25519"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"time"

	"ritm/internal/cert"
	"ritm/internal/cryptoutil"
	"ritm/internal/dictionary"
	"ritm/internal/serial"
	"ritm/internal/storage"
)

// Publisher is the CA's interface to the dissemination network's
// distribution point. Implementations: cdn.DistributionPoint (in-process),
// an HTTP client for a remote distribution point, or test fakes.
type Publisher interface {
	// PublishIssuance disseminates new revocations with their signed root.
	PublishIssuance(msg *dictionary.IssuanceMessage) error
	// PublishFreshness disseminates a per-∆ freshness statement.
	PublishFreshness(st *dictionary.FreshnessStatement) error
}

// Config configures a CA.
type Config struct {
	// ID is the CA identity used in certificates and dictionary roots.
	ID dictionary.CAID
	// Delta is the dissemination interval ∆.
	Delta time.Duration
	// CertValidity bounds issued certificates' lifetime. Zero selects one
	// year, within the CA/B Forum's 39-month ceiling (§VIII).
	CertValidity time.Duration
	// ChainLength is the freshness-chain length m (0 = default).
	ChainLength int
	// Layout must be LayoutSorted (the zero value); New refuses any other.
	//
	// Deprecated: the sorted hash tree is the only commitment. The field
	// exists only so that the frozen benchmark harness (bench/) keeps
	// compiling.
	Layout dictionary.LayoutKind
	// Signer is the CA key; nil generates a fresh one from Rand.
	Signer *cryptoutil.Signer
	// Rand sources randomness (nil = crypto/rand).
	Rand io.Reader
	// Now is the clock (nil = time.Now); experiments inject virtual time.
	Now func() time.Time
	// Publisher receives dissemination messages; nil means the CA operates
	// standalone (tests) and publishing is a no-op.
	Publisher Publisher
	// SerialSizes controls generated serial sizes (nil = paper distribution).
	SerialSizes serial.SizeDistribution
	// SerialSeed seeds the serial generator for reproducible workloads.
	// When the CA warm-starts from Storage and SerialSeed is zero, a fresh
	// random seed is drawn instead: replaying the boot-time deterministic
	// sequence would re-issue serials already handed out before the crash.
	// (Issued-but-unrevoked serials are not part of the dictionary state,
	// so exact issuance continuity requires either a caller-managed seed
	// or an external issuance registry — out of scope here.)
	SerialSeed uint64
	// Storage, when non-nil, persists the CA's dictionary — a WAL of
	// signed update batches with the freshness-chain seed behind each,
	// plus periodic checkpoints — and warm-starts from it: a restarted CA
	// resumes with the exact tree, chain, and signed root it crashed
	// with, so already-disseminated roots and statuses stay valid and the
	// dissemination tier sees no regression (no ErrAhead, no resync).
	// Restoring requires the same Signer; supply the persisted key.
	Storage storage.Backend
	// CheckpointEvery is the number of WAL records between checkpoint
	// snapshots (0 = 64).
	CheckpointEvery int
}

// CA is a certification authority. It is safe for concurrent use.
type CA struct {
	id        dictionary.CAID
	signer    *cryptoutil.Signer
	delta     time.Duration
	validity  time.Duration
	now       func() time.Time
	publisher Publisher
	authority *dictionary.Authority
	root      *cert.Certificate

	mu      sync.Mutex
	serials *serial.Generator
	issued  map[string]*cert.Certificate // by canonical serial bytes

	pmu       sync.Mutex // guards the durable log
	log       storage.Log
	ckptEvery int
	appended  int
}

// New creates a CA with a self-signed root certificate and an empty,
// signed dictionary.
func New(cfg Config) (*CA, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("ca: missing ID")
	}
	if cfg.Layout != dictionary.LayoutSorted {
		return nil, fmt.Errorf("ca %s: layout %v is not supported", cfg.ID, cfg.Layout)
	}
	if cfg.Delta <= 0 {
		cfg.Delta = 10 * time.Second
	}
	if cfg.CertValidity <= 0 {
		cfg.CertValidity = 365 * 24 * time.Hour
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	signer := cfg.Signer
	if signer == nil {
		var err error
		if signer, err = cryptoutil.NewSigner(cfg.Rand); err != nil {
			return nil, fmt.Errorf("ca %s: %w", cfg.ID, err)
		}
	}
	nowUnix := cfg.Now().Unix()
	authorityCfg := dictionary.AuthorityConfig{
		CA:          cfg.ID,
		Signer:      signer,
		Delta:       cfg.Delta,
		ChainLength: cfg.ChainLength,
		Rand:        cfg.Rand,
	}

	var (
		authority *dictionary.Authority
		lg        storage.Log
		restored  bool
		err       error
	)
	if cfg.Storage != nil {
		if lg, err = cfg.Storage.Open(string(cfg.ID)); err != nil {
			return nil, fmt.Errorf("ca %s: %w", cfg.ID, err)
		}
		if authority, restored, err = recoverAuthority(authorityCfg, lg); err != nil {
			lg.Close()
			return nil, fmt.Errorf("ca %s: %w", cfg.ID, err)
		}
	}
	if authority == nil {
		if authority, err = dictionary.NewAuthority(authorityCfg, nowUnix); err != nil {
			if lg != nil {
				lg.Close()
			}
			return nil, fmt.Errorf("ca %s: %w", cfg.ID, err)
		}
		if lg != nil {
			// Anchor the fresh history: with an initial checkpoint on disk,
			// every later recovery has a verified state to replay onto, and
			// "WAL without checkpoint" becomes an unambiguous corruption
			// signal rather than a valid cold-start shape.
			if err := lg.Checkpoint(authority.PersistentStateV2()); err != nil {
				lg.Close()
				return nil, fmt.Errorf("ca %s: %w", cfg.ID, err)
			}
		}
	}
	serialSeed := cfg.SerialSeed
	if restored && serialSeed == 0 {
		// Replaying the boot-deterministic serial sequence would re-issue
		// pre-crash serials; draw boot entropy instead (see Config.SerialSeed).
		rng := cfg.Rand
		if rng == nil {
			rng = rand.Reader
		}
		var b [8]byte
		if _, err := io.ReadFull(rng, b[:]); err != nil {
			lg.Close()
			return nil, fmt.Errorf("ca %s: serial seed: %w", cfg.ID, err)
		}
		serialSeed = binary.BigEndian.Uint64(b[:])
	}
	// The root certificate outlives every certificate it signs.
	rootCert, err := cert.SelfSigned(cfg.ID, signer, nowUnix,
		nowUnix+int64((cfg.CertValidity*10)/time.Second), uint32(cfg.Delta/time.Second))
	if err != nil {
		if lg != nil {
			lg.Close()
		}
		return nil, fmt.Errorf("ca %s: %w", cfg.ID, err)
	}
	ckptEvery := cfg.CheckpointEvery
	if ckptEvery <= 0 {
		ckptEvery = 64
	}
	return &CA{
		id:        cfg.ID,
		signer:    signer,
		delta:     cfg.Delta,
		validity:  cfg.CertValidity,
		now:       cfg.Now,
		publisher: cfg.Publisher,
		authority: authority,
		root:      rootCert,
		serials:   serial.NewGenerator(serialSeed, cfg.SerialSizes),
		issued:    make(map[string]*cert.Certificate),
		log:       lg,
		ckptEvery: ckptEvery,
	}, nil
}

// recoverAuthority rebuilds the authority from a durable log, or reports
// (nil, false, nil) when the log is genuinely fresh. Every recovered
// artifact is re-verified (signature under the configured signer, rebuilt
// root against the signed root, chain seed against the signed anchor); a
// mismatch — including an operator supplying a different signing key than
// the persisted history was signed with — fails loudly.
func recoverAuthority(cfg dictionary.AuthorityConfig, lg storage.Log) (*dictionary.Authority, bool, error) {
	ckpt, wal, err := lg.Load()
	if err != nil {
		return nil, false, err
	}
	if ckpt == nil {
		if len(wal) > 0 {
			// New stores are anchored by an initial checkpoint before any
			// record is appended, so this shape only arises from damage.
			return nil, false, fmt.Errorf("durable log has %d WAL records but no checkpoint", len(wal))
		}
		return nil, false, nil
	}
	st, err := dictionary.DecodePersistentState(ckpt)
	if err != nil {
		return nil, false, err
	}
	records := make([]*dictionary.UpdateRecord, len(wal))
	for i, raw := range wal {
		if records[i], err = dictionary.DecodeUpdateRecord(raw); err != nil {
			return nil, false, fmt.Errorf("WAL record %d: %w", i, err)
		}
	}
	a, err := dictionary.RestoreAuthority(cfg, st, records)
	if err != nil {
		return nil, false, err
	}
	return a, true, nil
}

// persistUpdateLocked WAL-appends one signed update (an insert batch or a
// rotated root) together with the chain seed behind it, checkpointing on
// cadence. It runs BEFORE the update is published: write-ahead means a
// message the dissemination network has seen can always be recovered.
//
// Caller holds pmu and acquired it BEFORE the authority mutation that
// produced msg: pmu is what serializes (mutate, read seed, append) as one
// unit, so concurrent revocations can neither reorder WAL records against
// the insertion order nor pair a record with a later batch's chain seed —
// either corruption would verify-fail the whole store at the next
// restart.
func (c *CA) persistUpdateLocked(msg *dictionary.IssuanceMessage) error {
	if c.log == nil {
		return nil
	}
	seed := c.authority.ChainSeed()
	rec := dictionary.UpdateRecord{Msg: msg, Seed: &seed}
	if err := c.log.Append(rec.Encode()); err != nil {
		return fmt.Errorf("ca %s: persist update: %w", c.id, err)
	}
	c.appended++
	if c.appended < c.ckptEvery {
		return nil
	}
	if err := c.log.Checkpoint(c.authority.PersistentStateV2()); err != nil {
		return fmt.Errorf("ca %s: checkpoint: %w", c.id, err)
	}
	c.appended = 0
	return nil
}

// Close releases the CA's durable log (if any). A clean shutdown with
// records appended since the last cadence checkpoint writes one final
// checkpoint first, so the next start maps state instead of replaying a
// WAL tail (and shared-data readers of this directory get the v2 format
// immediately).
func (c *CA) Close() error {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	if c.log == nil {
		return nil
	}
	var firstErr error
	if c.appended > 0 {
		if err := c.log.Checkpoint(c.authority.PersistentStateV2()); err != nil {
			firstErr = fmt.Errorf("ca %s: final checkpoint: %w", c.id, err)
		} else {
			c.appended = 0
		}
	}
	if err := c.log.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	c.log = nil
	return firstErr
}

// ID returns the CA identifier.
func (c *CA) ID() dictionary.CAID { return c.id }

// SetPublisher re-points the CA at a (possibly reopened) distribution
// point. Restart drills use it: the dissemination endpoint that crashed
// and recovered is a new value, but the CA's own state is unaffected.
// Not safe to call concurrently with Revoke or PublishRefresh.
func (c *CA) SetPublisher(p Publisher) { c.publisher = p }

// RootCertificate returns the self-signed root certificate; clients and RAs
// add it to their trust pools.
func (c *CA) RootCertificate() *cert.Certificate { return c.root }

// PublicKey returns the CA's verification key.
func (c *CA) PublicKey() ed25519.PublicKey { return c.signer.Public() }

// Delta returns the CA's dissemination interval ∆.
func (c *CA) Delta() time.Duration { return c.delta }

// Authority exposes the CA's dictionary (read-mostly uses: roots, proofs).
func (c *CA) Authority() *dictionary.Authority { return c.authority }

// IssueServerCertificate issues a certificate binding subject to pub, with
// a fresh serial number from the CA's serial space.
func (c *CA) IssueServerCertificate(subject string, pub ed25519.PublicKey) (*cert.Certificate, error) {
	c.mu.Lock()
	sn := c.serials.Next()
	c.mu.Unlock()
	nowUnix := c.now().Unix()
	crt, err := cert.Issue(c.id, c.signer, cert.Template{
		SerialNumber: sn,
		Subject:      subject,
		NotBefore:    nowUnix,
		NotAfter:     nowUnix + int64(c.validity/time.Second),
		PublicKey:    pub,
	})
	if err != nil {
		return nil, fmt.Errorf("ca %s: issue %s: %w", c.id, subject, err)
	}
	c.mu.Lock()
	c.issued[string(sn.Raw())] = crt
	c.mu.Unlock()
	return crt, nil
}

// PublishRoot publishes the CA's current signed root as a root-only
// issuance message. A CA calls it once after registering with the
// distribution point, so that the (possibly still empty) dictionary has a
// verifiable root before the first revocation — the bootstrapping manifest
// flow of §VIII.
func (c *CA) PublishRoot() error {
	if c.publisher == nil {
		return nil
	}
	msg := &dictionary.IssuanceMessage{Root: c.authority.SignedRoot()}
	if err := c.publisher.PublishIssuance(msg); err != nil {
		return fmt.Errorf("ca %s: publish root: %w", c.id, err)
	}
	return nil
}

// IssueCACertificate issues an intermediate CA certificate binding subject
// to pub, with CA capability and the subordinate's dissemination interval
// recorded in the certificate (§VIII "Local ∆ parameter"). Like any issued
// certificate, it is revocable through this CA's dictionary — which the
// chain-proof extension (§VIII "Certificate chains") checks on every
// connection.
func (c *CA) IssueCACertificate(subject string, pub ed25519.PublicKey, delta time.Duration) (*cert.Certificate, error) {
	c.mu.Lock()
	sn := c.serials.Next()
	c.mu.Unlock()
	nowUnix := c.now().Unix()
	crt, err := cert.Issue(c.id, c.signer, cert.Template{
		SerialNumber: sn,
		Subject:      subject,
		NotBefore:    nowUnix,
		NotAfter:     nowUnix + int64((c.validity*10)/time.Second),
		PublicKey:    pub,
		IsCA:         true,
		DeltaSecs:    uint32(delta / time.Second),
	})
	if err != nil {
		return nil, fmt.Errorf("ca %s: issue CA cert %s: %w", c.id, subject, err)
	}
	c.mu.Lock()
	c.issued[string(sn.Raw())] = crt
	c.mu.Unlock()
	return crt, nil
}

// Revoke revokes the given serials as one batch: it inserts them into the
// dictionary (Fig 2, insert), makes the batch durable (when a storage
// backend is configured — write-ahead, so nothing the network sees can be
// lost by a crash), and publishes the issuance message.
func (c *CA) Revoke(serials ...serial.Number) (*dictionary.IssuanceMessage, error) {
	// pmu spans insert + WAL append so concurrent revocations persist in
	// insertion order with their own chain seeds (see persistUpdateLocked).
	c.pmu.Lock()
	msg, err := c.authority.Insert(serials, c.now().Unix())
	if err != nil {
		c.pmu.Unlock()
		return nil, fmt.Errorf("ca %s: revoke: %w", c.id, err)
	}
	err = c.persistUpdateLocked(msg)
	c.pmu.Unlock()
	if err != nil {
		// In memory the revocation took effect; on disk it did not. Surface
		// it without publishing: disseminating state that a restart would
		// roll back is how an origin ends up behind its own RAs.
		return msg, err
	}
	if c.publisher != nil {
		if err := c.publisher.PublishIssuance(msg); err != nil {
			return msg, fmt.Errorf("ca %s: publish issuance: %w", c.id, err)
		}
	}
	return msg, nil
}

// RevokeCertificate revokes an issued certificate.
func (c *CA) RevokeCertificate(crt *cert.Certificate) (*dictionary.IssuanceMessage, error) {
	return c.Revoke(crt.SerialNumber)
}

// IsRevoked reports whether the CA has revoked the serial.
func (c *CA) IsRevoked(sn serial.Number) bool { return c.authority.Revoked(sn) }

// PublishRefresh runs one refresh cycle (Fig 2, refresh): it publishes the
// current freshness statement, or — when the chain is exhausted — a new
// signed root as a root-only issuance message. CAs call it at least every ∆
// (Tab I rows two and three).
func (c *CA) PublishRefresh() error {
	c.pmu.Lock()
	ref, err := c.authority.Refresh(c.now().Unix())
	if err != nil {
		c.pmu.Unlock()
		return fmt.Errorf("ca %s: refresh: %w", c.id, err)
	}
	if ref.NewRoot != nil {
		// Chain exhaustion rotated the root: the new chain's seed exists
		// nowhere but memory until this record lands.
		if err := c.persistUpdateLocked(&dictionary.IssuanceMessage{Root: ref.NewRoot}); err != nil {
			c.pmu.Unlock()
			return err
		}
	}
	c.pmu.Unlock()
	if c.publisher == nil {
		return nil
	}
	if ref.NewRoot != nil {
		msg := &dictionary.IssuanceMessage{Root: ref.NewRoot}
		if err := c.publisher.PublishIssuance(msg); err != nil {
			return fmt.Errorf("ca %s: publish rotated root: %w", c.id, err)
		}
	}
	if err := c.publisher.PublishFreshness(ref.Statement); err != nil {
		return fmt.Errorf("ca %s: publish freshness: %w", c.id, err)
	}
	return nil
}

// Refresher runs PublishRefresh every ∆ until Shutdown is called. Errors
// are delivered to onErr (may be nil).
type Refresher struct {
	stop chan struct{}
	done chan struct{}
}

// StartRefresher launches the periodic refresh loop (§III: "CAs are still
// obliged to keep their dictionaries fresh"), publishing once per ∆.
func (c *CA) StartRefresher(onErr func(error)) *Refresher {
	return c.StartRefresherEvery(c.delta, onErr)
}

// StartRefresherEvery launches the refresh loop at a custom interval.
// Publishing more often than ∆ is always safe (statements are idempotent
// per period) and shrinks the staleness the dissemination pipeline adds on
// top of the publish/pull skew; intervals above ∆ violate the protocol.
func (c *CA) StartRefresherEvery(interval time.Duration, onErr func(error)) *Refresher {
	r := &Refresher{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				if err := c.PublishRefresh(); err != nil && onErr != nil {
					onErr(err)
				}
			case <-r.stop:
				return
			}
		}
	}()
	return r
}

// Shutdown stops the refresher and waits for it to exit.
func (r *Refresher) Shutdown() {
	close(r.stop)
	<-r.done
}

// Fork creates a second, diverging view of this CA: same identity and key,
// independent dictionary. An honest CA never does this; the returned CA
// models the misbehaving CA of §V, which shows one dictionary to part of
// the system and another to the rest. Detection of this behaviour is
// exercised by internal/monitor and the equivocation example.
func (c *CA) Fork() (*CA, error) {
	fork, err := New(Config{
		ID:           c.id,
		Delta:        c.delta,
		CertValidity: c.validity,
		Signer:       c.signer,
		Now:          c.now,
	})
	if err != nil {
		return nil, fmt.Errorf("ca %s: fork: %w", c.id, err)
	}
	return fork, nil
}
