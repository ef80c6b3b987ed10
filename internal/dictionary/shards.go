package dictionary

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ritm/internal/serial"
)

// Expiry-sharded dictionaries implement the "Ever-growing dictionaries"
// relaxation of §VIII: instead of one append-only dictionary holding
// revocations forever, a CA maintains one dictionary per certificate-
// expiry bucket. Every dictionary stays individually append-only (so all
// the §V accountability guarantees hold per shard), but once every
// certificate a shard covers has expired, the whole shard — and its
// replicas on every RA — can be deleted, bounding storage. The CA/B
// Forum's 39-month validity ceiling bounds the number of live shards.

// ShardID names one expiry shard of a CA's dictionary space. It doubles
// as the dictionary identifier on the dissemination network, so existing
// replicas, pulls, and proofs work on shards unchanged.
type ShardID = CAID

// ShardConfig configures a sharded authority.
type ShardConfig struct {
	// Base is the CA identity; shard identifiers derive from it.
	Base AuthorityConfig
	// Width is the expiry-bucket width (e.g. a quarter). Certificates
	// expiring within the same Width-sized window share a dictionary.
	Width time.Duration
}

// ShardedAuthority maintains one Authority per expiry bucket. It is safe
// for concurrent use.
type ShardedAuthority struct {
	cfg ShardConfig

	mu     sync.Mutex
	shards map[int64]*Authority // bucket start (Unix seconds) → authority
}

// NewShardedAuthority creates an empty sharded dictionary space.
func NewShardedAuthority(cfg ShardConfig) (*ShardedAuthority, error) {
	if cfg.Width < time.Hour {
		return nil, fmt.Errorf("dictionary: shard width %v, must be at least an hour", cfg.Width)
	}
	if err := cfg.Base.validate(); err != nil {
		return nil, err
	}
	return &ShardedAuthority{cfg: cfg, shards: make(map[int64]*Authority)}, nil
}

// bucketStart returns the shard bucket covering a certificate that
// expires at notAfter.
func (s *ShardedAuthority) bucketStart(notAfter int64) int64 {
	w := int64(s.cfg.Width / time.Second)
	return (notAfter / w) * w
}

// ShardIDFor returns the dictionary identifier for certificates expiring
// at notAfter. RAs learn shard identifiers from the dissemination
// network's CA listing; the encoding is stable and human-readable.
func (s *ShardedAuthority) ShardIDFor(notAfter int64) ShardID {
	return ShardID(fmt.Sprintf("%s/exp-%d", s.cfg.Base.CA, s.bucketStart(notAfter)))
}

// ParseShardID splits a shard identifier produced by ShardIDFor into the
// base CA and the expiry-bucket start (Unix seconds). ok is false for
// identifiers of unsharded dictionaries. RAs use it to decide when a
// replicated shard can be dropped: a shard whose bucket ended in the past
// covers only expired certificates (see ra.FetcherOptions.ShardExpiry).
func ParseShardID(id CAID) (base CAID, bucketStart int64, ok bool) {
	s := string(id)
	i := strings.LastIndex(s, "/exp-")
	if i < 0 {
		return "", 0, false
	}
	start, err := strconv.ParseInt(s[i+len("/exp-"):], 10, 64)
	if err != nil {
		return "", 0, false
	}
	return CAID(s[:i]), start, true
}

// shardFor returns (creating on demand) the authority for notAfter.
func (s *ShardedAuthority) shardFor(notAfter, now int64) (*Authority, error) {
	bucket := s.bucketStart(notAfter)
	s.mu.Lock()
	defer s.mu.Unlock()
	if a, ok := s.shards[bucket]; ok {
		return a, nil
	}
	cfg := s.cfg.Base
	cfg.CA = s.ShardIDFor(notAfter)
	a, err := NewAuthority(cfg, now)
	if err != nil {
		return nil, fmt.Errorf("create shard %s: %w", cfg.CA, err)
	}
	s.shards[bucket] = a
	return a, nil
}

// Insert revokes a certificate with the given serial and expiry,
// returning the shard's issuance message for dissemination.
func (s *ShardedAuthority) Insert(sn serial.Number, notAfter, now int64) (*IssuanceMessage, error) {
	shard, err := s.shardFor(notAfter, now)
	if err != nil {
		return nil, err
	}
	return shard.Insert([]serial.Number{sn}, now)
}

// Prove produces the revocation status for a certificate from its shard.
// The shard may not exist yet (nothing with that expiry was ever revoked);
// it is created empty so that the returned status is a sound absence
// proof against a signed (empty) root.
func (s *ShardedAuthority) Prove(sn serial.Number, notAfter, now int64) (*Status, error) {
	shard, err := s.shardFor(notAfter, now)
	if err != nil {
		return nil, err
	}
	return shard.Prove(sn, now)
}

// Shards returns the live shard authorities, ordered by bucket.
func (s *ShardedAuthority) Shards() []*Authority {
	s.mu.Lock()
	defer s.mu.Unlock()
	buckets := make([]int64, 0, len(s.shards))
	for b := range s.shards {
		buckets = append(buckets, b)
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i] < buckets[j] })
	out := make([]*Authority, len(buckets))
	for i, b := range buckets {
		out[i] = s.shards[b]
	}
	return out
}

// PruneExpired deletes every shard whose entire expiry bucket lies in the
// past: all certificates it could ever cover have expired, so revocation
// status for them is moot (expired certificates fail validation anyway).
// It returns the freed serialized bytes, the quantity RAs reclaim.
func (s *ShardedAuthority) PruneExpired(now int64) (shardsDropped, bytesFreed int) {
	w := int64(s.cfg.Width / time.Second)
	s.mu.Lock()
	defer s.mu.Unlock()
	for bucket, a := range s.shards {
		if bucket+w <= now {
			bytesFreed += a.SerializedSize()
			shardsDropped++
			delete(s.shards, bucket)
		}
	}
	return shardsDropped, bytesFreed
}
