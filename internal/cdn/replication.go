package cdn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ritm/internal/dictionary"
	"ritm/internal/storage"
)

// WAL-shipping replication: PR 5's durable log is already a replication
// log — CRC-framed, LSN-stamped records of exactly the signed messages
// that cross trust boundaries — so a follower origin replicates the
// leader by tailing that log over `/v1/replicate?ca=...&from_lsn=...`
// and applying each frame through the same verification the recovery
// path uses. The leader is NOT trusted: every update record must carry a
// CA-signed root that matches the locally rebuilt dictionary, so a
// compromised or split-brain leader's frames are rejected, not mirrored.
// A follower that has verified the leader's history serves byte-identical
// signed roots — and therefore byte-identical /v1/root ETags — which is
// what lets edges keep revalidating with 304s across a promotion.

// ErrNoReplication reports a replication request against an origin (or a
// CA) without a tailable durable log. Origins opt into serving
// replication by being storage-backed with a storage.Tailer log — both
// built-in backends qualify.
var ErrNoReplication = errors.New("cdn: origin does not serve replication")

// ErrReplicationDiverged reports a leader whose history cannot be
// reconciled with the follower's verified state: a regressed LSN
// sequence, a gap in the shipped frames, or a snapshot/frame that fails
// signed-root verification. The follower keeps its own state; operators
// (or the follower's next bootstrap cycle) decide what to do with the
// divergent leader.
var ErrReplicationDiverged = errors.New("cdn: leader history diverges from follower state")

// ReplicationResponse is the answer to one replication request: the
// leader's log position plus everything after the requested LSN. Frames
// are the leader's WAL records in the exact storage frame encoding; the
// snapshot is present only when the requested position predates the
// leader's checkpoint (the WAL alone cannot bridge the gap — covered
// records were truncated).
type ReplicationResponse struct {
	// CheckpointLSN is the LSN the leader's newest checkpoint covers
	// (0 = none).
	CheckpointLSN uint64
	// LastLSN is the leader's highest committed LSN (0 = empty log). A
	// follower already at LastLSN is caught up.
	LastLSN uint64
	// Snapshot is the leader's checkpoint state (a dictionary
	// PersistentState), shipped only for bootstrap/catch-up; nil otherwise.
	Snapshot []byte
	// Frames are the WAL records with LSN > max(from, CheckpointLSN).
	Frames []storage.Frame
}

// Encode serializes the response: a fixed header (checkpoint LSN, last
// LSN, snapshot length + snapshot) followed by the raw storage frames.
func (rr *ReplicationResponse) Encode() []byte {
	buf := make([]byte, 0, 20+len(rr.Snapshot)+64)
	buf = binary.BigEndian.AppendUint64(buf, rr.CheckpointLSN)
	buf = binary.BigEndian.AppendUint64(buf, rr.LastLSN)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(rr.Snapshot)))
	buf = append(buf, rr.Snapshot...)
	return storage.EncodeFrames(buf, rr.Frames)
}

// DecodeReplicationResponse parses a response encoded by Encode. Frame
// decoding is strict (length and CRC validated); a truncated or corrupted
// body is an error, never a silently shorter history.
func DecodeReplicationResponse(buf []byte) (*ReplicationResponse, error) {
	if len(buf) < 20 {
		return nil, fmt.Errorf("cdn: replication response of %d bytes is truncated", len(buf))
	}
	rr := &ReplicationResponse{
		CheckpointLSN: binary.BigEndian.Uint64(buf[:8]),
		LastLSN:       binary.BigEndian.Uint64(buf[8:16]),
	}
	snapLen := binary.BigEndian.Uint32(buf[16:20])
	rest := buf[20:]
	if snapLen > 0 {
		if uint64(len(rest)) < uint64(snapLen) {
			return nil, fmt.Errorf("cdn: replication snapshot truncated (%d of %d bytes)", len(rest), snapLen)
		}
		rr.Snapshot = append([]byte(nil), rest[:snapLen]...)
		rest = rest[snapLen:]
	}
	frames, err := storage.DecodeFrames(rest)
	if err != nil {
		return nil, fmt.Errorf("cdn: replication frames: %w", err)
	}
	rr.Frames = frames
	return rr, nil
}

// Replicator is the replication-source API: DistributionPoint (a
// storage-backed one) and HTTPClient implement it; ShardedOrigin does not
// — replication is per-origin, pulls are per-fleet.
type Replicator interface {
	Replicate(ca dictionary.CAID, fromLSN uint64) (*ReplicationResponse, error)
}

// Replicate implements Replicator: it serves the suffix of ca's durable
// log after fromLSN, straight from the storage tier's tail API. The
// response carries history, not authority — every record re-verifies
// against the CA's trust anchor on the follower.
func (dp *DistributionPoint) Replicate(ca dictionary.CAID, fromLSN uint64) (*ReplicationResponse, error) {
	j, err := dp.journal(ca)
	if err != nil {
		return nil, err
	}
	res, ok, err := j.Tail(fromLSN)
	if !ok {
		return nil, fmt.Errorf("%w (%s: no tailable durable log)", ErrNoReplication, ca)
	}
	if err != nil {
		return nil, fmt.Errorf("cdn: replicate %s: %w", ca, err)
	}
	return &ReplicationResponse{
		CheckpointLSN: res.CheckpointLSN,
		LastLSN:       res.LastLSN,
		Snapshot:      res.Checkpoint,
		Frames:        res.Frames,
	}, nil
}

// ApplyReplicated applies one leader WAL payload (an update or freshness
// record) to ca's local replica with full verification — the same
// acceptance rule as a message fresh off the network — and, when it
// advanced the state, journals the exact payload bytes. The follower's WAL
// therefore mirrors the leader's record stream (under local LSNs), so the
// follower's own recovery — and its own downstream followers — replay the
// same verified history.
func (dp *DistributionPoint) ApplyReplicated(ca dictionary.CAID, payload []byte) error {
	return dp.ingest(ca, "replicated record", dictionary.RawRecord(payload), func(r *dictionary.Replica) error {
		if err := dictionary.ApplyLogRecord(r, payload, dp.now().Unix()); err != nil {
			return fmt.Errorf("%w: %v", ErrReplicationDiverged, err)
		}
		return nil
	})
}

// AdoptReplicatedState bootstraps ca's replica from a leader checkpoint
// snapshot. The snapshot is rebuilt through the anchor-verifying restore
// path (RestoreReplica replays the log and accepts it only if the rebuilt
// root matches the CA-signed root), then guarded against the two leader
// failure modes a signature cannot catch: count regression (the "leader"
// has less verified history than we do — adopting would un-revoke
// certificates) and log divergence (same-key equivocation: the genuine CA
// key signing two histories; detectable exactly because we still hold
// ours). On success the restored replica replaces the current one and is
// checkpointed locally.
func (dp *DistributionPoint) AdoptReplicatedState(ca dictionary.CAID, state []byte) error {
	st, err := dictionary.DecodePersistentState(state)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrReplicationDiverged, err)
	}
	j, err := dp.journal(ca)
	if err != nil {
		return err
	}
	// The slow part — full anchor-verified replay — runs outside every
	// lock; the trust anchor is immutable per registration.
	restored, err := dictionary.RestoreReplica(ca, j.State().PublicKey(), st, dp.now().Unix())
	if err != nil {
		return fmt.Errorf("%w: %v", ErrReplicationDiverged, err)
	}
	// The guard and the swap run under the journal's lock, so no ingest
	// lands between them, nor on the replaced replica after them. dp.mu is
	// held for the map write only, so pulls never stall behind the
	// checkpoint's disk I/O.
	err = j.Replace(func(cur *dictionary.Replica) (*dictionary.Replica, error) {
		if restored.Count() < cur.Count() {
			return nil, fmt.Errorf("%w: leader snapshot has %d revocations, follower verified %d", ErrReplicationDiverged, restored.Count(), cur.Count())
		}
		curLog := cur.Log()
		newLog := restored.Log()
		for i := range curLog {
			if !curLog[i].Equal(newLog[i]) {
				return nil, fmt.Errorf("%w: issuance logs disagree at revocation %d (same-key equivocation?)", ErrReplicationDiverged, i)
			}
		}
		dp.mu.Lock()
		dp.dicts[ca] = restored
		dp.mu.Unlock()
		return restored, nil
	})
	if err != nil {
		return fmt.Errorf("cdn: adopt state for %s: %w", ca, err)
	}
	return nil
}

// Follower tails a leader's per-CA WAL into a local DistributionPoint.
// One Follower serves one (local origin, leader) pair; its sync cycle
// asks the leader for everything after the last applied leader LSN and
// applies it with full verification. Positions are in-memory only: a
// restarted follower re-tails from 0 and converges through the
// overlap-tolerant apply path (covered records verify as no-ops), at the
// cost of one bootstrap-sized response.
//
// The local origin remains a fully capable DistributionPoint throughout:
// it serves pulls (edges can read from followers), serves its own
// /v1/replicate (followers chain), and on promotion simply keeps serving
// — same replica, same signed-root bytes, same ETags — while the CA
// re-attaches via PublishIssuance.
type Follower struct {
	dp     *DistributionPoint
	source Replicator

	mu  sync.Mutex
	pos map[dictionary.CAID]uint64 // last applied leader LSN

	stats followerCounters
}

// followerCounters is the lock-free backing store for FollowerStats.
type followerCounters struct {
	syncs     atomic.Int64
	frames    atomic.Int64
	snapshots atomic.Int64
	rejected  atomic.Int64
	resets    atomic.Int64
	errors    atomic.Int64
}

// FollowerStats counts replication activity.
type FollowerStats struct {
	// Syncs counts completed sync attempts (successful or not).
	Syncs int
	// FramesApplied counts leader WAL frames verified and applied.
	FramesApplied int
	// SnapshotsAdopted counts checkpoint bootstraps.
	SnapshotsAdopted int
	// Rejected counts frames or snapshots refused by verification — a
	// nonzero value under a supposedly honest leader is an alarm.
	Rejected int
	// Resets counts position resets after a leader whose LSN sequence
	// regressed or gapped (leader re-recovery, or a different leader).
	Resets int
	// Errors counts failed sync attempts.
	Errors int
}

// NewFollower builds a follower applying source's history into dp. The
// distribution point must already have the followed CAs registered (the
// trust anchors come from registration, never from the leader).
func NewFollower(dp *DistributionPoint, source Replicator) *Follower {
	return &Follower{
		dp:     dp,
		source: source,
		pos:    make(map[dictionary.CAID]uint64),
	}
}

// Stats returns a copy of the follower's counters.
func (f *Follower) Stats() FollowerStats {
	return FollowerStats{
		Syncs:            int(f.stats.syncs.Load()),
		FramesApplied:    int(f.stats.frames.Load()),
		SnapshotsAdopted: int(f.stats.snapshots.Load()),
		Rejected:         int(f.stats.rejected.Load()),
		Resets:           int(f.stats.resets.Load()),
		Errors:           int(f.stats.errors.Load()),
	}
}

// SyncCA replicates one CA: fetch the leader's suffix after our position,
// adopt the snapshot if one was needed, then apply the frames in order.
func (f *Follower) SyncCA(ca dictionary.CAID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats.syncs.Add(1)
	err := f.syncCALocked(ca)
	if err != nil {
		f.stats.errors.Add(1)
	}
	return err
}

func (f *Follower) syncCALocked(ca dictionary.CAID) error {
	from := f.pos[ca]
	resp, err := f.source.Replicate(ca, from)
	if err != nil {
		return fmt.Errorf("cdn: follower sync %s: %w", ca, err)
	}
	if resp.LastLSN < from {
		// The leader's log ends before our position: a leader that lost
		// acknowledged records to a crash (its recovery renumbered), or a
		// different self-proclaimed leader entirely. Reset so the next
		// cycle re-tails from 0 — verification decides what survives; a
		// divergent history still gets rejected record by record.
		f.pos[ca] = 0
		f.stats.resets.Add(1)
		return fmt.Errorf("%w: leader log ends at LSN %d, follower applied %d (%s)", ErrReplicationDiverged, resp.LastLSN, from, ca)
	}
	pos := from
	if resp.Snapshot != nil {
		if err := f.dp.AdoptReplicatedState(ca, resp.Snapshot); err != nil {
			f.stats.rejected.Add(1)
			return err
		}
		f.stats.snapshots.Add(1)
		pos = resp.CheckpointLSN
		f.pos[ca] = pos
	}
	for _, fr := range resp.Frames {
		if fr.LSN <= pos {
			continue
		}
		if fr.LSN != pos+1 {
			f.pos[ca] = 0
			f.stats.resets.Add(1)
			return fmt.Errorf("%w: frame gap %d → %d (%s)", ErrReplicationDiverged, pos, fr.LSN, ca)
		}
		if err := f.dp.ApplyReplicated(ca, fr.Payload); err != nil {
			f.stats.rejected.Add(1)
			return err
		}
		pos = fr.LSN
		f.pos[ca] = pos
		f.stats.frames.Add(1)
	}
	return nil
}

// SyncOnce replicates every CA registered on the local origin. Per-CA
// errors are isolated — one CA's divergence or transport failure does not
// stop the others — and joined into the returned error.
func (f *Follower) SyncOnce() error {
	cas, err := f.dp.CAs()
	if err != nil {
		return err
	}
	var errs []error
	for _, ca := range cas {
		if err := f.SyncCA(ca); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// FollowerLoop is a running background replication loop.
type FollowerLoop struct {
	stop chan struct{}
	done chan struct{}
}

// Start launches a background loop calling SyncOnce every interval.
// Choose interval well inside ∆ (∆/4 is a good default): replication lag
// directly bounds how much acknowledged history a leader crash can lose.
// onError (optional) observes per-cycle errors.
func (f *Follower) Start(interval time.Duration, onError func(error)) *FollowerLoop {
	if interval <= 0 {
		interval = time.Second
	}
	loop := &FollowerLoop{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(loop.done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			if err := f.SyncOnce(); err != nil && onError != nil {
				onError(err)
			}
			select {
			case <-loop.stop:
				return
			case <-ticker.C:
			}
		}
	}()
	return loop
}

// Shutdown stops the loop and waits for the in-flight cycle to finish.
func (l *FollowerLoop) Shutdown() {
	close(l.stop)
	<-l.done
}
