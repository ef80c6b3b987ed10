package ra

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"sync"
	"testing"
	"time"

	"ritm/internal/ca"
	"ritm/internal/cdn"
	"ritm/internal/cert"
	"ritm/internal/dictionary"
	"ritm/internal/serial"
	"ritm/internal/storage"
)

// Shared replica store scenario tests: one writer RA owns the durable
// logs; reader RAs (Config.SharedData) serve the same statuses off a
// read-only mapping of the writer's checkpoints, refreshing when the
// writer's stamp moves.

// newSharedPair builds a writer RA (pulling from env.dp, checkpointing
// every batch so readers see v2 state immediately) and a reader RA
// mapping the same backend.
func newSharedPair(t *testing.T, env *persistEnv, backend storage.Backend) (writer, reader *RA) {
	t.Helper()
	writer, err := New(Config{
		Roots:           []*cert.Certificate{env.ca.RootCertificate()},
		Origin:          env.dp,
		Delta:           10 * time.Second,
		Storage:         backend,
		CheckpointEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := writer.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	reader, err = New(Config{
		Roots:      []*cert.Certificate{env.ca.RootCertificate()},
		Delta:      10 * time.Second,
		Storage:    backend,
		SharedData: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		reader.Store().Close()
		writer.Store().Close()
	})
	return writer, reader
}

// TestSharedReaderServesWriterState: a reader RA pointed at the writer's
// data directory serves byte-identical statuses for revoked and absent
// serials, off a real file mapping, without any origin access.
func TestSharedReaderServesWriterState(t *testing.T) {
	t.Run("sorted", func(t *testing.T) {
		env := newPersistEnv(t, nil, 12, 25)
		backend := storage.NewFileBackend(t.TempDir(), false)
		writer, reader := newSharedPair(t, env, backend)

		probes := append(serial.NewGenerator(0xD15C, nil).NextN(300), // revoked prefix
			serial.NewGenerator(0xAB5E, nil).NextN(20)...) // absent
		for _, sn := range probes {
			ws, err := writer.Status("CA1", sn)
			if err != nil {
				t.Fatal(err)
			}
			rs, err := reader.Status("CA1", sn)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ws.Encode(), rs.Encode()) {
				t.Fatalf("writer and reader statuses differ for %v", sn)
			}
			if _, err := rs.Check(sn, env.ca.PublicKey(), time.Now().Unix()); err != nil {
				t.Fatalf("reader status does not verify: %v", err)
			}
		}

		// The reader serves off an actual checkpoint mapping, and its
		// dictionaries are not exposed as mutable replicas.
		if got := reader.Store().MappedBytes(); got == 0 {
			t.Error("reader reports no mapped bytes; expected a live checkpoint mapping")
		}
		if _, err := reader.Store().Replica("CA1"); err == nil ||
			!strings.Contains(err.Error(), "shared mapping") {
			t.Errorf("Replica on a shared CA = %v, want shared-mapping error", err)
		}

		// Cache interplay: a repeated lookup is a hit keyed on the
		// shared dictionary's generation.
		before := reader.Store().CacheStats()
		if _, err := reader.Status("CA1", probes[0]); err != nil {
			t.Fatal(err)
		}
		if after := reader.Store().CacheStats(); after.Hits <= before.Hits {
			t.Error("repeated shared-path Status did not hit the cache")
		}
	})
}

// TestSharedReaderTracksWriter: the reader picks up both kinds of writer
// progress — new revocations (checkpoint install, stamp moves) and a
// freshness refresh (WAL-appended FreshnessRecord, no checkpoint) — on
// its next sync, bumping its generation so cached statuses invalidate.
func TestSharedReaderTracksWriter(t *testing.T) {
	env := newPersistEnv(t, nil, 8, 25)
	backend := storage.NewFileBackend(t.TempDir(), false)
	writer, reader := newSharedPair(t, env, backend)

	d, ok := reader.Store().sharedFor("CA1")
	if !ok {
		t.Fatal("reader has no shared dictionary for CA1")
	}
	gen0 := d.CurrentGeneration()
	if count := d.state.Load().snap.Count(); count != 200 {
		t.Fatalf("initial shared count = %d, want 200", count)
	}

	// Writer absorbs new revocations and checkpoints them.
	env.revoke(t, 2, 25)
	if err := writer.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	if err := reader.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	if count := d.state.Load().snap.Count(); count != 250 {
		t.Fatalf("shared count after writer advance = %d, want 250", count)
	}
	gen1 := d.CurrentGeneration()
	if gen1 <= gen0 {
		t.Fatalf("generation did not advance on remap: %d → %d", gen0, gen1)
	}

	// A freshness-only refresh reaches the reader through the WAL record
	// the writer appends (no new checkpoint involved).
	if err := env.ca.PublishRefresh(); err != nil {
		t.Fatal(err)
	}
	if err := writer.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	wr, err := writer.Store().Replica("CA1")
	if err != nil {
		t.Fatal(err)
	}
	want := wr.Snapshot().Freshness()
	if err := reader.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	rs, err := reader.Status("CA1", serial.NewGenerator(0x90AD, nil).Next())
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Freshness.Equal(want) {
		t.Error("reader did not adopt the writer's refreshed freshness value")
	}

	// An unchanged stamp must be a no-op refresh: same generation.
	genBefore := d.CurrentGeneration()
	if err := reader.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	if got := d.CurrentGeneration(); got != genBefore {
		t.Errorf("refresh with unchanged stamp bumped generation %d → %d", genBefore, got)
	}
}

// TestSharedReaderBeforeFirstCheckpoint: a reader attached before the
// writer's first checkpoint serves the WAL-only state — the empty base,
// overlaid — and flips to the mapping once the
// writer installs one.
func TestSharedReaderBeforeFirstCheckpoint(t *testing.T) {
	t.Run("sorted", func(t *testing.T) {
		env := newPersistEnv(t, nil, 6, 20)
		backend := storage.NewFileBackend(t.TempDir(), false)
		roots := []*cert.Certificate{env.ca.RootCertificate()}
		writer, err := New(Config{Roots: roots, Origin: env.dp, Delta: 10 * time.Second,
			Storage: backend, CheckpointEvery: 3})
		if err != nil {
			t.Fatal(err)
		}
		defer writer.Store().Close()
		if err := writer.SyncOnce(); err != nil { // one WAL record, no checkpoint
			t.Fatal(err)
		}
		reader, err := New(Config{Roots: roots, Delta: 10 * time.Second,
			Storage: backend, SharedData: true})
		if err != nil {
			t.Fatal(err)
		}
		defer reader.Store().Close()

		probes := append(serial.NewGenerator(0xD15C, nil).NextN(40), serial.NewGenerator(0xAB5E, nil).NextN(10)...)
		agree := func(stage string) {
			t.Helper()
			for _, sn := range probes {
				ws, err := writer.Status("CA1", sn)
				if err != nil {
					t.Fatal(err)
				}
				rs, err := reader.Status("CA1", sn)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(ws.Encode(), rs.Encode()) {
					t.Fatalf("%s: writer and reader statuses differ for %v", stage, sn)
				}
			}
		}
		agree("WAL only")
		if got := reader.Store().MappedBytes(); got != 0 {
			t.Errorf("reader reports %d mapped bytes before any checkpoint exists", got)
		}

		for i := 0; i < 2; i++ { // third WAL record: the writer checkpoints
			env.revoke(t, 1, 20)
			if err := writer.SyncOnce(); err != nil {
				t.Fatal(err)
			}
		}
		if err := reader.SyncOnce(); err != nil {
			t.Fatal(err)
		}
		if got := reader.Store().MappedBytes(); got == 0 {
			t.Error("reader did not flip to mapped serving after the writer's first checkpoint")
		}
		agree("mapped")
	})
}

// TestV1CheckpointRefused: a payload in the retired v1 checkpoint encoding
// is refused with ErrBadCheckpoint at every place checkpoint bytes enter —
// it is never read as empty state, and nothing migrates it.
func TestV1CheckpointRefused(t *testing.T) {
	// The v1 encoding of an empty sorted dictionary: version byte 0x01,
	// layout u32, no log entries, no batches, no root, a zero freshness
	// value, no seed.
	v1 := append([]byte{0x01, 0, 0, 0, 0, 0, 0, 0}, make([]byte, 21)...)
	checkpointRefused(t, newPersistEnv(t, nil, 1, 5), v1, "")
}

// TestWarmStartLayoutMismatchFailsLoudly: a checkpoint of the retired forest
// layout — a sorted one whose header names layout 1, CRC resealed — is
// refused with ErrBadCheckpoint naming the layout at every place checkpoint
// bytes enter, not silently repaired by a re-sync; and ra.New, ca.New and
// the deprecated cdn.RegisterCAWithLayout refuse a forest layout outright.
func TestWarmStartLayoutMismatchFailsLoudly(t *testing.T) {
	env := newPersistEnv(t, nil, 2, 10)
	roots := []*cert.Certificate{env.ca.RootCertificate()}
	if _, err := New(Config{Roots: roots, Origin: env.dp, Layout: 1}); err == nil {
		t.Error("ra.New accepted the forest layout")
	}
	if _, err := ca.New(ca.Config{ID: "CA2", Layout: 1}); err == nil {
		t.Error("ca.New accepted the forest layout")
	}
	if err := cdn.NewDistributionPoint(nil).RegisterCAWithLayout("CA2", env.ca.PublicKey(), 1); err == nil {
		t.Error("RegisterCAWithLayout accepted the forest layout")
	}
	backend := storage.NewMemory()
	writer, err := New(Config{Roots: roots, Origin: env.dp, Storage: backend, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := writer.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	writer.Store().Close()
	lg, err := backend.Open("CA1")
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	ckpt, _, err := lg.Load()
	if err != nil || ckpt == nil {
		t.Fatalf("writer left no checkpoint (%v)", err)
	}
	checkpointRefused(t, env, forestCheckpoint(ckpt), "forest layout")
}

// forestCheckpoint returns a copy of a checkpoint whose header names the
// retired forest layout: the header section's layout field set to 1, its
// CRC resealed.
func forestCheckpoint(state []byte) []byte {
	out := append([]byte(nil), state...)
	le := binary.LittleEndian
	for i := 0; i < int(le.Uint32(out[8:])); i++ {
		if e := out[16+24*i:]; le.Uint32(e) == 1 {
			off, n := le.Uint64(e[8:]), le.Uint64(e[16:])
			le.PutUint32(out[off:], 1)
			le.PutUint32(e[4:], crc32.ChecksumIEEE(out[off:off+n]))
		}
	}
	return out
}

// checkpointRefused installs payload as CA1's checkpoint and checks that an
// RA warm start (RecoverReplicaLog), a CA restore, a follower origin's
// AdoptReplicatedState and a shared reader's map all refuse it with
// ErrBadCheckpoint, the error naming want.
func checkpointRefused(t *testing.T, env *persistEnv, payload []byte, want string) {
	t.Helper()
	roots := []*cert.Certificate{env.ca.RootCertificate()}
	seeded := func(t *testing.T) storage.Backend {
		backend := storage.NewMemory()
		lg, err := backend.Open("CA1")
		if err != nil {
			t.Fatal(err)
		}
		if err := lg.Checkpoint(payload); err != nil {
			t.Fatal(err)
		}
		if err := lg.Close(); err != nil {
			t.Fatal(err)
		}
		return backend
	}
	for _, entry := range []struct {
		name string
		open func(t *testing.T) error
	}{
		{"RecoverReplicaLog", func(t *testing.T) error {
			_, err := New(Config{Roots: roots, Origin: env.dp, Delta: 10 * time.Second, Storage: seeded(t)})
			return err
		}},
		{"ca restore", func(t *testing.T) error {
			_, err := ca.New(ca.Config{ID: "CA1", Delta: 10 * time.Second, Publisher: env.dp, Storage: seeded(t)})
			return err
		}},
		{"AdoptReplicatedState", func(t *testing.T) error {
			return env.dp.AdoptReplicatedState("CA1", payload)
		}},
		{"shared map", func(t *testing.T) error {
			_, err := New(Config{Roots: roots, Delta: 10 * time.Second, Storage: seeded(t), SharedData: true})
			return err
		}},
	} {
		t.Run(entry.name, func(t *testing.T) {
			if err := entry.open(t); !errors.Is(err, dictionary.ErrBadCheckpoint) || !strings.Contains(err.Error(), want) {
				t.Fatalf("err = %v, want ErrBadCheckpoint naming %q", err, want)
			}
		})
	}
}

// TestSharedHeldStateSurvivesRemaps pins the mapping's lifetime to its
// users, not to a count of re-maps: a state acquired before any number of
// re-maps still proves afterwards (it used to fault in unmapped pages once
// more than four generations behind).
func TestSharedHeldStateSurvivesRemaps(t *testing.T) {
	env := newPersistEnv(t, nil, 8, 25)
	backend := storage.NewFileBackend(t.TempDir(), false)
	writer, reader := newSharedPair(t, env, backend)
	d, _ := reader.Store().sharedFor("CA1")

	held := d.acquire()
	for i := 0; i < 10; i++ {
		env.revoke(t, 1, 10)
		if err := writer.SyncOnce(); err != nil {
			t.Fatal(err)
		}
		if err := reader.SyncOnce(); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.CurrentGeneration(); got < held.gen+8 {
		t.Fatalf("only %d re-maps happened, want ≥ 8", got-held.gen)
	}
	now := time.Now().Unix()
	for _, sn := range append(serial.NewGenerator(0xD15C, nil).NextN(50), serial.NewGenerator(0xFA11, nil).NextN(20)...) {
		st, err := held.snap.Prove(sn)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Check(sn, env.ca.PublicKey(), now); err != nil {
			t.Fatalf("status proved from the held state does not verify: %v", err)
		}
	}
	if err := held.release(); err != nil {
		t.Fatal(err)
	}
	if held.mc.State != nil {
		t.Error("the last release did not unmap the superseded checkpoint")
	}
}

// TestSharedConcurrentRemap is the -race half of the remap-window
// coverage: reader goroutines hammer Status (mapped proofs alias the
// checkpoint bytes) while the writer keeps absorbing revocations and
// installing checkpoints and another goroutine refreshes the reader.
// Every status served at any point during the churn must verify.
func TestSharedConcurrentRemap(t *testing.T) {
	env := newPersistEnv(t, nil, 8, 25)
	backend := storage.NewFileBackend(t.TempDir(), false)
	writer, reader := newSharedPair(t, env, backend)

	revoked := serial.NewGenerator(0xD15C, nil).NextN(200)
	absent := serial.NewGenerator(0xFA11, nil).NextN(64)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Writer churn: revoke, pull, checkpoint — each cycle installs a new
	// checkpoint (CheckpointEvery=1) under the reader's feet.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			env.revoke(t, 1, 10)
			if err := writer.SyncOnce(); err != nil {
				t.Error(err)
				return
			}
		}
		close(stop)
	}()

	// Reader refresh loop: remap as fast as stamps move.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := reader.SyncOnce(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Serving loops: proofs must stay valid across every remap.
	pub := env.ca.PublicKey()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				sn := revoked[(i*7+g)%len(revoked)]
				if i%3 == 0 {
					sn = absent[(i+g)%len(absent)]
				}
				i++
				st, err := reader.Status("CA1", sn)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if _, err := st.Check(sn, pub, time.Now().Unix()); err != nil {
					t.Errorf("goroutine %d: served status does not verify: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
