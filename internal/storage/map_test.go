package storage

import (
	"bytes"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"testing"
)

// openMust opens a log on b, failing the test on error.
func openMust(t *testing.T, b Backend, name string) Log {
	t.Helper()
	lg, err := b.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	return lg
}

// testMapperContract exercises the shared Mapper semantics against any
// backend: checkpoint + WAL suffix visibility, stamp movement, empty-log
// behavior, and a mapped view that keeps its bytes across the next install.
func testMapperContract(t *testing.T, b Backend, mp Mapper) {
	t.Helper()

	// A never-opened log maps to nothing.
	mc, err := mp.Map("ghost")
	if err != nil {
		t.Fatal(err)
	}
	if mc.State != nil || len(mc.WAL) != 0 {
		t.Fatal("ghost log mapped to non-empty state")
	}
	mc.Close()

	lg := openMust(t, b, "d")
	defer lg.Close()

	s0, err := mp.MapStamp("d")
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.Append([]byte("covered-1")); err != nil {
		t.Fatal(err)
	}
	if err := lg.Checkpoint([]byte("state-1")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := lg.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	s1, err := mp.MapStamp("d")
	if err != nil {
		t.Fatal(err)
	}
	if s1 == s0 {
		t.Fatal("stamp unchanged across checkpoint + appends")
	}

	mc, err = mp.Map("d")
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	if !bytes.Equal(mc.State, []byte("state-1")) {
		t.Fatalf("mapped state %q", mc.State)
	}
	if len(mc.WAL) != 3 {
		t.Fatalf("%d WAL records, want 3 (covered record must be skipped)", len(mc.WAL))
	}
	for i, rec := range mc.WAL {
		if want := fmt.Sprintf("rec-%d", i); string(rec) != want {
			t.Fatalf("WAL[%d] = %q, want %q", i, rec, want)
		}
	}
	if mc.Stamp != s1 {
		t.Fatal("mapped stamp differs from MapStamp")
	}

	// An unchanged log keeps its stamp; the next mutation moves it.
	s2, _ := mp.MapStamp("d")
	if s2 != s1 {
		t.Fatal("stamp moved without a mutation")
	}
	if err := lg.Append([]byte("rec-3")); err != nil {
		t.Fatal(err)
	}
	if s3, _ := mp.MapStamp("d"); s3 == s1 {
		t.Fatal("stamp unchanged after append")
	}

	// The view mapped above is held across the next install: its state and
	// records still read their old bytes, and a fresh Map sees the new ones.
	if err := lg.Checkpoint([]byte("state-2")); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mc.State, []byte("state-1")) || len(mc.WAL) != 3 || string(mc.WAL[2]) != "rec-2" {
		t.Fatalf("held view reads %q / %q after the next checkpoint", mc.State, mc.WAL)
	}
	mc2, err := mp.Map("d")
	if err != nil {
		t.Fatal(err)
	}
	defer mc2.Close()
	if !bytes.Equal(mc2.State, []byte("state-2")) || len(mc2.WAL) != 0 {
		t.Fatalf("re-map after the next checkpoint sees %q / %d records", mc2.State, len(mc2.WAL))
	}
}

func TestFileMapperContract(t *testing.T) {
	b := NewFileBackend(t.TempDir(), false)
	testMapperContract(t, b, b)
}

func TestMemoryMapperContract(t *testing.T) {
	m := NewMemory()
	testMapperContract(t, m, m)
}

// TestMemoryHandsOverImages pins that Memory keeps the buffer Checkpoint is
// handed and that Load and Map return that very buffer, in O(1) allocations
// whatever its size: the image is handed over, never copied.
func TestMemoryHandsOverImages(t *testing.T) {
	m := NewMemory()
	lg := openMust(t, m, "d")
	defer lg.Close()
	image := bytes.Repeat([]byte{0xC4}, 1<<20)
	if err := lg.Checkpoint(image); err != nil {
		t.Fatal(err)
	}
	if err := lg.Append([]byte("rec")); err != nil {
		t.Fatal(err)
	}
	ckpt, wal, err := lg.Load()
	if err != nil {
		t.Fatal(err)
	}
	mc, err := m.Map("d")
	if err != nil {
		t.Fatal(err)
	}
	if &ckpt[0] != &image[0] || &mc.State[0] != &image[0] || len(mc.State) != len(image) {
		t.Fatal("Load or Map returned a copy of the installed image")
	}
	if len(wal) != 1 || len(mc.WAL) != 1 || &mc.WAL[0][0] != &wal[0][0] {
		t.Fatal("Map copied the WAL payloads")
	}
	load := testing.AllocsPerRun(50, func() {
		if _, _, err := lg.Load(); err != nil {
			t.Fatal(err)
		}
	})
	mapped := testing.AllocsPerRun(50, func() {
		if _, err := m.Map("d"); err != nil {
			t.Fatal(err)
		}
	})
	if load > 2 || mapped > 2 {
		t.Fatalf("Load %.0f / Map %.0f allocs per call on a 1 MB image, want O(1) (≤ 2)", load, mapped)
	}
}

func TestFileMapFallsBackToPrev(t *testing.T) {
	dir := t.TempDir()
	b := NewFileBackend(dir, false)
	lg := openMust(t, b, "d")
	defer lg.Close()
	if err := lg.Checkpoint([]byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := lg.Checkpoint([]byte("new")); err != nil {
		t.Fatal(err)
	}

	// Damage the newest checkpoint; the reader must serve the retained
	// fallback rather than fail or repair anything.
	cur := filepath.Join(dir, url.QueryEscape("d"), ckptName)
	buf, err := os.ReadFile(cur)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0xFF
	if err := os.WriteFile(cur, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	mc, err := b.Map("d")
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	if !bytes.Equal(mc.State, []byte("old")) {
		t.Fatalf("mapped state %q, want fallback", mc.State)
	}
}

func TestFileMapToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	b := NewFileBackend(dir, false)
	lg := openMust(t, b, "d")
	defer lg.Close()
	if err := lg.Append([]byte("good")); err != nil {
		t.Fatal(err)
	}

	// A torn frame at the tail — the shape of a writer crash or an
	// append in flight — ends the reader's scan without error.
	wal := filepath.Join(dir, url.QueryEscape("d"), walName)
	f, err := os.OpenFile(wal, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x00, 0x00, 0x00, 0xFF, 0x01}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	mc, err := b.Map("d")
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	if len(mc.WAL) != 1 || string(mc.WAL[0]) != "good" {
		t.Fatalf("WAL = %q, want the single good record", mc.WAL)
	}

	// The reader must not have repaired the file: the torn bytes are the
	// writer's to deal with.
	if fi, err := os.Stat(wal); err != nil || fi.Size() == 0 {
		t.Fatal("reader mutated the WAL file")
	}
}

// TestFileMapSurvivesCheckpointInstall pins the RCU property end to end:
// a mapped view taken before a new checkpoint install keeps serving the
// old bytes, and a fresh Map picks up the new state.
func TestFileMapSurvivesCheckpointInstall(t *testing.T) {
	b := NewFileBackend(t.TempDir(), false)
	lg := openMust(t, b, "d")
	defer lg.Close()
	if err := lg.Checkpoint([]byte("generation-1")); err != nil {
		t.Fatal(err)
	}

	mc1, err := b.Map("d")
	if err != nil {
		t.Fatal(err)
	}
	defer mc1.Close()

	if err := lg.Checkpoint([]byte("generation-2")); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mc1.State, []byte("generation-1")) {
		t.Fatal("live mapping changed under a checkpoint install")
	}
	s, err := b.MapStamp("d")
	if err != nil {
		t.Fatal(err)
	}
	if s == mc1.Stamp {
		t.Fatal("stamp unchanged across checkpoint install")
	}
	mc2, err := b.Map("d")
	if err != nil {
		t.Fatal(err)
	}
	defer mc2.Close()
	if !bytes.Equal(mc2.State, []byte("generation-2")) {
		t.Fatalf("re-map sees %q", mc2.State)
	}
}
