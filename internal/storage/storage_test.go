package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// backends under test: every Backend must satisfy the same contract.
func backends(t *testing.T) map[string]func() Backend {
	t.Helper()
	return map[string]func() Backend{
		"memory": func() Backend { return NewMemory() },
		"file":   func() Backend { return NewFileBackend(t.TempDir(), true) },
	}
}

func rec(i int) []byte { return []byte(fmt.Sprintf("record-%04d", i)) }

func TestLogRoundTrip(t *testing.T) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			be := mk()
			lg, err := be.Open("CA1")
			if err != nil {
				t.Fatal(err)
			}
			ckpt, wal, err := lg.Load()
			if err != nil {
				t.Fatal(err)
			}
			if ckpt != nil || len(wal) != 0 {
				t.Fatalf("fresh log not empty: ckpt=%v wal=%d", ckpt, len(wal))
			}
			for i := 0; i < 5; i++ {
				if err := lg.Append(rec(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := lg.Checkpoint([]byte("state-5")); err != nil {
				t.Fatal(err)
			}
			for i := 5; i < 8; i++ {
				if err := lg.Append(rec(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := lg.Close(); err != nil {
				t.Fatal(err)
			}

			lg2, err := be.Open("CA1")
			if err != nil {
				t.Fatal(err)
			}
			defer lg2.Close()
			ckpt, wal, err = lg2.Load()
			if err != nil {
				t.Fatal(err)
			}
			if string(ckpt) != "state-5" {
				t.Errorf("checkpoint = %q, want state-5", ckpt)
			}
			if len(wal) != 3 {
				t.Fatalf("wal records = %d, want 3", len(wal))
			}
			for i, r := range wal {
				if !bytes.Equal(r, rec(5+i)) {
					t.Errorf("wal[%d] = %q, want %q", i, r, rec(5+i))
				}
			}
		})
	}
}

func TestLogNamesAreIndependent(t *testing.T) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			be := mk()
			// Names with '/' (shard ids) and other URL-hostile bytes must
			// neither collide nor escape the backend's namespace.
			names := []string{"CA1", "CA1/exp-123", "CA1%2Fexp-123", "a b&c#d"}
			for i, n := range names {
				lg, err := be.Open(n)
				if err != nil {
					t.Fatalf("open %q: %v", n, err)
				}
				if err := lg.Append(rec(i)); err != nil {
					t.Fatal(err)
				}
				lg.Close()
			}
			for i, n := range names {
				lg, err := be.Open(n)
				if err != nil {
					t.Fatal(err)
				}
				_, wal, err := lg.Load()
				if err != nil {
					t.Fatal(err)
				}
				if len(wal) != 1 || !bytes.Equal(wal[0], rec(i)) {
					t.Errorf("log %q: wal = %q, want [%q]", n, wal, rec(i))
				}
				lg.Close()
			}
		})
	}
}

func TestDestroyForgetsState(t *testing.T) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			be := mk()
			lg, err := be.Open("CA1")
			if err != nil {
				t.Fatal(err)
			}
			if err := lg.Append(rec(0)); err != nil {
				t.Fatal(err)
			}
			if err := lg.Destroy(); err != nil {
				t.Fatal(err)
			}
			lg2, err := be.Open("CA1")
			if err != nil {
				t.Fatal(err)
			}
			defer lg2.Close()
			ckpt, wal, err := lg2.Load()
			if err != nil {
				t.Fatal(err)
			}
			if ckpt != nil || len(wal) != 0 {
				t.Errorf("destroyed log retained state: ckpt=%v wal=%d", ckpt, len(wal))
			}
		})
	}
}

// TestCheckpointSurvivesStaleWALRecords covers the crash window between
// checkpoint install and WAL truncation: covered records left in the WAL
// must be skipped on recovery, not replayed.
func TestCheckpointSurvivesStaleWALRecords(t *testing.T) {
	dir := t.TempDir()
	be := NewFileBackend(dir, true)
	lg, err := be.Open("CA1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := lg.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate the crash window: install the checkpoint through a second
	// handle's protocol but keep the original WAL bytes.
	walPath := filepath.Join(dir, "CA1", walName)
	walBytes, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.Checkpoint([]byte("state-4")); err != nil {
		t.Fatal(err)
	}
	lg.Close()
	// Put the pre-truncation WAL back: this is what a crash immediately
	// after the rename would have left.
	if err := os.WriteFile(walPath, walBytes, 0o644); err != nil {
		t.Fatal(err)
	}

	lg2, err := be.Open("CA1")
	if err != nil {
		t.Fatal(err)
	}
	defer lg2.Close()
	ckpt, wal, err := lg2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if string(ckpt) != "state-4" || len(wal) != 0 {
		t.Fatalf("recovery replayed covered records: ckpt=%q wal=%d", ckpt, len(wal))
	}
	// Appends after such a recovery must still be recoverable (LSNs moved
	// past the leftover records).
	if err := lg2.Append(rec(9)); err != nil {
		t.Fatal(err)
	}
	lg2.Close()
	lg3, err := be.Open("CA1")
	if err != nil {
		t.Fatal(err)
	}
	defer lg3.Close()
	_, wal, err = lg3.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(wal) != 1 || !bytes.Equal(wal[0], rec(9)) {
		t.Fatalf("post-recovery append lost: wal=%q", wal)
	}
}

func TestCheckpointFallbackToPrevious(t *testing.T) {
	dir := t.TempDir()
	be := NewFileBackend(dir, true)
	lg, err := be.Open("CA1")
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.Checkpoint([]byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := lg.Checkpoint([]byte("new")); err != nil {
		t.Fatal(err)
	}
	lg.Close()

	// Damage the newest checkpoint: recovery must use the fallback.
	ckptPath := filepath.Join(dir, "CA1", ckptName)
	buf, err := os.ReadFile(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0xFF
	if err := os.WriteFile(ckptPath, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	lg2, err := be.Open("CA1")
	if err != nil {
		t.Fatal(err)
	}
	defer lg2.Close()
	ckpt, _, err := lg2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if string(ckpt) != "old" {
		t.Errorf("fallback checkpoint = %q, want old", ckpt)
	}
}

// TestSoleCheckpointCorruptFailsLoudly: with no fallback to retreat to, a
// damaged checkpoint must be an explicit recovery error — never a silent
// restart from empty (which would masquerade as data loss the operator
// chose).
func TestSoleCheckpointCorruptFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	be := NewFileBackend(dir, true)
	lg, err := be.Open("CA1")
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.Checkpoint([]byte("only")); err != nil {
		t.Fatal(err)
	}
	lg.Close()
	path := filepath.Join(dir, "CA1", ckptName)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-3] ^= 0x01
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := be.Open("CA1"); err == nil {
		t.Fatal("recovery over a corrupt sole checkpoint did not fail")
	}
}

func TestBothCheckpointsCorruptFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	be := NewFileBackend(dir, true)
	lg, err := be.Open("CA1")
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.Checkpoint([]byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := lg.Checkpoint([]byte("new")); err != nil {
		t.Fatal(err)
	}
	lg.Close()
	for _, name := range []string{ckptName, ckptPrevName} {
		path := filepath.Join(dir, "CA1", name)
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		buf[len(buf)/2] ^= 0xFF
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := be.Open("CA1"); err == nil {
		t.Fatal("recovery over two corrupt checkpoints did not fail")
	}
}

// TestFileBackendRejectsDotNames: url.QueryEscape leaves "", "." and ".."
// unchanged, so those log names would resolve to the data dir itself or its
// parent, and Destroy would then remove every log or a sibling of the data
// dir. The file backend refuses them; the data dir's neighbours survive.
func TestFileBackendRejectsDotNames(t *testing.T) {
	parent := t.TempDir()
	data := filepath.Join(parent, "data")
	sibling := filepath.Join(parent, "sibling")
	if err := os.WriteFile(sibling, []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	be := NewFileBackend(data, true)
	for _, name := range []string{"", ".", ".."} {
		if lg, err := be.Open(name); err == nil {
			lg.Destroy() //nolint:errcheck // the damage the guard prevents
			t.Errorf("Open(%q) succeeded", name)
		}
		if _, err := be.Map(name); err == nil {
			t.Errorf("Map(%q) succeeded", name)
		}
	}
	if _, err := os.Stat(sibling); err != nil {
		t.Fatalf("file beside the data dir is gone: %v", err)
	}
}
