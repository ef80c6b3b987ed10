package ritmclient

import (
	"errors"
	"testing"
	"time"

	"ritm/internal/cryptoutil"
	"ritm/internal/dictionary"
	"ritm/internal/tlssim"
)

// The client's pool memoizes the signed root's signature after the first
// good status. Every altered status must still fail on that signature, and
// a genuine root under another CA's key must fail too.
func TestPoolMemoRejectsAlteredStatus(t *testing.T) {
	e := newEnv(t, 10*time.Second)
	sn := e.chain.Leaf().SerialNumber
	good, err := e.agent.Status("CA1", sn)
	if err != nil {
		t.Fatal(err)
	}
	enc := good.Encode()
	decode := func() *dictionary.Status {
		st, err := dictionary.DecodeStatus(enc)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	cfg := &Config{Pool: e.pool, Delta: 10 * time.Second}
	state := &tlssim.ConnectionState{ServerCA: "CA1", ServerSerial: sn, PeerChain: e.chain}
	for range 2 {
		if err := NewVerifier(cfg).Handle(enc, state); err != nil {
			t.Fatalf("genuine status: %v", err)
		}
	}

	for _, tc := range []struct {
		name   string
		mutate func(*dictionary.Status)
	}{
		{"signature", func(st *dictionary.Status) { st.Root.Signature[7] ^= 1 }},
		{"root", func(st *dictionary.Status) { st.Root.Root[0] ^= 1 }},
		{"n", func(st *dictionary.Status) { st.Root.N ^= 1 }},
	} {
		st := decode()
		tc.mutate(st)
		if err := NewVerifier(cfg).Handle(st.Encode(), state); !errors.Is(err, cryptoutil.ErrBadSignature) {
			t.Errorf("flipped %s: err = %v, want ErrBadSignature", tc.name, err)
		}
	}

	other, err := cryptoutil.NewSigner(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decode().CheckWith(sn, other.Public(), time.Now().Unix(), e.pool.Verify); !errors.Is(err, cryptoutil.ErrBadSignature) {
		t.Errorf("root under another CA's key: err = %v, want ErrBadSignature", err)
	}
}
